type direction = Uplink | Downlink

type flow_addr = { host : int; direction : direction; index : int }

let control_addr = { host = 0; direction = Downlink; index = 0 }

let addr_equal a b =
  a.host = b.host && a.direction = b.direction && a.index = b.index

let is_control a = addr_equal a control_addr

let pp_addr ppf a =
  Format.fprintf ppf "<%d,%s,%d>" a.host
    (match a.direction with Uplink -> "up" | Downlink -> "down")
    a.index

type slot_kind = Data_slot of { flow : int } | Control_slot

let notification_minislots = 4
