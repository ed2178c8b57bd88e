module Skip_stats = Wfs_core.Skip_stats
module Histogram = Wfs_util.Stats.Histogram
module Tablefmt = Wfs_util.Tablefmt

let ratio_cell r = Printf.sprintf "%.4f" r

let rows (k : Skip_stats.t) =
  let h = Skip_stats.window_hist k in
  let pct p =
    if Histogram.count h = 0 then "-"
    else Tablefmt.cell_of_float ~decimals:1 (Histogram.percentile h p)
  in
  [
    [ "engine slots"; string_of_int (Skip_stats.engine_slots k) ];
    [ "reference slots"; string_of_int (Skip_stats.reference_slots k) ];
    [ "absorbed windows"; string_of_int (Skip_stats.absorbed_windows k) ];
    [ "absorbed slots"; string_of_int (Skip_stats.absorbed_slots k) ];
    [ "declined windows"; string_of_int (Skip_stats.declined_windows k) ];
    [ "max window"; string_of_int (Skip_stats.max_window k) ];
    [ "window p50"; pct 50. ];
    [ "window p90"; pct 90. ];
    [ "quiescence ratio"; ratio_cell (Skip_stats.quiescence_ratio k) ];
    [ "compressed"; (if Skip_stats.compressed k then "yes" else "no") ];
  ]

let columns = [ "metric"; "value" ]

let to_table ?(title = "fast-path skip telemetry") k =
  let t = Tablefmt.create ~title ~columns in
  List.iter (fun r -> Tablefmt.add_row t r) (rows k);
  t

let merge_all = function
  | [] -> None
  | k :: tl -> Some (List.fold_left Skip_stats.merge k tl)
