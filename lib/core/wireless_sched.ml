type probe = {
  virtual_time : (unit -> float) option;
  finish_tag : (int -> float) option;
  credit : (int -> int * int * int) option;
  lag_sum : (unit -> int) option;
  work_conserving : bool;
}

let no_probe =
  {
    virtual_time = None;
    finish_tag = None;
    credit = None;
    lag_sum = None;
    work_conserving = false;
  }

type carry = { lag : float; credit : int }

let carry_zero = { lag = 0.; credit = 0 }

type handoff = {
  export : flow:int -> carry;
  import : flow:int -> carry -> carry;
}

type quiescent = {
  backlog_empty : unit -> bool;
  advance_quiescent : now:int -> slots:int -> int;
}

type queues = {
  take : flow:int -> Wfs_traffic.Packet.t Queue.t;
  give : flow:int -> slot:int -> Wfs_traffic.Packet.t Queue.t -> unit;
}

let fifo_queues ~queue ~on_backlogged ~on_emptied =
  {
    take =
      (fun ~flow ->
        let src = queue flow and q = Queue.create () in
        if not (Queue.is_empty src) then begin
          Queue.transfer src q;
          on_emptied flow
        end;
        q);
    give =
      (fun ~flow ~slot:_ q ->
        let dst = queue flow in
        if Queue.is_empty dst && not (Queue.is_empty q) then on_backlogged flow;
        Queue.transfer q dst);
  }

type instance = {
  name : string;
  enqueue : slot:int -> Wfs_traffic.Packet.t -> unit;
  select : slot:int -> predicted_good:(int -> bool) -> int option;
  head : int -> Wfs_traffic.Packet.t option;
  complete : flow:int -> unit;
  fail : flow:int -> unit;
  drop_head : flow:int -> unit;
  drop_expired : flow:int -> now:int -> bound:int -> Wfs_traffic.Packet.t list;
  queue_length : int -> int;
  on_slot_end : slot:int -> unit;
  probe : probe;
  handoff : handoff option;
  quiescent : quiescent option;
  queues : queues;
}
