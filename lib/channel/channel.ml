type state = Good | Bad

let state_is_good = function Good -> true | Bad -> false

type t = {
  label : string;
  step : int -> state;
  bulk : (int -> int -> state) option;
  static : bool;
  mutable current : state option;
  mutable previous : state;
  mutable last_slot : int;
}

let make ~label ?(initial = Good) ?bulk step =
  {
    label;
    step;
    bulk;
    static = false;
    current = None;
    previous = initial;
    last_slot = -1;
  }

let make_const ~label st =
  {
    label;
    step = (fun _ -> st);
    bulk = None;
    static = true;
    current = None;
    previous = st;
    last_slot = -1;
  }

let is_static t = t.static

let advance t ~slot =
  if slot <= t.last_slot then
    Wfs_util.Error.invalidf "Channel.advance" "slot %d not after %d" slot
      t.last_slot;
  (match t.current with Some s -> t.previous <- s | None -> ());
  let s = t.step slot in
  t.current <- Some s;
  t.last_slot <- slot;
  s

let advance_run t ~from ~slot =
  if from <= t.last_slot then
    Wfs_util.Error.invalidf "Channel.advance_run" "from %d not after %d" from
      t.last_slot;
  if slot < from then
    Wfs_util.Error.invalidf "Channel.advance_run" "slot %d before from %d" slot
      from;
  if slot = from then advance t ~slot
  else begin
    (* Slots [from .. slot-1] feed [previous]; only the last state of that
       span is observable, so a [bulk] hook may run them without the
       per-slot bookkeeping — it must consume exactly the stepwise draws. *)
    let prev =
      match t.bulk with
      | Some bulk -> bulk from (slot - 1)
      | None ->
          let s = ref t.previous in
          for i = from to slot - 1 do
            s := t.step i
          done;
          !s
    in
    t.previous <- prev;
    let s = t.step slot in
    t.current <- Some s;
    t.last_slot <- slot;
    s
  end

let state t =
  match t.current with
  | Some s -> s
  | None -> Wfs_util.Error.invalid "Channel.state" "not advanced yet"

let previous_state t = t.previous
let label t = t.label
