let jain xs =
  let n = Array.length xs in
  if n = 0 then 1.0
  else begin
    let sum = Array.fold_left ( +. ) 0. xs in
    let sumsq = Array.fold_left (fun acc x -> acc +. (x *. x)) 0. xs in
    if sumsq <= 0. then 1.0 else sum *. sum /. (float_of_int n *. sumsq)
  end

let max_normalized_gap ~weights ~service =
  let n = Array.length weights in
  if n = 0 || Array.length service <> n then
    Wfs_util.Error.invalid "Fairness.max_normalized_gap" "length mismatch";
  let normalized = Array.mapi (fun i s -> s /. weights.(i)) service in
  let lo = Array.fold_left Float.min infinity normalized in
  let hi = Array.fold_left Float.max neg_infinity normalized in
  hi -. lo

type window = {
  index : int;
  start_slot : int;
  end_slot : int;
  flows : int;
  jain : float;
  gap : float;
  arrivals : int;
  delivered : int;
  dropped : int;
  backlog : int;
  loss : float;
}

(* --- collector.

   Tumbling windows over CUMULATIVE metrics snapshots: each observation
   carries the live accumulator, and a window closes on the first
   observation whose end-exclusive position reaches the next boundary.
   [backlogged.(i)] stays true while flow [i] had a positive backlog at
   every observation of the open window; the window's fairness covers
   those flows only (equation 1 constrains nothing else). --- *)

type t = {
  weights : float array;
  window : int;
  backlogged : bool array;
  mutable next_boundary : int;
  mutable win_start : int;
  mutable index : int;
  mutable base_arr : int;
  mutable base_del : int;
  mutable base_drop : int;
  base_flow_del : int array;
  mutable rev : window list;
}

let create ~weights ~window =
  let who = "Fairness.create" in
  if window < 1 then Wfs_util.Error.bad_config ~who "window must be >= 1";
  if Array.length weights = 0 then Wfs_util.Error.bad_config ~who "no flows";
  Array.iter
    (fun w -> if not (w > 0.) then Wfs_util.Error.bad_config ~who "weights must be > 0")
    weights;
  let n = Array.length weights in
  {
    weights;
    window;
    backlogged = Array.make n true;
    next_boundary = window;
    win_start = 0;
    index = 0;
    base_arr = 0;
    base_del = 0;
    base_drop = 0;
    base_flow_del = Array.make n 0;
    rev = [];
  }

(* Runs on every observation (every slot of a single-cell run): only flows
   still in scope are read, and nothing is allocated. *)
let note_backlog t metrics =
  let b = t.backlogged in
  for i = 0 to Array.length b - 1 do
    if b.(i) && Metrics.backlog_remaining metrics ~flow:i <= 0 then b.(i) <- false
  done

let close t ~end_slot ~metrics =
  let n = Array.length t.weights in
  let arr = ref 0 and del = ref 0 and drop = ref 0 and bkl = ref 0 in
  let norm = ref [] in
  for i = n - 1 downto 0 do
    arr := !arr + Metrics.arrivals metrics ~flow:i;
    drop := !drop + Metrics.dropped metrics ~flow:i;
    bkl := !bkl + Metrics.backlog_remaining metrics ~flow:i;
    let d = Metrics.delivered metrics ~flow:i in
    del := !del + d;
    if t.backlogged.(i) then
      norm := (float_of_int (d - t.base_flow_del.(i)) /. t.weights.(i)) :: !norm;
    t.base_flow_del.(i) <- d;
    t.backlogged.(i) <- true
  done;
  let norm = Array.of_list !norm in
  let flows = Array.length norm in
  let d_arr = !arr - t.base_arr and d_drop = !drop - t.base_drop in
  let w =
    {
      index = t.index;
      start_slot = t.win_start;
      end_slot;
      flows;
      jain = jain norm;
      gap =
        (if flows < 2 then 0.
         else
           Array.fold_left Float.max neg_infinity norm
           -. Array.fold_left Float.min infinity norm);
      arrivals = d_arr;
      delivered = !del - t.base_del;
      dropped = d_drop;
      backlog = !bkl;
      loss = (if d_arr = 0 then 0. else float_of_int d_drop /. float_of_int d_arr);
    }
  in
  t.rev <- w :: t.rev;
  t.index <- t.index + 1;
  t.win_start <- end_slot;
  t.base_arr <- !arr;
  t.base_del <- !del;
  t.base_drop <- !drop;
  t.next_boundary <- ((end_slot / t.window) + 1) * t.window

let observe t ~slot ~metrics =
  let pos = slot + 1 in
  if pos > t.win_start then begin
    note_backlog t metrics;
    if pos >= t.next_boundary then close t ~end_slot:pos ~metrics
  end

let flush t ~slot ~metrics =
  let pos = slot + 1 in
  if pos > t.win_start then begin
    note_backlog t metrics;
    close t ~end_slot:pos ~metrics
  end

let windows t = List.rev t.rev
let observer t slot metrics = observe t ~slot ~metrics

type summary = { sampled : int; mean_jain : float; worst_gap : float }

let summary windows =
  let sampled, jain_sum, worst_gap =
    List.fold_left
      (fun ((k, sum, worst) as acc) w ->
        if w.flows < 2 then acc
        else (k + 1, sum +. w.jain, if w.gap > worst then w.gap else worst))
      (0, 0., 0.) windows
  in
  if sampled = 0 then None
  else Some { sampled; mean_jain = jain_sum /. float_of_int sampled; worst_gap }
