type discipline = Wfq | Wf2q | Wf2q_plus

(* [start]/[finish] are the GPS tags stamped at arrival; unused by
   Wf2q_plus, which tags the head of line instead. *)
type tagged = { job : Job.t; start : float; finish : float }

type t = {
  discipline : discipline;
  gps : Gps.t;
  weights : float array;
  total_weight : float;
  queues : tagged Queue.t array;
  start : float array;  (* head-of-line tags, valid while the queue is nonempty *)
  finish : float array;  (* ... and, once it empties, the last head's finish *)
  mutable v : float;  (* Wf2q_plus's self-clocked virtual time *)
}

let eps = 1e-9

let create discipline ~capacity flows =
  let n = Array.length flows in
  {
    discipline;
    gps = Gps.create ~capacity flows;
    weights = Array.map (fun (f : Flow.t) -> f.weight) flows;
    total_weight = Flow.total_weight flows;
    queues = Array.init n (fun _ -> Queue.create ());
    start = Array.make n 0.;
    finish = Array.make n 0.;
    v = 0.;
  }

(* Tag the head of [flow]'s queue, if any; Wf2q_plus starts it at
   [start_at]. *)
let tag_head t flow ~start_at =
  match Queue.peek_opt t.queues.(flow) with
  | None -> ()
  | Some h -> (
      match t.discipline with
      | Wfq | Wf2q ->
          t.start.(flow) <- h.start;
          t.finish.(flow) <- h.finish
      | Wf2q_plus ->
          t.start.(flow) <- start_at;
          t.finish.(flow) <- start_at +. (h.job.size /. t.weights.(flow)))

let enqueue t (job : Job.t) =
  let flow = job.flow in
  if flow < 0 || flow >= Array.length t.queues then
    Wfs_util.Error.unknown_flow "Fair_queue.enqueue";
  let start, finish =
    match t.discipline with
    | Wfq | Wf2q -> Gps.arrive t.gps ~time:job.arrival ~flow ~size:job.size
    | Wf2q_plus -> (0., 0.)
  in
  let was_empty = Queue.is_empty t.queues.(flow) in
  Queue.push { job; start; finish } t.queues.(flow);
  if was_empty then tag_head t flow ~start_at:(Float.max t.v t.finish.(flow))

(* The backlogged flow with the smallest [key], restricted to heads with
   [start <= v]; ties to the lowest id; -1 when there is none. *)
let pick t ~v (key : float array) =
  let best = ref (-1) in
  Array.iteri
    (fun i q ->
      if
        (not (Queue.is_empty q))
        && t.start.(i) <= v +. eps
        && (!best < 0 || key.(i) < key.(!best))
      then best := i)
    t.queues;
  !best

let dequeue t ~time =
  let v =
    match t.discipline with
    | Wfq ->
        Gps.advance_to t.gps time;
        infinity
    | Wf2q -> Gps.virtual_time t.gps ~time
    | Wf2q_plus -> t.v
  in
  let flow =
    match pick t ~v t.finish with -1 -> pick t ~v:infinity t.start | f -> f
  in
  match if flow < 0 then None else Queue.take_opt t.queues.(flow) with
  | None -> None
  | Some { job; _ } ->
      tag_head t flow ~start_at:t.finish.(flow);
      if t.discipline = Wf2q_plus then begin
        t.v <- t.v +. (job.size /. t.total_weight);
        let m = pick t ~v:infinity t.start in
        if m >= 0 && t.start.(m) > t.v then t.v <- t.start.(m)
      end;
      Some job

let queued t = Array.fold_left (fun acc q -> acc + Queue.length q) 0 t.queues
let gps t = t.gps
let virtual_time t = t.v
