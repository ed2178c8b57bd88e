type completion = { job : Job.t; start : float; finish : float }

let run ~capacity sched jobs =
  if capacity <= 0. then Wfs_util.Error.invalid "Server.run" "capacity must be > 0";
  let arrivals =
    List.stable_sort
      (fun (a : Job.t) (b : Job.t) -> Float.compare a.arrival b.arrival)
      jobs
  in
  let pending = ref arrivals in
  let completions = ref [] in
  let free_at = ref 0. in
  (* Deliver every arrival with time <= t to the scheduler. *)
  let deliver_until t =
    let rec loop () =
      match !pending with
      | (j : Job.t) :: rest when j.arrival <= t ->
          Fair_queue.enqueue sched j;
          pending := rest;
          loop ()
      | _ -> ()
    in
    loop ()
  in
  let rec step () =
    let next_arrival =
      match !pending with [] -> None | j :: _ -> Some j.Job.arrival
    in
    if Fair_queue.queued sched = 0 then
      match next_arrival with
      | None -> ()
      | Some a ->
          (* Idle until the next arrival. *)
          deliver_until a;
          if !free_at < a then free_at := a;
          step ()
    else begin
      let t = !free_at in
      deliver_until t;
      match Fair_queue.dequeue sched ~time:t with
      | None ->
          (* queued() > 0 guarantees a job; defensive. *)
          assert false
      | Some job ->
          let finish = t +. (job.Job.size /. capacity) in
          completions := { job; start = t; finish } :: !completions;
          free_at := finish;
          step ()
    end
  in
  (* Prime with the first arrival so the first dequeue sees it. *)
  (match !pending with [] -> () | j :: _ -> free_at := Float.max 0. j.Job.arrival);
  deliver_until !free_at;
  step ();
  List.rev !completions

(* Flow ids in first-completion order, tracked alongside the table so the
   result never depends on hash-bucket order. *)
let delays_by_flow completions =
  let tbl = Hashtbl.create 16 in
  let flows = ref [] in
  List.iter
    (fun { job; finish; _ } ->
      let delay = finish -. job.Job.arrival in
      (match Hashtbl.find_opt tbl job.Job.flow with
      | None ->
          flows := job.Job.flow :: !flows;
          Hashtbl.replace tbl job.Job.flow [ delay ]
      | Some prev -> Hashtbl.replace tbl job.Job.flow (delay :: prev)))
    completions;
  List.sort Int.compare !flows
  |> List.map (fun flow ->
         (flow, List.rev (Option.value ~default:[] (Hashtbl.find_opt tbl flow))))

let throughput_by_flow completions ~until =
  let tbl = Hashtbl.create 16 in
  let flows = ref [] in
  List.iter
    (fun { job; finish; _ } ->
      if finish <= until then
        match Hashtbl.find_opt tbl job.Job.flow with
        | None ->
            flows := job.Job.flow :: !flows;
            Hashtbl.replace tbl job.Job.flow job.Job.size
        | Some prev -> Hashtbl.replace tbl job.Job.flow (prev +. job.Job.size))
    completions;
  List.sort Int.compare !flows
  |> List.map (fun flow ->
         (flow, Option.value ~default:0. (Hashtbl.find_opt tbl flow)))
