module Json = Wfs_util.Json
module Error = Wfs_util.Error
module Spec = Wfs_runner.Spec
module M = Wfs_core.Metrics
module Instruments = Wfs_obs.Instruments
module Chaos = Wfs_chaos.Chaos
module Mux = Wfs_xray.Mux
module Causality = Wfs_xray.Causality
module Windowed = Wfs_xray.Windowed

type t = {
  metrics : M.t;
  homes : int array;
  n_cells : int;
  handoffs : int;
  instruments : Instruments.t;
  chaos : Instruments.t option;
  timeline : Chaos.event list;
}

let to_json r =
  Json.Obj
    ([
       ("metrics", M.to_json r.metrics);
       ( "homes",
         Json.Arr (List.map (fun c -> Json.Int c) (Array.to_list r.homes)) );
       ("n_cells", Json.Int r.n_cells);
       ("handoffs", Json.Int r.handoffs);
       ("instruments", Instruments.to_json r.instruments);
     ]
    @ (match r.chaos with
      | Some ins -> [ ("chaos", Instruments.to_json ins) ]
      | None -> [])
    @
    match r.timeline with
    | [] -> []
    | tl -> [ ("timeline", Json.Arr (List.map Chaos.event_to_json tl)) ])

(* [Some] of every decoded element, or [None] when any element fails. *)
let all_of decode items =
  List.fold_right
    (fun v acc ->
      match (decode v, acc) with
      | Some x, Some tl -> Some (x :: tl)
      | _ -> None)
    items (Some [])

let of_json j =
  let ( let* ) = Option.bind in
  let field name decode = Option.bind (Json.member name j) decode in
  let optional name decode =
    match Json.member name j with
    | None -> Some None
    | Some v -> Option.map Option.some (decode v)
  in
  let* metrics = field "metrics" M.of_json in
  let list_of decode v = Option.bind (Json.to_list v) (all_of decode) in
  let* homes = field "homes" (list_of Json.to_int) in
  let* n_cells = field "n_cells" Json.to_int in
  let* handoffs = field "handoffs" Json.to_int in
  let* instruments = field "instruments" Instruments.of_json in
  let* chaos = optional "chaos" Instruments.of_json in
  let* timeline = optional "timeline" (list_of Chaos.event_of_json) in
  Some
    {
      metrics;
      homes = Array.of_list homes;
      n_cells;
      handoffs;
      instruments;
      chaos;
      timeline = Option.value timeline ~default:[];
    }

type artifacts = {
  trace_out : string option;
  trace_csv : string option;
  trace_stride : int;
  causality : string option;
  windows : string option;
  window_slots : int;
}

let no_artifacts =
  {
    trace_out = None;
    trace_csv = None;
    trace_stride = 1;
    causality = None;
    windows = None;
    window_slots = 1000;
  }

let wants a =
  List.exists Option.is_some
    [ a.trace_out; a.trace_csv; a.causality; a.windows ]

(* Per-cell tracing: each cell's probe writes to that cell's own part file
   during the parallel phase; rosters and causality events are recorded
   only from the sequential barrier.  The merge after the run is
   positional, so traced runs need no --jobs restriction. *)
let trace_mux a (sp : Spec.t) =
  match (a.trace_out, a.trace_csv) with
  | None, None -> None
  | Some part_base, _ | None, Some part_base ->
      let cells = match sp.topo with Some tp -> tp.Spec.cells | None -> 1 in
      Some
        (Mux.create ~stride:a.trace_stride
           ~params:
             [
               ("sched", Json.Str sp.sched);
               ("seed", Json.Int sp.seed);
               ("horizon", Json.Int sp.horizon);
             ]
           ~cells ~part_base ())

let tap_of mux cause =
  match (mux, cause) with
  | None, None -> None
  | _ ->
      Some
        {
          Cell.on_roster =
            (fun ~cell ~slot ~gids ->
              Option.iter (fun m -> Mux.note_roster m ~cell ~slot ~gids) mux);
          probe =
            (fun ~cell ~n_flows sched ->
              Option.map (fun m -> Mux.probe m ~cell ~n_flows sched) mux);
          on_carry =
            (fun ~cell ~slot ~gid ~carried ~accepted ->
              Option.iter
                (fun c ->
                  Causality.record c
                    (Causality.Carry
                       { slot; flow = gid; cell; carried; accepted }))
                cause);
        }

(* Run one spec to completion: journal barriers, artifacts, result line. *)
let run_spec ~jobs ~credit_limit ~debit_limit ~invariants ~fast_path ~artifacts
    ~journal (sp : Spec.t) =
  let key = Spec.to_string sp in
  let mux = trace_mux artifacts sp in
  let cause = Option.map (fun _ -> Causality.create ()) artifacts.causality in
  match
    let t =
      Topology.of_spec ~credit_limit ~debit_limit ~invariants ~fast_path
        ?tap:(tap_of mux cause) ?causality:cause sp
    in
    (* Windowed aggregation samples the cumulative picture at each barrier
       — the fast path stays compressed, and [start_slot]/[end_slot]
       record the span the sampling actually covered. *)
    let wcoll =
      Option.map
        (fun _ ->
          Windowed.create ~weights:(Topology.weights t)
            ~window:artifacts.window_slots)
        artifacts.windows
    in
    let on_barrier =
      match (journal, wcoll) with
      | None, None -> None
      | _ ->
          Some
            (fun ~slot ->
              Option.iter
                (fun j ->
                  Topo_journal.barrier j ~spec:key ~slot
                    (Topology.snapshot t ~slot))
                journal;
              Option.iter
                (fun w ->
                  Windowed.observe w ~slot:(slot - 1)
                    ~metrics:(Topology.peek_metrics t))
                wcoll)
    in
    Topology.run ~jobs ?on_barrier t;
    let r =
      {
        metrics = Topology.metrics t;
        homes = Topology.homes t;
        n_cells = Topology.n_cells t;
        handoffs = Topology.handoffs t;
        instruments = Topology.instruments t;
        chaos = Topology.chaos_instruments t;
        timeline = Topology.fault_timeline t;
      }
    in
    (match (wcoll, artifacts.windows) with
    | Some w, Some path ->
        Windowed.flush w ~slot:(sp.horizon - 1) ~metrics:r.metrics;
        Windowed.write ~path ~window:artifacts.window_slots (Windowed.windows w)
    | _ -> ());
    (match (cause, artifacts.causality) with
    | Some c, Some path -> Causality.write ~path (Causality.events c)
    | _ -> ());
    Option.iter
      (fun m ->
        Mux.finish m ~n_flows:(Topology.n_flows t) ?jsonl:artifacts.trace_out
          ?csv:artifacts.trace_csv ())
      mux;
    Option.iter (fun j -> Topo_journal.finish j ~spec:key (to_json r)) journal;
    r
  with
  | r -> Ok r
  | exception Error.Error e ->
      Option.iter Mux.abort mux;
      Error e

let run ?(credit_limit = 4) ?(debit_limit = 4) ?(invariants = false)
    ?(fast_path = false) ?(artifacts = no_artifacts) ?resume ?fault_timeline
    ~jobs specs =
  if wants artifacts && List.compare_length_with specs 1 <> 0 then
    Error.invalidf "Topo_run.run"
      "per-run artifacts need exactly one spec, got %d" (List.length specs);
  let journal =
    Option.map
      (fun path ->
        Topo_journal.resume ~path
          ~params:
            [
              ("credit", Json.Int credit_limit);
              ("debit", Json.Int debit_limit);
              ("invariants", Json.Bool invariants);
              ("fast_path", Json.Bool fast_path);
            ])
      resume
  in
  let outcomes =
    Fun.protect
      ~finally:(fun () -> Option.iter Topo_journal.close journal)
      (fun () ->
        List.map
          (fun sp ->
            let key = Spec.to_string sp in
            match Option.bind journal (Topo_journal.replayed ~spec:key) with
            | Some payload when not (wants artifacts) -> (
                match of_json payload with
                | Some r -> Ok r
                | None ->
                    Error.bad_spec ~who:"Topo_run.run"
                      "unreadable topo-journal result"
                      ~context:[ ("spec", key) ])
            | Some _ | None ->
                run_spec ~jobs ~credit_limit ~debit_limit ~invariants
                  ~fast_path ~artifacts ~journal sp)
          specs)
  in
  Option.iter
    (fun path ->
      Chaos.write_timeline ~path
        (List.concat
           (List.map2
              (fun sp -> function
                | Ok r -> [ (Spec.to_string sp, r.timeline) ]
                | Error _ -> [])
              specs outcomes)))
    fault_timeline;
  outcomes
