module Core = Wfs_core

let setups_of (spec : Spec.t) =
  match spec.scenario with
  | Spec.Example { n; sum } -> begin
      let seed = spec.seed in
      match n with
      | 1 -> Core.Presets.example1 ?sum ~seed ()
      | 2 -> Core.Presets.example2 ?sum ~seed ()
      | 3 -> Core.Presets.example3 ~seed ()
      | 4 -> Core.Presets.example4 ~seed ()
      | 5 -> Core.Presets.example5 ~seed ()
      | 6 -> Core.Presets.example6 ~seed ()
      | n ->
          (* Spec.example validates 1-6; an out-of-range n here means the
             record was built by hand. *)
          Wfs_util.Error.invalidf "Exec.run" "unknown example %d" n
    end
  | Spec.File path ->
      let sc = Core.Scenario.load ~seed:spec.seed ~horizon:spec.horizon path in
      sc.Core.Scenario.setups

let run ?credit_limit ?debit_limit ?limits ?observer ?trace ?probe ?profiler
    ?histograms ?invariants ?fast_path ?skip_stats (spec : Spec.t) =
  (match spec.topo with
  | Some _ ->
      (* Exec drives exactly one cell; the multi-cell driver lives a layer
         up (Wfs_topo depends on this library, not the reverse). *)
      Wfs_util.Error.invalid "Exec.run"
        "spec has a topology clause; run it through Wfs_topo.Topology"
  | None -> ());
  let entry = Core.Registry.get spec.sched in
  let setups = setups_of spec in
  let flows = Core.Presets.flows_of setups in
  let sched = entry.Core.Registry.make ?credit_limit ?debit_limit ?limits flows in
  (* The scheduler instance exists only here, so a probe arrives as a
     builder: the caller says how to watch, this function says what. *)
  let slot_probe = Option.map (fun build -> build sched) probe in
  Core.Simulator.run
    (Core.Simulator.config ~predictor:entry.Core.Registry.predictor ?observer
       ?trace ?slot_probe ?profiler ?histograms ?invariants ?fast_path
       ?skip_stats ~horizon:spec.horizon setups)
    sched

(* The flight recorder is a capacity-bounded Tracelog: cheap enough to
   leave on for whole sweeps, and when a run dies its last [capacity]
   events ride along in the error context, so the runner's failure table
   shows what the scheduler was doing right before the fault. *)
let flight_context tr =
  let events = Core.Tracelog.events tr in
  [
    ( "flight-recorder-events",
      string_of_int (Core.Tracelog.length tr) );
    ( "flight-recorder",
      String.concat " | " (List.map Core.Tracelog.entry_to_string events) );
  ]

(* The slot loop is horizon-bounded, so runaway cost is declared up front:
   a job whose slot budget exceeds the cap is refused instead of watched. *)
let budget_refusal ~who ?max_slots ~slots context =
  match max_slots with
  | Some cap when slots > cap ->
      Some
        (Wfs_util.Error.v Wfs_util.Error.Sim_fault ~who "slot budget exceeded"
           ~context:(context @ [ ("max_slots", string_of_int cap) ]))
  | Some _ | None -> None

let run_outcome ?credit_limit ?debit_limit ?limits ?observer ?trace ?probe
    ?profiler ?flight_recorder ?histograms ?invariants ?fast_path ?skip_stats
    ?max_slots (spec : Spec.t) =
  let module Error = Wfs_util.Error in
  let spec_context = [ ("spec", Spec.to_string spec) ] in
  let recorder =
    match (flight_recorder, trace) with
    | None, _ -> Ok None
    | Some _, Some _ ->
        Error
          (Error.v Error.Bad_config ~who:"Exec.run_outcome"
             "flight_recorder and trace are mutually exclusive"
             ~context:spec_context)
    | Some cap, None -> (
        match Core.Tracelog.create ~capacity:cap () with
        | tr -> Ok (Some tr)
        | exception Invalid_argument msg ->
            Error
              (Error.v Error.Bad_config ~who:"Exec.run_outcome" msg
                 ~context:spec_context))
  in
  let refusal =
    budget_refusal ~who:"Exec.run_outcome" ?max_slots ~slots:spec.horizon
      (spec_context @ [ ("horizon", string_of_int spec.horizon) ])
  in
  match (recorder, refusal) with
  | Error e, _ | Ok _, Some e -> Error e
  | Ok recorder, None -> (
      let trace =
        match recorder with Some tr -> Some tr | None -> trace
      in
      let recorder_context () =
        match recorder with None -> [] | Some tr -> flight_context tr
      in
      match
        run ?credit_limit ?debit_limit ?limits ?observer ?trace ?probe
          ?profiler ?histograms ?invariants ?fast_path ?skip_stats spec
      with
      | metrics -> Ok metrics
      | exception Core.Scenario.Parse_error { line; message } ->
          Error
            (Error.v Error.Bad_spec ~who:"Exec.run_outcome" message
               ~context:(spec_context @ [ ("line", string_of_int line) ]))
      | exception exn ->
          let backtrace = Printexc.get_raw_backtrace () in
          Error
            (Error.add_context
               (spec_context @ recorder_context ())
               (Error.of_exn ~who:"Exec.run_outcome" ~backtrace exn)))

let replicas ~jobs ?retries ~seeds run specs =
  if seeds < 1 then
    Wfs_util.Error.invalidf "Exec.replicas" "seeds must be >= 1, got %d" seeds;
  let units =
    Array.of_list
      (List.concat_map
         (fun (sp : Spec.t) ->
           List.init seeds (fun k -> Spec.with_seed (sp.seed + k) sp))
         specs)
  in
  let outcomes = Pool.map_outcomes ~jobs ?retries run units in
  List.mapi (fun i _ -> Array.sub outcomes (i * seeds) seeds) specs
