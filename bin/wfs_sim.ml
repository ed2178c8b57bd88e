(* Command-line driver: run any paper example, scenario file, or run spec
   with any registered scheduler.

   Examples:
     wfs_sim -e 1 -a all                    # Table-1-style grid
     wfs_sim -e 4 -a swapa -k predicted     # one variant of Example 4
     wfs_sim -e 1 -b 1.0 --csv              # memoryless channel, CSV output
     wfs_sim -e 6 --credit 2 --debit 0      # Example 6 with tighter caps
     wfs_sim -a WPS,IWFQ-I,CIF-Q            # registry names work directly
     wfs_sim --spec 'example:1?sum=0.5 | WPS | seed=7 | horizon=50000'
     wfs_sim -e 1 --seeds 5 --jobs 4        # 5 replicas/run, mean±CI cells

   Schedulers are resolved through Wfs_core.Registry (see --list) and runs
   are typed Wfs_runner.Spec values.  This file only parses, validates and
   renders: single-cell replicas run through Wfs_runner.Exec.replicas /
   run_outcome, multi-cell runs (and --resume) through Wfs_topo.Topo_run —
   output is identical for every --jobs value. *)

module Registry = Wfs_core.Registry
module Spec = Wfs_runner.Spec
module T = Wfs_util.Tablefmt
module M = Wfs_core.Metrics

type output = Table | Csv

(* Refuse a command line with exit 2. *)
let usage fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "wfs_sim: %s\n" msg;
      exit 2)
    fmt

(* Map the legacy family names (-a wrr -k both) onto registry names; pass
   anything else through the registry itself, so every canonical name and
   alias — "WPS", "IWFQ-I", "CIF-Q", comma-separated lists — works too. *)
let resolve_algorithms algo info =
  let infos =
    match info with
    | "ideal" -> [ "I" ]
    | "predicted" -> [ "P" ]
    | "both" -> [ "I"; "P" ]
    | s -> invalid_arg ("unknown knowledge: " ^ s)
  in
  let variants base = List.map (fun s -> base ^ "-" ^ s) infos in
  match String.lowercase_ascii algo with
  | "all" -> List.map (fun e -> e.Registry.name) (Registry.table1_extended ())
  | "blind" -> [ "Blind WRR" ]
  | "wrr" -> variants "WRR"
  | "noswap" -> variants "NoSwap"
  | "swapw" -> variants "SwapW"
  | "swapa" -> variants "SwapA"
  | "iwfq" -> variants "IWFQ"
  | "cifq" -> variants "CIF-Q"
  | "csdps" -> [ "CSDPS" ]
  | _ ->
      (* Registry names/aliases, possibly comma-separated.  get raises with
         the known-name list on a typo. *)
      String.split_on_char ',' algo
      |> List.map (fun name -> (Registry.get (String.trim name)).Registry.name)

(* --- rendering shared by single-cell and topology runs --- *)

(* The main result table: aligned text, or CSV on stdout. *)
let print_rows ~output ~title ~columns rows =
  match output with
  | Table ->
      let t = T.create ~title ~columns in
      List.iter (T.add_row t) rows;
      T.print t
  | Csv ->
      print_endline (String.concat "," columns);
      List.iter (fun r -> print_endline (String.concat "," r)) rows

(* Side tables (skip telemetry, profiler phases): stderr under --csv, so
   the golden-gated stdout stays byte-identical and parseable. *)
let print_side ~output t =
  match output with
  | Table -> T.print t
  | Csv -> output_string stderr (T.render t)

(* jobs and wall_clock_s are normalised (1 / 0.) so the artifact is
   byte-identical for every --jobs value: registries merge in run order
   regardless of which domain ran what. *)
let write_metrics ~path ~(first : Spec.t) ~seeds ~runs ~slots tables =
  Wfs_runner.Artifact.write ~path
    (Wfs_runner.Artifact.v ~horizon:first.horizon ~seed:first.seed ~seeds
       ~jobs:1 ~runs ~slots ~wall_clock_s:0. ~tables)

(* Failed runs lose only their own rows: their typed errors are listed on
   stderr (so piped --csv output stays parseable) and the process exits 3
   instead of aborting mid-sweep. *)
let report_failures heading = function
  | [] -> ()
  | failures ->
      Printf.eprintf "\n=== %s (%d) ===\n" heading (List.length failures);
      List.iter
        (fun (key, e) ->
          Printf.eprintf "  %s\n    %s\n" key (Wfs_util.Error.to_string e))
        failures;
      exit 3

let instrument_table ~title registries =
  Wfs_runner.Artifact.table_of
    (Wfs_obs.Instruments.to_table ~title
       (Wfs_obs.Instruments.merge_all registries))

(* --- single-cell runs --- *)

(* What one replica hands back for rendering. *)
type replica = {
  metrics : M.t;
  fairness : Wfs_core.Fairness.summary option;
      (* --fairness: None when not asked or no window had two flows in scope *)
  instruments : Wfs_obs.Instruments.t option;  (* for --metrics-out *)
  skip : Wfs_core.Skip_stats.t option;  (* fast-path skip telemetry *)
}

(* Run every (label, spec) with [seeds] replicas crash-isolated on the
   domain pool and print one row per flow per label.  A replica that fails
   (raise, or slot budget refusal) loses only its own label. *)
let run_and_render ~title ~output ~jobs ~seeds ~credit ~debit ~fairness
    ~retries ~max_slots ~invariants ~fast_path ~flow_base ~metrics_out
    ~trace_out ~trace_csv ~trace_stride ~profile ~flight_recorder
    ~windows_out ~window_slots labeled_specs =
  let specs = List.map snd labeled_specs in
  let runs = List.length specs * seeds in
  let tracing = trace_out <> None || trace_csv <> None in
  if tracing && runs <> 1 then
    usage
      "--trace-out/--trace-csv need exactly one run (one algorithm, --seeds \
       1); got %d runs"
      runs;
  if windows_out <> None && runs <> 1 then
    usage
      "--windows needs exactly one run (one algorithm, --seeds 1); got %d runs"
      runs;
  (* The spec's flows, only for the observers that need their count or
     weights; Exec builds the run's own. *)
  let flows sp = Wfs_core.Presets.flows_of (Wfs_runner.Exec.setups_of sp) in
  let sinks =
    match specs with
    | [ (sp : Spec.t) ] when tracing ->
        let hdr =
          Wfs_obs.Trace.header ~stride:trace_stride
            ~params:
              [
                ("sched", Wfs_util.Json.Str sp.sched);
                ("seed", Wfs_util.Json.Int sp.seed);
                ("horizon", Wfs_util.Json.Int sp.horizon);
              ]
            ~n_flows:(Array.length (flows sp))
            ()
        in
        List.filter_map Fun.id
          [
            Option.map (fun p -> Wfs_obs.Sink.jsonl ~path:p hdr) trace_out;
            Option.map (fun p -> Wfs_obs.Sink.csv ~path:p hdr) trace_csv;
          ]
    | _ -> []
  in
  let profiler = if profile then Some (Wfs_obs.Profiler.create ()) else None in
  let run (sp : Spec.t) =
    let flows = lazy (flows sp) in
    let instruments =
      Option.map (fun _ -> Wfs_obs.Instruments.create ()) metrics_out
    in
    let probe =
      if instruments = None && sinks = [] then None
      else
        Some
          (fun sched ->
            Wfs_obs.Probe.create ~stride:trace_stride ~sinks ?instruments
              ~n_flows:(Array.length (Lazy.force flows))
              sched)
    in
    (* One eq.-(1) window collector serves --fairness (its summary) and
       --windows (its stream).  It observes every slot here, which
       degenerates the fast path; topology runs observe at barriers
       instead and stay compressed. *)
    let wcoll =
      if fairness || windows_out <> None then
        Some
          (Wfs_core.Fairness.create ~window:window_slots
             ~weights:
               (Array.map
                  (fun (f : Wfs_core.Params.flow) -> f.weight)
                  (Lazy.force flows)))
      else None
    in
    (* Skip telemetry records at window granularity and is deliberately NOT
       part of the fast path's degeneration condition: a --fast-path run
       stays compressed while counting what it skipped. *)
    let skip =
      if fast_path then Some (Wfs_core.Skip_stats.create ()) else None
    in
    Wfs_runner.Exec.run_outcome ~credit_limit:credit ~debit_limit:debit
      ?observer:(Option.map Wfs_core.Fairness.observer wcoll) ?probe
      ?profiler:(Option.map Wfs_obs.Profiler.hooks profiler)
      ?flight_recorder ?skip_stats:skip ~invariants ~fast_path ?max_slots sp
    |> Result.map (fun metrics ->
           let windows =
             Option.map
               (fun w ->
                 Wfs_core.Fairness.flush w ~slot:(sp.horizon - 1) ~metrics;
                 Wfs_core.Fairness.windows w)
               wcoll
           in
           (match (windows, windows_out) with
           | Some ws, Some path ->
               Wfs_xray.Windowed.write ~path ~window:window_slots ws
           | _ -> ());
           {
             metrics;
             fairness =
               (if fairness then Option.bind windows Wfs_core.Fairness.summary
                else None);
             instruments;
             skip;
           })
  in
  let outcomes = Wfs_runner.Exec.replicas ~jobs ~retries ~seeds run specs in
  List.iter Wfs_obs.Sink.close sinks;
  let columns =
    [ "algorithm"; "flow"; "mean_delay"; "loss"; "max_delay"; "stddev"; "thpt" ]
    @ if fairness then [ "jain"; "worst_gap" ] else []
  in
  let failures = ref [] in
  let rows =
    List.map2
      (fun (label, (sp : Spec.t)) reps_out ->
        match
          Array.to_list reps_out
          |> List.filter_map (function Ok r -> Some r | Error _ -> None)
        with
        | reps when List.compare_length_with reps seeds = 0 ->
            let agg ?decimals f =
              T.cell_of_samples ?decimals (List.map f reps)
            in
            List.init (M.n_flows (List.hd reps).metrics) (fun i ->
                [
                  label;
                  string_of_int (i + flow_base);
                  agg (fun r -> M.mean_delay r.metrics ~flow:i);
                  agg ~decimals:4 (fun r -> M.loss r.metrics ~flow:i);
                  agg (fun r -> M.max_delay r.metrics ~flow:i);
                  agg (fun r -> M.stddev_delay r.metrics ~flow:i);
                  agg ~decimals:4 (fun r ->
                      M.throughput r.metrics ~flow:i ~slots:sp.horizon);
                ]
                @
                if not fairness then []
                else
                  (* A replica with no window to score leaves nothing to
                     average: the cell reads "-" rather than a vacuous 1/0. *)
                  match List.filter_map (fun r -> r.fairness) reps with
                  | ss when List.compare_lengths ss reps = 0 ->
                      [
                        T.cell_of_samples ~decimals:4
                          (List.map (fun s -> s.Wfs_core.Fairness.mean_jain) ss);
                        T.cell_of_samples
                          (List.map (fun s -> s.Wfs_core.Fairness.worst_gap) ss);
                      ]
                  | _ -> [ "-"; "-" ])
        | _ ->
            Array.iteri
              (fun k -> function
                | Error e ->
                    failures :=
                      (Spec.to_string (Spec.with_seed (sp.seed + k) sp), e)
                      :: !failures
                | Ok _ -> ())
              reps_out;
            [])
      labeled_specs outcomes
    |> List.concat
  in
  print_rows ~output ~title ~columns rows;
  let ok =
    List.concat_map Array.to_list outcomes
    |> List.filter_map (function Ok r -> Some r | Error _ -> None)
  in
  (* Fast-path skip telemetry, merged across runs in run order. *)
  let skip_merged =
    Wfs_xray.Skip_telemetry.merge_all (List.filter_map (fun r -> r.skip) ok)
  in
  Option.iter
    (fun k -> print_side ~output (Wfs_xray.Skip_telemetry.to_table k))
    skip_merged;
  let slots =
    seeds * List.fold_left (fun acc (sp : Spec.t) -> acc + sp.horizon) 0 specs
  in
  (match (metrics_out, List.filter_map (fun r -> r.instruments) ok) with
  | None, _ | Some _, [] -> ()  (* every run failed; see the failure table *)
  | Some path, registries ->
      write_metrics ~path ~first:(List.hd specs) ~seeds ~runs ~slots
        (instrument_table ~title:"probe instruments" registries
        :: Option.to_list
             (Option.map
                (fun k ->
                  Wfs_runner.Artifact.table_of
                    (Wfs_xray.Skip_telemetry.to_table k))
                skip_merged)));
  Option.iter
    (fun prof -> print_side ~output (Wfs_obs.Profiler.phase_table ~slots prof))
    profiler;
  report_failures "Failed runs" (List.rev !failures)

(* --- topology runs --- *)

(* Multi-cell runs go through Wfs_topo.Topo_run instead of the replica
   pool: cells shard over the domain pool inside one run, handoffs apply
   at epoch barriers, and the rendered table is global-flow-id indexed
   with a home-cell column.  Byte-identical for every --jobs value.  A
   spec that fails loses only its own rows. *)
let render_topo ~title ~output ~jobs ~credit ~debit ~invariants ~fast_path
    ~metrics_out ~resume ~fault_timeline ~artifacts labeled_specs =
  let outcomes =
    Wfs_topo.Topo_run.run ~credit_limit:credit ~debit_limit:debit ~invariants
      ~fast_path ~artifacts ?resume ?fault_timeline ~jobs
      (List.map snd labeled_specs)
  in
  let runs, failures =
    List.partition_map
      (fun ((label, sp), outcome) ->
        match outcome with
        | Ok r -> Left (label, sp, r)
        | Error e -> Right (Spec.to_string sp, e))
      (List.combine labeled_specs outcomes)
  in
  let rows =
    List.concat_map
      (fun (label, (sp : Spec.t), (r : Wfs_topo.Topo_run.t)) ->
        (* Spec labels may carry the topology clause's commas: quote them
           so the CSV stays parseable. *)
        let label =
          if output = Csv && String.contains label ',' then "\"" ^ label ^ "\""
          else label
        in
        let m = r.metrics in
        List.init (M.n_flows m) (fun gid ->
            [
              label;
              string_of_int gid;
              string_of_int r.homes.(gid);
              T.cell_of_float (M.mean_delay m ~flow:gid);
              T.cell_of_float ~decimals:4 (M.loss m ~flow:gid);
              T.cell_of_float (M.max_delay m ~flow:gid);
              T.cell_of_float (M.stddev_delay m ~flow:gid);
              T.cell_of_float ~decimals:4
                (M.throughput m ~flow:gid ~slots:sp.horizon);
            ]))
      runs
  in
  print_rows ~output ~title
    ~columns:
      [
        "algorithm"; "flow"; "cell"; "mean_delay"; "loss"; "max_delay";
        "stddev"; "thpt";
      ]
    rows;
  (match (metrics_out, runs) with
  | None, _ | Some _, [] -> ()  (* every spec failed; see the failure table *)
  | Some path, ((_, first, _) :: _ as runs) ->
      let results = List.map (fun (_, _, r) -> r) runs in
      (* Chaos telemetry rides along as a second table only when some spec
         ran with an active fault plan, so zero-fault artifacts stay
         byte-identical to pre-chaos ones. *)
      let chaos =
        match
          List.filter_map (fun (r : Wfs_topo.Topo_run.t) -> r.chaos) results
        with
        | [] -> []
        | regs -> [ instrument_table ~title:"chaos instruments" regs ]
      in
      write_metrics ~path ~first ~seeds:1 ~runs:(List.length runs)
        ~slots:
          (List.fold_left
             (fun acc (_, (sp : Spec.t), (r : Wfs_topo.Topo_run.t)) ->
               acc + (sp.horizon * r.n_cells))
             0 runs)
        (instrument_table ~title:"topology instruments"
           (List.map (fun (r : Wfs_topo.Topo_run.t) -> r.instruments) results)
        :: chaos));
  report_failures "Failed topology runs" failures

let title_info ~seeds ~seed ~horizon =
  if seeds > 1 then
    Printf.sprintf "seeds=%d..%d, horizon=%d slots" seed (seed + seeds - 1)
      horizon
  else Printf.sprintf "seed=%d, horizon=%d slots" seed horizon

let list_schedulers () =
  let t = T.create ~title:"Registered schedulers" ~columns:[ "name"; "aliases" ] in
  List.iter
    (fun name ->
      let e = Registry.get name in
      T.add_row t [ e.Registry.name; String.concat ", " e.Registry.aliases ])
    (Registry.names ());
  T.print t

(* Artifact validation (--check-trace / --check-metrics): load, summarise,
   exit.  CI runs these on the files it just produced. *)
let check_trace path =
  match Wfs_obs.Trace.load ~path with
  | Ok c ->
      Printf.printf "%s: ok (%d flow(s), stride %d, %d sample(s))\n" path
        c.Wfs_obs.Trace.hdr.Wfs_obs.Trace.n_flows
        c.Wfs_obs.Trace.hdr.Wfs_obs.Trace.stride
        (List.length c.Wfs_obs.Trace.samples);
      exit 0
  | Error e ->
      Printf.eprintf "wfs_sim: %s: %s\n" path (Wfs_util.Error.to_string e);
      exit 2

let check_metrics path =
  match Wfs_runner.Artifact.read path with
  | Ok a ->
      Printf.printf "%s: ok (%s, %d table(s), %d run(s), %d slots)\n" path
        a.Wfs_runner.Artifact.schema
        (List.length a.Wfs_runner.Artifact.tables)
        a.Wfs_runner.Artifact.runs a.Wfs_runner.Artifact.slots;
      exit 0
  | Error msg ->
      Printf.eprintf "wfs_sim: %s: %s\n" path msg;
      exit 2

let at_least flag min = function
  | Some n when n < min -> usage "%s must be >= %d, got %d" flag min n
  | _ -> ()

let main_checked example seed horizon sum credit debit csv fairness algo info
    scenario specs seeds jobs list retries max_slots invariants fast_path
    metrics_out trace_out trace_csv trace_stride profile flight_recorder cells
    mobility epoch faults resume fault_timeline causality windows window_slots
    check_trace_path check_metrics_path () =
  (match check_trace_path with Some p -> check_trace p | None -> ());
  (match check_metrics_path with Some p -> check_metrics p | None -> ());
  let output = if csv then Csv else Table in
  at_least "--seeds" 1 (Some seeds);
  at_least "--retries" 0 (Some retries);
  at_least "--jobs" 1 jobs;
  at_least "--max-slots" 1 max_slots;
  at_least "--trace-stride" 1 trace_stride;
  at_least "--window-slots" 1 window_slots;
  at_least "--flight-recorder" 1 flight_recorder;
  if window_slots <> None && windows = None && not fairness then
    usage "--window-slots applies with --windows or --fairness only";
  if
    trace_stride <> None && trace_out = None && trace_csv = None
    && metrics_out = None
  then
    usage "--trace-stride applies with --trace-out, --trace-csv or --metrics-out";
  let trace_stride_given = trace_stride <> None in
  let trace_stride = Option.value trace_stride ~default:1
  and window_slots = Option.value window_slots ~default:1000 in
  let jobs =
    match jobs with Some n -> n | None -> Wfs_runner.Pool.default_jobs ()
  in
  (* Trace sinks, the windowed collector and the profiler are shared
     mutable state on the SINGLE-CELL replica pool: serialise it so samples
     land in slot order and timings aren't interleaved.  Topology runs are
     exempt — their tracing goes through per-cell part files merged at the
     end, so they keep the requested job count. *)
  let serial_jobs =
    if trace_out <> None || trace_csv <> None || profile || windows <> None
    then 1
    else jobs
  in
  let render =
    run_and_render ~output ~jobs:serial_jobs ~seeds ~credit ~debit ~fairness
      ~retries ~max_slots ~invariants ~fast_path ~metrics_out ~trace_out
      ~trace_csv ~trace_stride ~profile ~flight_recorder
      ~windows_out:windows ~window_slots
  in
  if list then list_schedulers ()
  else begin
    (* Spec.topo/Spec.faults validate their fields; Invalid_argument is
       turned into a clean exit by [main]. *)
    let fault_plan =
      match faults with
      | None -> None
      | Some s -> (
          match Spec.faults_of_string s with
          | Ok p -> Some p
          | Error msg -> usage "--faults: %s" msg)
    in
    let topo_clause =
      if cells > 1 then
        let tp =
          Spec.topo ~cells
            ~mobility:(Option.value mobility ~default:0.)
            ~epoch:(Option.value epoch ~default:500)
        in
        Some
          (match fault_plan with
          | Some p -> Spec.with_faults p tp
          | None -> tp)
      else begin
        if fault_plan <> None then
          usage
            "--faults needs a multi-cell run (--cells > 1); give --spec its \
             own faults=... field instead";
        if mobility <> None || epoch <> None then
          usage
            "--mobility/--epoch need a multi-cell run (--cells > 1); give \
             --spec its own topology clause instead";
        None
      end
    in
    if sum <> None && (specs <> [] || scenario <> None || example > 2) then
      usage
        "-b/--burstiness applies to examples 1-2 only (not to --spec, \
         --scenario or -e 3..6)";
    let title, flow_base, labeled =
      if specs <> [] then
        (* Explicit run specs: each is its own experiment id. *)
        let labeled =
          List.map
            (fun s -> (Spec.to_string s, s))
            (List.map Spec.of_string_exn specs)
        in
        (Printf.sprintf "%d run spec(s)" (List.length labeled), 1, labeled)
      else
        let algorithms = resolve_algorithms algo info in
        match scenario with
        | Some path ->
            (* -s/-n override the file's directives; absent, the
               directives (or their defaults) apply. *)
            let labeled =
              List.map
                (fun name ->
                  (name, Spec.of_scenario_file ~sched:name ?seed ?horizon path))
                algorithms
            in
            let sp = snd (List.hd labeled) in
            ( Printf.sprintf "%s (%s)" path
                (title_info ~seeds ~seed:sp.Spec.seed ~horizon:sp.Spec.horizon),
              0,
              labeled )
        | None ->
            let scn =
              Spec.example
                ?sum:
                  (if example <= 2 then Some (Option.value sum ~default:0.1)
                   else None)
                example
            in
            let seed = Option.value seed ~default:Spec.default_seed
            and horizon = Option.value horizon ~default:Spec.default_horizon in
            let labeled =
              List.map
                (fun name -> (name, Spec.make ~seed ~horizon ~sched:name scn))
                algorithms
            in
            ( Printf.sprintf "Example %d (%s)" example
                (title_info ~seeds ~seed ~horizon),
              1,
              labeled )
    in
    let labeled =
      match topo_clause with
      | None -> labeled
      | Some tp when specs = [] ->
          List.map (fun (l, sp) -> (l, Spec.with_topo tp sp)) labeled
      | Some _ ->
          usage
            "--cells applies to -e/--scenario runs; give --spec its own \
             topology clause (cells=K,mobility=R,epoch=E)"
    in
    let topo_runs, plain =
      List.partition (fun (_, sp) -> sp.Spec.topo <> None) labeled
    in
    match topo_runs with
    | [] ->
        if resume <> None || fault_timeline <> None then
          usage
            "--resume/--fault-timeline apply to topology runs only (--cells \
             > 1 or a spec with a topology clause)";
        if causality <> None then
          usage
            "--causality applies to topology runs only (--cells > 1 or a \
             spec with a topology clause)";
        render ~title ~flow_base plain
    | _ ->
        if plain <> [] then
          usage "cannot mix topology and single-cell runs in one invocation";
        if seeds <> 1 then usage "topology runs support --seeds 1 only";
        if
          fairness || profile || flight_recorder <> None || max_slots <> None
          || retries > 0
        then
          usage
            "--fairness/--profile/--flight-recorder/--max-slots/--retries are \
             not supported for topology runs";
        let observing =
          trace_out <> None || trace_csv <> None || causality <> None
          || windows <> None
        in
        if trace_stride_given && trace_out = None && trace_csv = None then
          usage
            "--trace-stride on a topology run applies to --trace-out/\
             --trace-csv only";
        if observing && List.length topo_runs <> 1 then
          usage
            "--trace-out/--trace-csv/--causality/--windows need exactly one \
             topology run (one algorithm, one spec); got %d runs"
            (List.length topo_runs);
        render_topo ~title ~output ~jobs ~credit ~debit ~invariants
          ~fast_path ~metrics_out ~resume ~fault_timeline
          ~artifacts:
            {
              Wfs_topo.Topo_run.trace_out;
              trace_csv;
              trace_stride;
              causality;
              windows;
              window_slots;
            }
          topo_runs
  end

(* Bad scheduler names, malformed specs and out-of-range examples all raise
   Invalid_argument (or a typed Bad_spec error) with a helpful message —
   turn them into a clean exit. *)
let main run =
  try run () with
  | Invalid_argument msg -> usage "%s" msg
  | Wfs_util.Error.Error e -> usage "%s" (Wfs_util.Error.to_string e)

open Cmdliner

let example_arg =
  Arg.(value & opt int 1 & info [ "e"; "example" ] ~doc:"Paper example (1-6).")

let seed_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "s"; "seed" ]
        ~absent:
          (Printf.sprintf "%d, or the scenario file's seed directive"
             Spec.default_seed)
        ~doc:"PRNG seed.")

let horizon_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "n"; "horizon" ]
        ~absent:
          (Printf.sprintf "%d, or the scenario file's horizon directive"
             Spec.default_horizon)
        ~doc:"Slots to simulate.")

let sum_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "b"; "burstiness" ] ~absent:"0.1"
        ~doc:
          "pg+pe for examples 1-2 (0.1 bursty ... 1.0 memoryless); rejected \
           for any other run.")

let credit_arg =
  Arg.(value & opt int 4 & info [ "credit" ] ~doc:"Credit cap (WPS variants).")

let debit_arg =
  Arg.(value & opt int 4 & info [ "debit" ] ~doc:"Debit cap (SwapA).")

let csv_arg =
  Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV instead of a table.")

let fairness_arg =
  Arg.(
    value & flag
    & info [ "fairness" ]
        ~doc:
          "Also report the paper's eq.-(1) fairness over tumbling windows of \
           $(b,--window-slots) slots: the mean Jain index and the worst \
           normalised-service gap over the windows in which at least two \
           flows stayed backlogged at every slot, scoring those flows only \
           ('-' when no window qualifies).  Single-cell runs only; observes \
           every slot, so it forces the reference loop.")

let algo_arg =
  Arg.(
    value & opt string "all"
    & info [ "a"; "algorithm" ]
        ~doc:
          "Scheduler(s): a legacy family name (all, blind, wrr, noswap, swapw, \
           swapa, iwfq, cifq, csdps — combined with $(b,-k)), or \
           comma-separated registry names/aliases (see $(b,--list)), e.g. \
           'WPS,IWFQ-I,CIF-Q'.")

let info_arg =
  Arg.(
    value & opt string "both"
    & info [ "k"; "knowledge" ] ~doc:"Channel knowledge: ideal, predicted, both.")

let scenario_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "scenario" ]
        ~doc:
          "Run a scenario file instead of a paper example (see \
           lib/core/scenario.mli for the format).")

let spec_arg =
  Arg.(
    value & opt_all string []
    & info [ "spec" ]
        ~doc:
          "Run an explicit run spec, e.g. 'example:1?sum=0.5 | WPS | seed=7 | \
           horizon=50000' or 'file:cell.scenario | IWFQ | seed=1 | \
           horizon=100000'.  Repeatable; overrides $(b,-e)/$(b,-a).")

let seeds_arg =
  Arg.(
    value & opt int 1
    & info [ "seeds" ]
        ~doc:
          "Replicas per run (consecutive seeds); with K > 1, cells show mean \
           ± 95% CI.")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs" ]
        ~doc:"Worker domains (default: all cores).  Output is jobs-invariant.")

let list_arg =
  Arg.(
    value & flag
    & info [ "list" ] ~doc:"List registered schedulers and aliases, then exit.")

let retries_arg =
  Arg.(
    value & opt int 0
    & info [ "retries" ]
        ~doc:
          "Extra attempts per failed single-cell run (same RNG stream, so a \
           retry that succeeds is byte-identical to a first-attempt \
           success); rejected for topology runs.")

let max_slots_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-slots" ]
        ~doc:
          "Deterministic slot-budget watchdog: refuse any run whose horizon \
           exceeds N slots instead of executing it.")

let fast_path_arg =
  Arg.(
    value & flag
    & info [ "fast-path" ]
        ~doc:
          "Run the event-compressed slot engine: quiescent windows (no \
           backlog, no scheduled arrival) are advanced in closed form \
           instead of slot by slot.  Byte-identical results by \
           construction; automatically degenerates to the reference loop \
           when per-slot telemetry ($(b,--trace-out), $(b,--metrics-out), \
           $(b,--profile), $(b,--check-invariants), $(b,--fairness)) is \
           attached.")

let invariants_arg =
  Arg.(
    value & flag
    & info [ "check-invariants" ]
        ~doc:
          "Run the paper-property monitors (virtual-time monotonicity, \
           finish-tag sanity, credit bounds, lag conservation, work \
           conservation) on every slot; a violation fails that run.")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Record probe instruments (sample/idle counters, backlog \
           histogram, virtual-time/lag gauges) for every run and write the \
           merged table as a wfs-bench/1 JSON artifact.  Byte-identical for \
           every $(b,--jobs) value.")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Stream a per-slot wfs-trace/1 JSONL time series (queue depths, \
           channel states, scheduler tags/credits/virtual time) to FILE.  \
           Needs exactly one run (one algorithm, $(b,--seeds) 1); forces \
           $(b,--jobs) 1.  A topology run ($(b,--cells) > 1) writes a \
           merged cell-tagged wfs-xray-trace/1 timeline instead and keeps \
           the requested job count (per-cell part files, deterministic \
           merge).")

let trace_csv_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-csv" ] ~docv:"FILE"
        ~doc:"Like $(b,--trace-out) but a CSV sink; both may be given.")

let trace_stride_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "trace-stride" ] ~docv:"N" ~absent:"1"
        ~doc:
          "Sample every N-th slot (default 1: every slot).  Applies with \
           $(b,--trace-out), $(b,--trace-csv) or (single-cell runs) \
           $(b,--metrics-out); rejected otherwise.")

let profile_arg =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Time each slot-loop phase (arrivals, predict, drops, select, \
           transmit, slot-end) with a monotonic clock and print a phase \
           table (stderr under $(b,--csv)).  Forces $(b,--jobs) 1.")

let flight_recorder_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "flight-recorder" ] ~docv:"N"
        ~doc:
          "Keep a ring buffer of the last N trace events per run; when a \
           run fails, they ride along in its failure-table entry.")

let cells_arg =
  Arg.(
    value & opt int 1
    & info [ "cells" ] ~docv:"K"
        ~doc:
          "Multi-cell topology: with K > 1 the scenario is instantiated once \
           per cell (statistically independent seeds) and the cells run in \
           lockstep epochs, sharded over the $(b,--jobs) domain pool, with \
           Section 5/7 handoff state carried at epoch barriers.  Output is \
           jobs-invariant.")

let mobility_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "mobility" ] ~docv:"R" ~absent:"0"
        ~doc:
          "Per-flow handoff probability at each epoch barrier (multi-cell \
           runs; default 0: no handoffs); rejected without $(b,--cells) > \
           1.")

let epoch_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "epoch" ] ~docv:"N" ~absent:"500"
        ~doc:"Slots per lockstep epoch between handoff barriers (multi-cell \
              runs); rejected without $(b,--cells) > 1.")

let faults_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "faults" ] ~docv:"PLAN"
        ~doc:
          "Deterministic fault plan for a multi-cell run ($(b,--cells) > 1): \
           'crash:R;recover:R;lose:R;corrupt:R;blackout:RxN;exn:R;persist:R;\
           budget:N'.  All draws happen at epoch barriers from the plan's \
           own seeded stream, so faulted runs stay byte-identical for every \
           $(b,--jobs) value.  Crashed cells degrade gracefully: their flows \
           re-home to surviving cells under the Section 5/7 carry ledger.")

let resume_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "resume" ] ~docv:"FILE"
        ~doc:
          "Epoch-checkpoint journal for topology runs \
           (wfs-bench/1-topo-journal).  A fresh run writes one snapshot per \
           epoch barrier; a killed run re-invoked with the same FILE replays \
           completed specs from the journal and re-runs the interrupted one, \
           verifying every already-journaled barrier against the replay.")

let fault_timeline_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "fault-timeline" ] ~docv:"FILE"
        ~doc:
          "Write the chronological fault timeline of a topology run \
           (wfs-chaos/1-timeline JSONL: crashes, recoveries, lost/corrupt/\
           blocked handoffs, blackouts, worker faults) to FILE.")

let causality_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "causality" ] ~docv:"FILE"
        ~doc:
          "Write the flow-journey causality log of a topology run \
           (wfs-causality/1 JSONL: every mobility draw with its chaos \
           verdict, every crash re-home, and every carry import with the \
           lag/credit actually accepted vs carried) to FILE.  Needs exactly \
           one topology run; recorded at the sequential epoch barrier, so \
           the log is byte-identical for every $(b,--jobs) value.")

let windows_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "windows" ] ~docv:"FILE"
        ~doc:
          "Write a wfs-windows/2 tumbling-window aggregation stream (the \
           number of flows backlogged at every observation of the window, \
           their Jain index and eq-(1) normalized-service gap, and the \
           window's arrival/delivery/drop/backlog/loss deltas) to FILE.  \
           Single-cell runs sample every slot (needs exactly one run; \
           forces $(b,--jobs) 1); topology runs sample at epoch barriers \
           and keep the requested job count.")

let window_slots_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "window-slots" ] ~docv:"N" ~absent:"1000"
        ~doc:
          "Tumbling-window length in slots for $(b,--windows) and \
           $(b,--fairness) (default 1000); rejected without either.")

let check_trace_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "check-trace" ] ~docv:"FILE"
        ~doc:
          "Validate a wfs-trace/1 file written by $(b,--trace-out), print a \
           summary, and exit (0 valid, 2 corrupt).")

let check_metrics_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "check-metrics" ] ~docv:"FILE"
        ~doc:
          "Validate a metrics artifact written by $(b,--metrics-out), print \
           a summary, and exit (0 valid, 2 corrupt).")

let cmd =
  let doc = "Wireless fair scheduling simulator (Lu/Bharghavan/Srikant 1997)" in
  Cmd.v
    (Cmd.info "wfs_sim" ~doc)
    Term.(
      const main
      $ (const main_checked $ example_arg $ seed_arg $ horizon_arg $ sum_arg
        $ credit_arg $ debit_arg $ csv_arg $ fairness_arg $ algo_arg $ info_arg
        $ scenario_arg $ spec_arg $ seeds_arg $ jobs_arg $ list_arg
        $ retries_arg $ max_slots_arg $ invariants_arg $ fast_path_arg
        $ metrics_out_arg $ trace_out_arg $ trace_csv_arg $ trace_stride_arg
        $ profile_arg $ flight_recorder_arg $ cells_arg $ mobility_arg
        $ epoch_arg $ faults_arg $ resume_arg $ fault_timeline_arg
        $ causality_arg $ windows_arg $ window_slots_arg $ check_trace_arg
        $ check_metrics_arg))

let () = exit (Cmd.eval cmd)
