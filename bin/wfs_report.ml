(* Offline observability report: load any mix of the repo's on-disk
   artifacts — wfs-bench/1 metrics/bench artifacts, wfs-trace/1 single-cell
   traces, wfs-xray-trace/1 merged topology timelines, wfs-causality/1
   flow-journey logs, wfs-windows/2 aggregation streams and
   wfs-chaos/1-timeline fault logs — and render one dashboard, as aligned
   text on stdout and optionally as a self-contained HTML page.

   Examples:
     wfs_report --bench bench-quick.json    (bench/main.exe --json PATH)
     wfs_report --xray-trace topo.jsonl --causality flows.jsonl \
                --windows win.jsonl --html dashboard.html
     wfs_report --trace cell.jsonl --timeline faults.jsonl *)

module Report = Wfs_xray.Report

let die path msg =
  Printf.eprintf "wfs_report: %s: %s\n" path msg;
  exit 2

let load_bench path =
  match Wfs_runner.Artifact.read path with
  | Ok a -> Report.of_artifact a
  | Error msg -> die path msg

let load_trace path =
  match Wfs_obs.Trace.load ~path with
  | Ok c -> Report.of_trace c
  | Error e -> die path (Wfs_util.Error.to_string e)

let load_xray path =
  match Wfs_xray.Mux.load ~path with
  | Ok c -> Report.of_xray c
  | Error e -> die path (Wfs_util.Error.to_string e)

let load_causality path =
  match Wfs_xray.Causality.load ~path with
  | Ok events -> Report.of_causality events
  | Error e -> die path (Wfs_util.Error.to_string e)

let load_windows path =
  match Wfs_xray.Windowed.load ~path with
  | Ok c -> Report.of_windows c
  | Error e -> die path (Wfs_util.Error.to_string e)

let load_timeline path =
  match Wfs_chaos.Chaos.load_timeline ~path with
  | Ok stamped -> Report.of_timeline stamped
  | Error e -> die path (Wfs_util.Error.to_string e)

let main title bench traces xray causality windows timelines html quiet =
  let sections =
    List.concat
      [
        List.map load_bench bench;
        List.map load_xray xray;
        List.map load_trace traces;
        List.map load_causality causality;
        List.map load_windows windows;
        List.map load_timeline timelines;
      ]
  in
  if sections = [] then begin
    Printf.eprintf
      "wfs_report: nothing to report; give at least one of --bench, --trace, \
       --xray-trace, --causality, --windows, --timeline\n";
    exit 2
  end;
  if not quiet then Report.print sections;
  match html with
  | None -> ()
  | Some path ->
      let oc = open_out_bin path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc (Report.to_html ~title sections))

open Cmdliner

let title_arg =
  Arg.(
    value & opt string "wfs report"
    & info [ "title" ] ~docv:"STR" ~doc:"Dashboard title (HTML page header).")

let bench_arg =
  Arg.(
    value & opt_all file []
    & info [ "bench" ] ~docv:"FILE"
        ~doc:
          "A wfs-bench/1 JSON artifact ($(b,wfs_bench) output or \
           $(b,wfs_sim --metrics-out)).  Repeatable.")

let trace_arg =
  Arg.(
    value & opt_all file []
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "A single-cell wfs-trace/1 JSONL stream ($(b,wfs_sim \
           --trace-out)).  Repeatable.")

let xray_arg =
  Arg.(
    value & opt_all file []
    & info [ "xray-trace" ] ~docv:"FILE"
        ~doc:
          "A merged wfs-xray-trace/1 topology timeline ($(b,wfs_sim \
           --cells K --trace-out)).  Repeatable.")

let causality_arg =
  Arg.(
    value & opt_all file []
    & info [ "causality" ] ~docv:"FILE"
        ~doc:
          "A wfs-causality/1 flow-journey log ($(b,wfs_sim --causality)).  \
           Repeatable.")

let windows_arg =
  Arg.(
    value & opt_all file []
    & info [ "windows" ] ~docv:"FILE"
        ~doc:
          "A wfs-windows/2 aggregation stream ($(b,wfs_sim --windows)).  \
           Repeatable.")

let timeline_arg =
  Arg.(
    value & opt_all file []
    & info [ "timeline" ] ~docv:"FILE"
        ~doc:
          "A wfs-chaos/1-timeline fault log ($(b,wfs_sim \
           --fault-timeline)).  Repeatable.")

let html_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "html" ] ~docv:"FILE"
        ~doc:
          "Also write the dashboard as a self-contained HTML page (inline \
           CSS, no external assets) to FILE.")

let quiet_arg =
  Arg.(
    value & flag
    & info [ "quiet"; "q" ] ~doc:"Suppress the text dashboard on stdout.")

let cmd =
  let doc = "Offline dashboards from wfs observability artifacts" in
  Cmd.v
    (Cmd.info "wfs_report" ~doc)
    Term.(
      const main $ title_arg $ bench_arg $ trace_arg $ xray_arg
      $ causality_arg $ windows_arg $ timeline_arg $ html_arg $ quiet_arg)

let () = exit (Cmd.eval cmd)
