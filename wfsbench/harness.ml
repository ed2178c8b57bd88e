(* The measurement loop of one benchmark invocation.  It warms up with one
   untimed repeat, then repeats the workload for S seconds.  With --trace 0
   it prints the end-to-end metrics (quantiles over the repeats); with
   --trace 1 it spends half the time on untraced repeats and half on traced
   ones and prints the per-layer metrics.  Every repeat is checked
   (conservation, a fingerprint equal to the warm-up's, and the workload's
   own checks); a failed check makes the exit code 1.  The last line of
   standard output is one JSON object (see [print_result]). *)

module L = Layers
module W = Workloads

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

(* Host/build stamp: the fields the binary can see itself, plus those the
   launcher found out (profile, flambda, revision). *)
let stamp ~workload ~seed ~seconds ~trace ~profile ~flambda ~rev =
  Printf.sprintf
    "{\"workload\": %S, \"seed\": %d, \"seconds\": %d, \"trace\": %d, \
     \"cores\": %d, \"ocaml\": %S, \"flambda\": %S, \"dune_profile\": %S, \
     \"git_rev\": %S, \"word_size\": %d}"
    workload seed seconds trace
    (Domain.recommended_domain_count ())
    Sys.ocaml_version flambda profile rev Sys.word_size

type outcome = { mutable attempted : int; mutable failed : int }

(* Run one repeat, checking it against the warm-up fingerprint. *)
let attempt o ~expect f =
  o.attempted <- o.attempted + 1;
  match f () with
  | (r : W.repeat) ->
      let errors =
        match expect with
        | Some fp when fp <> r.fingerprint ->
            Printf.sprintf "fingerprint %s differs from the warm-up's %s" r.fingerprint fp
            :: r.errors
        | Some _ | None -> r.errors
      in
      if errors <> [] then begin
        o.failed <- o.failed + 1;
        List.iter prerr_endline errors
      end;
      Some r
  | exception e ->
      o.failed <- o.failed + 1;
      prerr_endline ("repeat raised: " ^ Printexc.to_string e);
      None

(* Repeat [f] until [until] (monotonic ns), at least [min] times. *)
let repeat_until ~until ~min f =
  let rec go n acc =
    if n >= min && L.now () >= until then List.rev acc
    else go (n + 1) (match f () with Some r -> r :: acc | None -> acc)
  in
  go 0 []

let rate (r : W.repeat) = float_of_int r.slots /. L.seconds r.wall_ns

let per_layer tally ~traced ~untraced_wall ~minor_per_slot =
  let n = float_of_int (max 1 (List.length traced)) in
  let g k = W.Tally.get tally k in
  let ratio a b = if b = 0. then 0. else a /. b in
  let traced_wall = List.fold_left (fun s (r : W.repeat) -> s +. L.seconds r.wall_ns) 0. traced in
  let value name =
    match name with
    | "sim.window_accept_ratio" ->
        let a = g "sim.absorbed_windows" in
        ratio a (a +. g "sim.declined_windows")
    | "sim.minor_words_per_slot" -> minor_per_slot
    | "sched.select_hit_ratio" -> ratio (g "aux.select_hits") (g "sched.select_calls")
    | "sched.quiescent_absorb_ratio" -> ratio (g "aux.q_absorbed") (g "aux.q_requested")
    | "topo.barrier_share" -> ratio (g "topo.barrier_s") (g "aux.topo_run_s")
    | "topo.epoch_p50_s" -> ratio (g "aux.epoch_p50_s") (g "aux.topo_runs")
    | "topo.epoch_p90_s" -> ratio (g "aux.epoch_p90_s") (g "aux.topo_runs")
    | "topo.drained_per_handoff" -> ratio (g "topo.drained_pkts") (g "topo.handoffs")
    | "obs.probe_share" -> ratio (g "obs.probe_s") traced_wall
    | "trace.overhead_ratio" -> ratio (traced_wall /. n) untraced_wall
    | "trace.accounted_share" -> ratio (g "aux.rows_s") (g "aux.repeat_s")
    | other -> g other /. n
  in
  List.map (fun (m : Catalog.decl) -> (m, value m.name)) Catalog.per_layer

let print_result ~correct o metrics =
  List.iter
    (fun ((m : Catalog.decl), v) -> Printf.printf "# %-30s %20s %s\n" m.name (json_number v) m.unit)
    metrics;
  Printf.printf "# fail_ratio %d/%d\n" o.failed o.attempted;
  let body =
    String.concat ", "
      (List.map
         (fun ((m : Catalog.decl), v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_number v) m.unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    o.attempted o.failed body

let main ~workload ~seed ~seconds ~trace ~profile ~flambda ~rev =
  let w =
    match W.find workload with
    | Some w -> w
    | None ->
        Printf.eprintf "wfsbench: unknown workload %S (known: %s)\n" workload
          (String.concat ", " (List.map (fun (w : W.t) -> w.name) W.all));
        exit 2
  in
  Printf.printf "# stamp %s\n%!" (stamp ~workload ~seed ~seconds ~trace ~profile ~flambda ~rev);
  let o = { attempted = 0; failed = 0 } in
  let warm = attempt o ~expect:None (fun () -> w.repeat ~seed ~tally:None) in
  let expect = Option.map (fun (r : W.repeat) -> r.fingerprint) warm in
  Option.iter
    (fun (r : W.repeat) ->
      if r.uncounted > 0 then
        Printf.printf "# IWFQ lag-bound deletions not counted as drops: %d packets per repeat\n"
          r.uncounted)
    warm;
  (* Every repeat starts from a collected heap, so no repeat pays for the
     garbage of the one before. *)
  let untraced_repeat () =
    Gc.full_major ();
    attempt o ~expect (fun () -> w.repeat ~seed ~tally:None)
  in
  let start = L.now () in
  let budget = seconds * 1_000_000_000 in
  let untraced =
    repeat_until ~until:(start + if trace = 1 then budget / 2 else budget) ~min:3 untraced_repeat
  in
  let peak_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.
  in
  let tally = W.Tally.create () in
  let traced =
    if trace = 1 then
      repeat_until ~until:(start + budget) ~min:1 (fun () ->
          Gc.full_major ();
          attempt o ~expect (fun () ->
              let t0 = L.now () in
              let r = w.repeat ~seed ~tally:(Some tally) in
              W.Tally.adds tally "aux.repeat_s" (L.now () - t0);
              r))
    else []
  in
  (match w.twin with
  | Some twin -> ignore (attempt o ~expect (fun () -> twin ~seed))
  | None -> ());
  let metrics =
    if trace = 1 then
      let slots = List.fold_left (fun s (r : W.repeat) -> s + r.slots) 0 untraced in
      let words = List.fold_left (fun s (r : W.repeat) -> s +. r.minor_words) 0. untraced in
      per_layer tally ~traced
        ~untraced_wall:(W.quantile (List.map (fun (r : W.repeat) -> L.seconds r.wall_ns) untraced) 0.5)
        ~minor_per_slot:(if slots = 0 then 0. else words /. float_of_int slots)
    else
      let value = function
        (* The rate nine tenths of the repeats beat (the 90th percentile of
           repeat time).  On a shared host repeat times are bimodal, slowed
           in phases of seconds by other tenants; the median moves with the
           share of slow phases in a run, this tail much less. *)
        | "slots_per_s" -> W.quantile (List.map rate untraced) 0.1
        | "setup_s" -> W.quantile (List.map (fun (r : W.repeat) -> L.seconds r.setup_ns) untraced) 0.5
        | "peak_heap_mb" -> peak_heap_mb
        | other -> invalid_arg other
      in
      List.map (fun (m : Catalog.decl) -> (m, value m.name)) Catalog.end_to_end
  in
  let correct = o.failed = 0 && untraced <> [] in
  print_result ~correct o metrics;
  if not correct then exit 1
