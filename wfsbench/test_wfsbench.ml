(* The benchmark's own tests: tracing wrappers are draw-for-draw
   transparent, failed checks are counted, and the metric catalog matches
   BENCHMARK.json. *)

module L = Layers
module W = Workloads
module Arrival = Wfs_traffic.Arrival
module Channel = Wfs_channel.Channel
module Rng = Wfs_util.Rng
module Json = Wfs_util.Json

let sources seed =
  [
    ("poisson", Wfs_traffic.Poisson.create ~rng:(Rng.create seed) ~rate:0.3);
    ("mmpp", Wfs_traffic.Mmpp.create ~rng:(Rng.create seed) ~on_rate:0.8 ());
    ( "onoff",
      Wfs_traffic.Onoff.create ~rng:(Rng.create seed) ~p_on_to_off:0.1 ~p_off_to_on:0.05 () );
    ( "pareto",
      Wfs_traffic.Pareto_onoff.create ~rng:(Rng.create seed) ~mean_on:5. ~mean_off:20. () );
    ("cbr", Wfs_traffic.Cbr.create ~interarrival:7.5 ());
  ]

(* Drive a source with a seeded mix of [arrivals] and [next_event] queries
   and record every answer. *)
let source_answers ~plan src =
  let rng = Rng.create plan in
  let out = ref [] and slot = ref 0 in
  while !slot < 5_000 do
    if Rng.bool rng then begin
      out := Arrival.arrivals src ~slot:!slot :: !out;
      incr slot
    end
    else begin
      let upto = !slot + 1 + Rng.int rng 200 in
      let e = Arrival.next_event src ~from:!slot ~upto in
      out := e :: !out;
      if e >= 0 then begin
        out := Arrival.pending_count src :: !out;
        slot := e + 1
      end
      else slot := upto
    end
  done;
  List.rev !out

let test_sources () =
  List.iter2
    (fun (name, bare) (_, inner) ->
      let acc = L.source_acc () in
      let wrapped = L.wrap_source acc inner in
      Alcotest.(check (list int)) name (source_answers ~plan:9 bare) (source_answers ~plan:9 wrapped);
      Alcotest.(check bool) (name ^ " counted") true (acc.arrivals.calls + acc.next_event.calls > 0))
    (sources 5) (sources 5)

let channels seed =
  [
    ("ge", Wfs_channel.Gilbert_elliott.of_burstiness ~rng:(Rng.create seed) ~good_prob:0.9 ~sum:0.1 ());
    ("bernoulli", Wfs_channel.Bernoulli_ch.create ~rng:(Rng.create seed) ~good_prob:0.7);
  ]

let channel_answers ~plan ch =
  let rng = Rng.create plan in
  let out = ref [] and slot = ref 0 in
  while !slot < 5_000 do
    let s =
      if Rng.bool rng then Channel.advance ch ~slot:!slot
      else begin
        let last = !slot + Rng.int rng 100 in
        let s = Channel.advance_run ch ~from:!slot ~slot:last in
        slot := last;
        s
      end
    in
    out := Channel.state_is_good (Channel.previous_state ch) :: Channel.state_is_good s :: !out;
    incr slot
  done;
  List.rev !out

let test_channels () =
  List.iter2
    (fun (name, bare) (_, inner) ->
      let acc = L.channel_acc () in
      let wrapped = L.wrap_channel acc inner in
      Alcotest.(check (list bool)) name (channel_answers ~plan:3 bare) (channel_answers ~plan:3 wrapped);
      Alcotest.(check bool) (name ^ " bulk used") true (acc.bulk_slots > 0))
    (channels 11) (channels 11)

let test_static_and_never_unwrapped () =
  let src = Arrival.never () and ch = Wfs_channel.Error_free.create () in
  Alcotest.(check bool) "never" true (Arrival.is_never (L.wrap_source (L.source_acc ()) src));
  Alcotest.(check bool) "static" true (Channel.is_static (L.wrap_channel (L.channel_acc ()) ch))

(* A traced repeat reproduces the untraced fingerprint and stays on the
   compressed engine. *)
let test_traced_cell () =
  let small = { W.dense with horizon = 3_000 } in
  let bare = W.cell_repeat small ~fast_path:true ~seed:4 ~tally:None in
  let tally = W.Tally.create () in
  let traced = W.cell_repeat small ~fast_path:true ~seed:4 ~tally:(Some tally) in
  let reference = W.cell_repeat small ~fast_path:false ~seed:4 ~tally:None in
  Alcotest.(check (list string)) "no errors" [] (bare.errors @ traced.errors @ reference.errors);
  Alcotest.(check string) "traced" bare.fingerprint traced.fingerprint;
  Alcotest.(check string) "reference twin" bare.fingerprint reference.fingerprint;
  Alcotest.(check (float 0.)) "no reference slots" 0. (W.Tally.get tally "sim.reference_slots");
  Alcotest.(check (float 0.)) "all slots" 12_000. (W.Tally.get tally "sim.slots")

(* The same through the registered wrapper entry on a small topology, whose
   barriers drain and re-enqueue through the wrapped closures. *)
let test_traced_topology () =
  let small = { W.saturated with cells = 4; topo_horizon = 1_000; scenario = "topo_cell.scenario" } in
  let bare = W.topo_repeat small ~seed:4 ~tally:None in
  let tally = W.Tally.create () in
  let traced = W.topo_repeat small ~seed:4 ~tally:(Some tally) in
  Alcotest.(check (list string)) "no errors" [] (bare.errors @ traced.errors);
  Alcotest.(check string) "traced" bare.fingerprint traced.fingerprint;
  Alcotest.(check bool) "barriers drained" true (W.Tally.get tally "topo.drained_pkts" > 0.);
  Alcotest.(check (float 0.)) "epochs" 20. (W.Tally.get tally "topo.epochs")

let test_bad_fingerprint_fails () =
  let o = { Harness.attempted = 0; failed = 0 } in
  let good = { W.empty with fingerprint = "good" } in
  ignore (Harness.attempt o ~expect:(Some "good") (fun () -> good));
  ignore (Harness.attempt o ~expect:(Some "good") (fun () -> { good with fingerprint = "bad" }));
  ignore (Harness.attempt o ~expect:(Some "good") (fun () -> { good with errors = [ "seeded" ] }));
  ignore (Harness.attempt o ~expect:(Some "good") (fun () -> failwith "seeded"));
  Alcotest.(check (pair int int)) "failed/attempted" (3, 4) (o.failed, o.attempted)

let test_conservation () =
  let m = Wfs_core.Metrics.create ~n_flows:1 () in
  Wfs_core.Metrics.on_arrival m ~flow:0;
  Wfs_core.Metrics.on_arrival m ~flow:0;
  Wfs_core.Metrics.on_deliver m ~flow:0 ~delay:0;
  let check ~deletes backlog =
    let errs, deleted = W.conservation ~who:"t" ~deletes m ~backlog:(fun _ -> backlog) in
    (List.length errs, deleted)
  in
  Alcotest.(check (pair int int)) "balanced" (0, 0) (check ~deletes:false 1);
  Alcotest.(check (pair int int)) "lost packet" (1, 0) (check ~deletes:false 0);
  Alcotest.(check (pair int int)) "lag-bound deletion" (0, 1) (check ~deletes:true 0);
  Alcotest.(check (pair int int)) "extra packet" (1, 0) (check ~deletes:true 2)

(* BENCHMARK.json names every metric the benchmark prints, with the same
   unit and direction, and every workload. *)
let test_catalog () =
  let json =
    match Json.of_string (In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all) with
    | Ok j -> j
    | Error e -> Alcotest.fail e
  in
  let field k j = Option.get (Json.member k j) in
  let str k j = Option.get (Json.to_str (field k j)) in
  let list k = Option.get (Json.to_list (field k json)) in
  let declared k = List.map (fun j -> (str "name" j, str "unit" j, str "better" j)) (list k) in
  let ours ms =
    List.map (fun (m : Catalog.decl) -> (m.name, m.unit, Catalog.better_to_string m.better)) ms
  in
  let triple = Alcotest.(list (triple string string string)) in
  Alcotest.check triple "end_to_end" (ours Catalog.end_to_end) (declared "end_to_end");
  Alcotest.check triple "per_layer" (ours Catalog.per_layer) (declared "per_layer");
  Alcotest.(check (list string))
    "workloads"
    (List.map (fun (w : W.t) -> w.name) W.all)
    (List.map (str "name") (list "workloads"))

let () =
  Alcotest.run "wfsbench"
    [
      ( "wrappers",
        [
          Alcotest.test_case "sources draw-equivalent" `Quick test_sources;
          Alcotest.test_case "channels draw-equivalent" `Quick test_channels;
          Alcotest.test_case "never/static stay unwrapped" `Quick test_static_and_never_unwrapped;
          Alcotest.test_case "traced cell reproduces fingerprint" `Quick test_traced_cell;
          Alcotest.test_case "traced topology reproduces fingerprint" `Quick test_traced_topology;
        ] );
      ( "checks",
        [
          Alcotest.test_case "bad fingerprint counts as failure" `Quick test_bad_fingerprint_fails;
          Alcotest.test_case "conservation" `Quick test_conservation;
          Alcotest.test_case "catalog matches BENCHMARK.json" `Quick test_catalog;
        ] );
    ]
