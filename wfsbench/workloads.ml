(* The four workloads.  Each one generates its inputs from the seed, runs
   one repeat (every scheduler of the workload once), times the calls into
   the program from outside, and checks the outputs.  With a tally the
   repeat is traced: layers are wrapped (see Layers) and their spans summed
   into the tally. *)

module L = Layers
module Sim = Wfs_core.Simulator
module Registry = Wfs_core.Registry
module Metrics = Wfs_core.Metrics
module Skip_stats = Wfs_core.Skip_stats
module Params = Wfs_core.Params
module Sched = Wfs_core.Wireless_sched
module Rng = Wfs_util.Rng
module Topology = Wfs_topo.Topology
module Cell = Wfs_topo.Cell
module Spec = Wfs_runner.Spec
module Probe = Wfs_obs.Probe
module Sink = Wfs_obs.Sink
module Trace = Wfs_obs.Trace
module Windowed = Wfs_xray.Windowed

(* Per-layer sums of the traced repeats, keyed by catalog metric name (plus
   a few [aux.*] inputs of derived ratios). *)
module Tally = struct
  type t = (string, float) Hashtbl.t

  let create () : t = Hashtbl.create 64
  let get t k = Option.value ~default:0. (Hashtbl.find_opt t k)
  let add t k v = Hashtbl.replace t k (get t k +. v)
  let addi t k v = add t k (float_of_int v)
  let adds t k ns = add t k (L.seconds ns)
end

type repeat = {
  slots : int;  (** simulated slots; cell-slots on a topology *)
  wall_ns : int;  (** the timed region [slots_per_s] divides by *)
  setup_ns : int;  (** generated inputs to first slot *)
  minor_words : float;  (** allocated inside the timed region *)
  fingerprint : string;  (** digest of every per-flow outcome *)
  errors : string list;  (** failed output checks *)
  uncounted : int;  (** packets IWFQ's lag bound deleted (see conservation) *)
}

let empty = { slots = 0; wall_ns = 0; setup_ns = 0; minor_words = 0.; fingerprint = ""; errors = []; uncounted = 0 }

let combine a b =
  {
    slots = a.slots + b.slots;
    wall_ns = a.wall_ns + b.wall_ns;
    setup_ns = a.setup_ns + b.setup_ns;
    minor_words = a.minor_words +. b.minor_words;
    fingerprint = a.fingerprint ^ b.fingerprint;
    errors = a.errors @ b.errors;
    uncounted = a.uncounted + b.uncounted;
  }

let over_scheds scheds f =
  let r = List.fold_left (fun acc name -> combine acc (f name)) empty scheds in
  { r with fingerprint = Digest.to_hex (Digest.string r.fingerprint) }

let minor_words () = (Gc.quick_stat ()).Gc.minor_words

(* {1 Output checks} *)

(* Per-flow conservation: every packet that arrived was delivered, dropped,
   or is still queued in the scheduler.  IWFQ is the one exception the
   program has: its lag bound (paper Section 4.1, step 4a) deletes a packet
   with each excess lagging slot, and Metrics does not count those as drops.
   For it the residual must be non-negative (packets may vanish that way,
   never appear), and it is returned so the run reports it; the residual is
   also part of the fingerprint through the backlog. *)
let conservation ~who ~deletes m ~backlog =
  let errs = ref [] and deleted = ref 0 in
  for f = Metrics.n_flows m - 1 downto 0 do
    let a = Metrics.arrivals m ~flow:f
    and d = Metrics.delivered m ~flow:f
    and x = Metrics.dropped m ~flow:f
    and b = backlog f in
    let r = a - d - x - b in
    if r > 0 && deletes then deleted := !deleted + r
    else if r <> 0 then
      errs :=
        Printf.sprintf "%s: flow %d: arrivals %d <> delivered %d + dropped %d + backlog %d"
          who f a d x b
        :: !errs
  done;
  (!errs, !deleted)

let deletes_on_lag name = String.starts_with ~prefix:"IWFQ" name

let flow_digest m ~backlog =
  let b = Buffer.create 4096 in
  for f = 0 to Metrics.n_flows m - 1 do
    Printf.bprintf b "%d:%d,%d,%d,%d,%d,%h;" f (Metrics.arrivals m ~flow:f)
      (Metrics.delivered m ~flow:f) (Metrics.dropped m ~flow:f)
      (Metrics.failed_attempts m ~flow:f) (backlog f)
      (Metrics.mean_delay m ~flow:f)
  done;
  Printf.bprintf b "idle=%d,busy=%d" (Metrics.idle_slots m) (Metrics.busy_slots m);
  Buffer.contents b

(* {1 Tally helpers} *)

(* Spans a scheduler instance spent inside slots, i.e. children of the
   simulator's run span. *)
let in_slot_ns (a : L.sched_acc) =
  a.select.ns + a.enqueue.ns + a.outcome.ns + a.drop_expired.ns + a.slot_end.ns
  + a.backlog_empty.ns + a.quiescent.ns

let tally_sched t (a : L.sched_acc) =
  let open Tally in
  adds t "sched.select_s" a.select.ns;
  addi t "sched.select_calls" a.select.calls;
  addi t "aux.select_hits" a.select_hits;
  adds t "sched.enqueue_s" a.enqueue.ns;
  addi t "sched.enqueue_calls" a.enqueue.calls;
  adds t "sched.outcome_s" a.outcome.ns;
  adds t "sched.drop_expired_s" a.drop_expired.ns;
  adds t "sched.slot_end_s" a.slot_end.ns;
  adds t "sched.quiescent_s" (a.backlog_empty.ns + a.quiescent.ns);
  addi t "sched.quiescent_calls" a.quiescent.calls;
  addi t "aux.q_requested" a.q_requested;
  addi t "aux.q_absorbed" a.q_absorbed;
  adds t "sched.make_s" a.make.ns;
  addi t "sched.make_calls" a.make.calls;
  adds t "topo.drain_s" a.drain.ns;
  addi t "topo.drained_pkts" a.drained;
  adds t "topo.carry_s" a.carry.ns

let tally_source t (a : L.source_acc) =
  let open Tally in
  adds t "traffic.arrivals_s" a.arrivals.ns;
  addi t "traffic.arrivals_calls" a.arrivals.calls;
  adds t "traffic.next_event_s" a.next_event.ns;
  addi t "traffic.next_event_calls" a.next_event.calls;
  addi t "traffic.packets" a.packets;
  a.arrivals.ns + a.next_event.ns

let tally_channel t (a : L.channel_acc) =
  let open Tally in
  adds t "channel.advance_s" a.advance.ns;
  addi t "channel.advance_calls" a.advance.calls;
  adds t "channel.bulk_s" a.bulk.ns;
  addi t "channel.bulk_slots" a.bulk_slots;
  a.advance.ns + a.bulk.ns

let tally_skips t k =
  let open Tally in
  addi t "sim.slots" (Skip_stats.total_slots k);
  addi t "sim.absorbed_slots" (Skip_stats.absorbed_slots k);
  addi t "sim.absorbed_windows" (Skip_stats.absorbed_windows k);
  addi t "sim.declined_windows" (Skip_stats.declined_windows k);
  addi t "sim.reference_slots" (Skip_stats.reference_slots k)

(* Wrap every active source and dynamic channel of a flow set; the
   returned thunk folds their spans into a tally and returns the ns they
   cover. *)
let wrap_flows setups =
  let accs =
    Array.map (fun _ -> (L.source_acc (), L.channel_acc ())) setups
  in
  let setups =
    Array.mapi
      (fun i (s : Sim.flow_setup) ->
        let sa, ca = accs.(i) in
        { s with Sim.source = L.wrap_source sa s.source; channel = L.wrap_channel ca s.channel })
      setups
  in
  let collect t =
    Array.fold_left
      (fun ns (sa, ca) -> ns + tally_source t sa + tally_channel t ca)
      0 accs
  in
  (setups, collect)

(* Poisson sources over independent Gilbert-Elliott channels (steady-state
   good 0.9, pg+pe 0.1); flows past [active] are provisioned but silent.
   Every object draws from its own seed-derived stream. *)
let poisson_ge_setups ~n_flows ~active ~load ~seed =
  let rate = load /. float_of_int active in
  Array.init n_flows (fun id ->
      let flow = Params.flow ~id ~weight:1. ~drop:(Params.Retx_limit 3) () in
      if id < active then
        {
          Sim.flow;
          source = Wfs_traffic.Poisson.create ~rng:(Rng.create (seed + (1000 * id) + 1)) ~rate;
          channel =
            Wfs_channel.Gilbert_elliott.of_burstiness
              ~rng:(Rng.create (seed + (1000 * id) + 2))
              ~good_prob:0.9 ~sum:0.1 ();
        }
      else
        {
          Sim.flow;
          source = Wfs_traffic.Arrival.never ();
          channel = Wfs_channel.Error_free.create ();
        })

(* {1 Single-cell workloads: cell-dense, cell-sparse} *)

type cell = {
  n_flows : int;
  active : int;
  load : float;
  horizon : int;
  cell_scheds : string list;
}

let cell_scheds = [ "SwapA-P"; "IWFQ-P"; "CIF-Q-P"; "CSDPS" ]

let dense = { n_flows = 256; active = 8; load = 0.9; horizon = 25_000; cell_scheds }
let sparse = { n_flows = 256; active = 2; load = 0.05; horizon = 250_000; cell_scheds }

let cell_run c ~seed ~fast_path ~tally name =
  let entry = Registry.get name in
  let acc = L.sched_acc () in
  let t0 = L.now () in
  let setups = poisson_ge_setups ~n_flows:c.n_flows ~active:c.active ~load:c.load ~seed in
  let setups, collect =
    match tally with
    | Some _ -> wrap_flows setups
    | None -> (setups, fun _ -> 0)
  in
  let flows = Array.map (fun (s : Sim.flow_setup) -> s.flow) setups in
  let sched =
    match tally with
    | Some _ -> L.make_traced acc (fun () -> entry.make flows)
    | None -> entry.make flows
  in
  let skips = Option.map (fun _ -> Skip_stats.create ()) tally in
  let cfg =
    Sim.config ~predictor:entry.predictor ~fast_path ?skip_stats:skips
      ~horizon:c.horizon setups
  in
  let t1 = L.now () in
  let w0 = minor_words () in
  let t2 = L.now () in
  let m = Sim.run cfg sched in
  let t3 = L.now () in
  let w1 = minor_words () in
  let who = Printf.sprintf "%s seed %d" name seed in
  let backlog f = sched.queue_length f in
  let errors, uncounted = conservation ~who ~deletes:(deletes_on_lag name) m ~backlog in
  let errors =
    match skips with
    | Some k when fast_path && not (Skip_stats.compressed k) ->
        (who ^ ": traced fast-path run left the compressed engine") :: errors
    | Some _ | None -> errors
  in
  (match (tally, skips) with
  | Some t, Some k ->
      let children = in_slot_ns acc + collect t in
      tally_sched t acc;
      tally_skips t k;
      Tally.adds t "sim.self_s" (t3 - t2 - children);
      Tally.adds t "aux.rows_s" (t3 - t2)
  | _ -> ());
  {
    slots = c.horizon;
    wall_ns = t3 - t2;
    setup_ns = t1 - t0;
    minor_words = w1 -. w0;
    fingerprint = flow_digest m ~backlog;
    errors;
    uncounted;
  }

let cell_repeat c ~seed ~fast_path ~tally =
  over_scheds c.cell_scheds (cell_run c ~seed ~fast_path ~tally)

(* {1 topo-saturated} *)

type topo = {
  cells : int;
  mobility : float;
  epoch : int;
  topo_horizon : int;
  jobs : int;
  scenario : string;
  topo_scheds : string list;
}

let saturated =
  {
    cells = 64;
    mobility = 0.02;
    epoch = 100;
    topo_horizon = 5_000;
    jobs = 2;
    scenario = "wfsbench/topo_cell.scenario";
    topo_scheds = [ "SwapA-P"; "CIF-Q-P" ];
  }

(* What a Cell.tap sees of each cell: its current roster and live scheduler
   instance (kept for the end-of-run backlog), and under tracing the
   instance's accumulator.  Accumulators of instances retired at a barrier
   are kept until that barrier's bookkeeping has read their last slot. *)
type watch = {
  gids : int array array;
  insts : Sched.instance option array;
  accs : L.sched_acc option array;
  mutable retired : L.sched_acc list;
  mutable pending : L.sched_acc option;
  mutable all : L.sched_acc list;
  mutable rosters : int;
}

let watch cells =
  {
    gids = Array.make cells [||];
    insts = Array.make cells None;
    accs = Array.make cells None;
    retired = [];
    pending = None;
    all = [];
    rosters = 0;
  }

let tap w =
  {
    Cell.on_roster =
      (fun ~cell ~slot:_ ~gids ->
        w.rosters <- w.rosters + 1;
        (match w.accs.(cell) with Some a -> w.retired <- a :: w.retired | None -> ());
        w.accs.(cell) <- None;
        w.insts.(cell) <- None;
        w.gids.(cell) <- gids);
    probe =
      (fun ~cell ~n_flows:_ inst ->
        w.insts.(cell) <- Some inst;
        w.accs.(cell) <- w.pending;
        w.pending <- None;
        None);
    on_carry = (fun ~cell:_ ~slot:_ ~gid:_ ~carried:_ ~accepted:_ -> ());
  }

(* The last on_slot_end over every instance that ran the epoch. *)
let epoch_end w ~floor =
  let m = ref floor in
  let see (a : L.sched_acc) = if a.last_end > !m then m := a.last_end in
  Array.iter (Option.iter see) w.accs;
  List.iter see w.retired;
  w.retired <- [];
  !m

(* Linear-interpolation quantile, [p] in [0, 1]; 0 on no data. *)
let quantile xs p =
  match List.sort compare xs with
  | [] -> 0.
  | s ->
      let a = Array.of_list s in
      let x = p *. float_of_int (Array.length a - 1) in
      let i = int_of_float x in
      if i + 1 >= Array.length a then a.(i)
      else a.(i) +. ((x -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let topo_run tp ~seed ~tally name =
  let w = watch tp.cells in
  let sched =
    match tally with
    | Some _ ->
        L.on_make :=
          (fun acc ->
            w.pending <- Some acc;
            w.all <- acc :: w.all);
        L.traced_entry (Registry.get name)
    | None -> name
  in
  let t0 = L.now () in
  let spec =
    Spec.make ~seed ~horizon:tp.topo_horizon ~sched
      ~topo:(Spec.topo ~cells:tp.cells ~mobility:tp.mobility ~epoch:tp.epoch)
      (Spec.file tp.scenario)
  in
  let topology = Topology.of_spec ~tap:(tap w) spec in
  let t1 = L.now () in
  (* Barrier time per epoch is the on_barrier clock minus the last
     on_slot_end of any cell in that epoch. *)
  let epoch_start = ref 0 and compute = ref 0 and barrier = ref 0 in
  let epochs = ref [] in
  let on_barrier ~slot:_ =
    let t = L.now () in
    let e = epoch_end w ~floor:!epoch_start in
    compute := !compute + (e - !epoch_start);
    barrier := !barrier + (t - e);
    epochs := L.seconds (t - !epoch_start) :: !epochs;
    epoch_start := t
  in
  let w0 = minor_words () in
  let c0 = Sys.time () in
  let t2 = L.now () in
  epoch_start := t2;
  (match tally with
  | Some _ -> Topology.run ~jobs:tp.jobs ~on_barrier topology
  | None -> Topology.run ~jobs:tp.jobs topology);
  let t3 = L.now () in
  let c1 = Sys.time () in
  let w1 = minor_words () in
  let m = Topology.metrics topology in
  let backlog_of = Array.make (Metrics.n_flows m) 0 in
  Array.iteri
    (fun c inst ->
      Option.iter
        (fun (i : Sched.instance) ->
          Array.iteri
            (fun lid gid -> backlog_of.(gid) <- backlog_of.(gid) + i.queue_length lid)
            w.gids.(c))
        inst)
    w.insts;
  let backlog f = backlog_of.(f) in
  let who = Printf.sprintf "%s topology seed %d" name seed in
  let errors, uncounted = conservation ~who ~deletes:(deletes_on_lag name) m ~backlog in
  let handoffs = Topology.handoffs topology in
  (match tally with
  | Some t ->
      let last = epoch_end w ~floor:!epoch_start in
      compute := !compute + (last - !epoch_start);
      epochs := L.seconds (last - !epoch_start) :: !epochs;
      let merge = t3 - last in
      let in_slot = List.fold_left (fun ns a -> ns + in_slot_ns a) 0 w.all in
      List.iter (tally_sched t) w.all;
      let cell_slots = tp.cells * tp.topo_horizon in
      (* Cells run on [jobs] domains, so the compute phase is measured in
         CPU time: process CPU over the run minus the single-domain barrier
         and merge phases.  Sources and channels are built inside
         Topology.of_spec, out of reach of a wrapper, so their time is part
         of sim.self_s here. *)
      let compute_cpu = c1 -. c0 -. L.seconds (!barrier + merge) in
      Tally.add t "sim.self_s" (compute_cpu -. L.seconds in_slot);
      Tally.addi t "sim.slots" cell_slots;
      Tally.addi t "sim.reference_slots" cell_slots;
      for f = 0 to Metrics.n_flows m - 1 do
        Tally.addi t "traffic.packets" (Metrics.arrivals m ~flow:f)
      done;
      Tally.adds t "topo.compute_s" !compute;
      Tally.adds t "topo.barrier_s" !barrier;
      Tally.adds t "topo.merge_s" merge;
      Tally.addi t "topo.epochs" (List.length !epochs);
      Tally.addi t "topo.handoffs" handoffs;
      Tally.addi t "topo.rebuilds" (w.rosters - tp.cells);
      Tally.add t "aux.epoch_p50_s" (quantile !epochs 0.5);
      Tally.add t "aux.epoch_p90_s" (quantile !epochs 0.9);
      Tally.addi t "aux.topo_runs" 1;
      Tally.adds t "aux.topo_run_s" (t3 - t2);
      Tally.adds t "aux.rows_s" (!compute + !barrier + merge)
  | None -> ());
  let homes = Topology.homes topology in
  {
    slots = tp.cells * tp.topo_horizon;
    wall_ns = t3 - t2;
    setup_ns = t1 - t0;
    minor_words = w1 -. w0;
    fingerprint =
      flow_digest m ~backlog
      ^ Printf.sprintf "handoffs=%d;homes=%s" handoffs
          (String.concat "," (Array.to_list (Array.map string_of_int homes)));
    errors;
    uncounted;
  }

let topo_repeat tp ~seed ~tally = over_scheds tp.topo_scheds (topo_run tp ~seed ~tally)

(* {1 cell-observed} *)

type observed = {
  obs_flows : int;
  obs_load : float;
  obs_horizon : int;
  window : int;
  dir : string;
  obs_scheds : string list;
}

let observed =
  {
    obs_flows = 16;
    obs_load = 0.8;
    obs_horizon = 2_000;
    window = 1_000;
    dir = ".wfsbench";
    obs_scheds = [ "SwapA-P"; "CIF-Q-P" ];
  }

let file_size path = In_channel.with_open_bin path In_channel.length |> Int64.to_int

let observed_run o ~seed ~tally name =
  let entry = Registry.get name in
  let acc = L.sched_acc () in
  let probe_span = L.span () and window_span = L.span () in
  if not (Sys.file_exists o.dir) then Sys.mkdir o.dir 0o755;
  let trace_path = Filename.concat o.dir (Printf.sprintf "observed-%s.jsonl" name) in
  let windows_path = Filename.concat o.dir (Printf.sprintf "observed-%s.windows.jsonl" name) in
  let t0 = L.now () in
  let setups = poisson_ge_setups ~n_flows:o.obs_flows ~active:o.obs_flows ~load:o.obs_load ~seed in
  let setups, collect =
    match tally with
    | Some _ -> wrap_flows setups
    | None -> (setups, fun _ -> 0)
  in
  let flows = Array.map (fun (s : Sim.flow_setup) -> s.flow) setups in
  let sched =
    match tally with
    | Some _ -> L.make_traced acc (fun () -> entry.make flows)
    | None -> entry.make flows
  in
  let sink = Sink.jsonl ~path:trace_path (Trace.header ~n_flows:o.obs_flows ()) in
  let probe = Probe.create ~sinks:[ sink ] ~n_flows:o.obs_flows sched in
  let windowed =
    Windowed.create ~weights:(Array.map (fun (f : Params.flow) -> f.weight) flows) ~window:o.window
  in
  let observer = Windowed.observer windowed in
  let slot_probe, observer =
    match tally with
    | Some _ ->
        ( (fun ~slot ~selected ~states ->
            let t = L.now () in
            probe ~slot ~selected ~states;
            L.add probe_span t),
          fun slot m ->
            let t = L.now () in
            observer slot m;
            L.add window_span t )
    | None -> (probe, observer)
  in
  let skips = Option.map (fun _ -> Skip_stats.create ()) tally in
  let cfg =
    Sim.config ~predictor:entry.predictor ~fast_path:true ~slot_probe ~observer
      ?skip_stats:skips ~horizon:o.obs_horizon setups
  in
  let t1 = L.now () in
  let w0 = minor_words () in
  let t2 = L.now () in
  let m = Sim.run cfg sched in
  let t3 = L.now () in
  Sink.close sink;
  let t4 = L.now () in
  Windowed.flush windowed ~slot:o.obs_horizon ~metrics:m;
  let windows = Windowed.windows windowed in
  Windowed.write ~path:windows_path ~window:o.window windows;
  let t5 = L.now () in
  let trace = Trace.load ~path:trace_path in
  let t6 = L.now () in
  let reloaded = Windowed.load ~path:windows_path in
  let t7 = L.now () in
  let w1 = minor_words () in
  let who = Printf.sprintf "%s observed seed %d" name seed in
  let backlog f = sched.queue_length f in
  let written = Sink.written sink in
  let n_windows = List.length windows in
  let errors, uncounted = conservation ~who ~deletes:(deletes_on_lag name) m ~backlog in
  let errors =
    match trace with
    | Ok c when List.length c.samples = written && written = o.obs_horizon -> errors
    | Ok c ->
        Printf.sprintf "%s: reloaded %d trace samples, wrote %d" who (List.length c.samples) written
        :: errors
    | Error e -> Printf.sprintf "%s: trace reload: %s" who (Wfs_util.Error.to_string e) :: errors
  in
  let errors =
    match reloaded with
    | Ok c when List.length c.windows = n_windows && n_windows > 0 -> errors
    | Ok c ->
        Printf.sprintf "%s: reloaded %d windows, wrote %d" who (List.length c.windows) n_windows
        :: errors
    | Error e -> Printf.sprintf "%s: windows reload: %s" who (Wfs_util.Error.to_string e) :: errors
  in
  (match (tally, skips) with
  | Some t, Some k ->
      let children = in_slot_ns acc + collect t + probe_span.ns + window_span.ns in
      tally_sched t acc;
      tally_skips t k;
      Tally.adds t "sim.self_s" (t3 - t2 - children);
      Tally.adds t "obs.probe_s" probe_span.ns;
      Tally.addi t "obs.samples" written;
      Tally.addi t "obs.bytes_written" (file_size trace_path);
      Tally.adds t "obs.close_s" (t4 - t3);
      Tally.adds t "obs.load_s" (t6 - t5);
      Tally.adds t "xray.window_s" window_span.ns;
      Tally.addi t "xray.windows" n_windows;
      Tally.adds t "xray.write_s" (t5 - t4);
      Tally.adds t "xray.load_s" (t7 - t6);
      Tally.adds t "aux.rows_s" (t3 - t2 + (t4 - t3) + (t5 - t4) + (t6 - t5) + (t7 - t6))
  | _ -> ());
  let fingerprint =
    flow_digest m ~backlog
    ^ Digest.to_hex (Digest.file trace_path)
    ^ Digest.to_hex (Digest.file windows_path)
  in
  Sys.remove trace_path;
  Sys.remove windows_path;
  {
    slots = o.obs_horizon;
    wall_ns = t7 - t2;
    setup_ns = t1 - t0;
    minor_words = w1 -. w0;
    fingerprint;
    errors;
    uncounted;
  }

let observed_repeat o ~seed ~tally = over_scheds o.obs_scheds (observed_run o ~seed ~tally)

(* {1 The workload table} *)

type t = {
  name : string;
  repeat : seed:int -> tally:Tally.t option -> repeat;
  twin : (seed:int -> repeat) option;
      (** the same repeat on the reference loop, untimed: its fingerprint
          must equal the fast path's *)
}

let all =
  [
    {
      name = "cell-dense";
      repeat = cell_repeat dense ~fast_path:true;
      twin = Some (fun ~seed -> cell_repeat dense ~fast_path:false ~seed ~tally:None);
    };
    {
      name = "cell-sparse";
      repeat = cell_repeat sparse ~fast_path:true;
      twin = Some (fun ~seed -> cell_repeat sparse ~fast_path:false ~seed ~tally:None);
    };
    { name = "topo-saturated"; repeat = topo_repeat saturated; twin = None };
    { name = "cell-observed"; repeat = observed_repeat observed; twin = None };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
