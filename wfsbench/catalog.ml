(* Every metric the benchmark prints, with its unit and direction.
   BENCHMARK.json declares the same lists; the benchmark's own test keeps
   the two in step. *)

type better = Lower | Higher
type decl = { name : string; unit : string; better : better }

let d better unit name = { name; unit; better }
let lo = d Lower
let hi = d Higher

(* Printed with --trace 0. *)
let end_to_end =
  [ hi "1/s" "slots_per_s"; lo "s" "setup_s"; lo "MB" "peak_heap_mb" ]

(* Printed with --trace 1.  A layer a workload does not exercise reads 0. *)
let per_layer =
  [
    lo "s" "sim.self_s";
    hi "count" "sim.slots";
    hi "count" "sim.absorbed_slots";
    hi "count" "sim.absorbed_windows";
    lo "count" "sim.declined_windows";
    hi "ratio" "sim.window_accept_ratio";
    lo "count" "sim.reference_slots";
    lo "words/slot" "sim.minor_words_per_slot";
    lo "s" "sched.select_s";
    lo "count" "sched.select_calls";
    hi "ratio" "sched.select_hit_ratio";
    lo "s" "sched.enqueue_s";
    lo "count" "sched.enqueue_calls";
    lo "s" "sched.outcome_s";
    lo "s" "sched.drop_expired_s";
    lo "s" "sched.slot_end_s";
    lo "s" "sched.quiescent_s";
    lo "count" "sched.quiescent_calls";
    hi "ratio" "sched.quiescent_absorb_ratio";
    lo "s" "sched.make_s";
    lo "count" "sched.make_calls";
    lo "s" "traffic.arrivals_s";
    lo "count" "traffic.arrivals_calls";
    lo "s" "traffic.next_event_s";
    lo "count" "traffic.next_event_calls";
    hi "count" "traffic.packets";
    lo "s" "channel.advance_s";
    lo "count" "channel.advance_calls";
    lo "s" "channel.bulk_s";
    hi "count" "channel.bulk_slots";
    lo "s" "topo.compute_s";
    lo "s" "topo.barrier_s";
    lo "ratio" "topo.barrier_share";
    lo "s" "topo.merge_s";
    lo "count" "topo.epochs";
    lo "s" "topo.epoch_p50_s";
    lo "s" "topo.epoch_p90_s";
    lo "count" "topo.handoffs";
    lo "count" "topo.drained_pkts";
    lo "count" "topo.drained_per_handoff";
    lo "s" "topo.drain_s";
    lo "count" "topo.rebuilds";
    lo "s" "topo.carry_s";
    lo "s" "obs.probe_s";
    lo "ratio" "obs.probe_share";
    hi "count" "obs.samples";
    lo "bytes" "obs.bytes_written";
    lo "s" "obs.close_s";
    lo "s" "obs.load_s";
    lo "s" "xray.window_s";
    hi "count" "xray.windows";
    lo "s" "xray.write_s";
    lo "s" "xray.load_s";
    lo "ratio" "trace.overhead_ratio";
    hi "ratio" "trace.accounted_share";
  ]

let better_to_string = function Lower -> "lower" | Higher -> "higher"
