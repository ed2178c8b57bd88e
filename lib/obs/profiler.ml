module Sim = Wfs_core.Simulator
module Tablefmt = Wfs_util.Tablefmt

(* Bechamel's CLOCK_MONOTONIC stub: noalloc, ns since an arbitrary origin.
   Deliberately not Unix.gettimeofday (lint R1): the profiler measures
   durations, never reads wall-clock time, and nothing derived from it
   enters a result table — timings are reporting, not simulation state. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

type t = {
  (* Per-phase accumulators, preallocated: the phase hooks do integer
     stores only (plus the clock read), nothing per-call is allocated. *)
  counts : int array;
  totals : int array;
  maxs : int array;
  starts : int array;
}

let create () =
  {
    counts = Array.make Sim.n_phases 0;
    totals = Array.make Sim.n_phases 0;
    maxs = Array.make Sim.n_phases 0;
    starts = Array.make Sim.n_phases 0;
  }

let hooks t =
  {
    Sim.phase_begin = (fun p -> t.starts.(p) <- now_ns ());
    phase_end =
      (fun p ->
        let dt = now_ns () - t.starts.(p) in
        t.counts.(p) <- t.counts.(p) + 1;
        t.totals.(p) <- t.totals.(p) + dt;
        if dt > t.maxs.(p) then t.maxs.(p) <- dt);
  }


let per f n = if n = 0 then 0. else float_of_int f /. float_of_int n

let phase_table ?(title = "profile: slot phases") ~slots t =
  let table =
    Tablefmt.create ~title
      ~columns:[ "phase"; "calls"; "total ms"; "ns/call"; "ns/slot"; "max ns" ]
  in
  for p = 0 to Sim.n_phases - 1 do
    Tablefmt.add_row table
      [
        Sim.phase_name p;
        string_of_int t.counts.(p);
        Tablefmt.cell_of_float ~decimals:3 (float_of_int t.totals.(p) /. 1e6);
        Tablefmt.cell_of_float ~decimals:1 (per t.totals.(p) t.counts.(p));
        Tablefmt.cell_of_float ~decimals:1 (per t.totals.(p) slots);
        string_of_int t.maxs.(p);
      ]
  done;
  let all = Array.fold_left ( + ) 0 t.totals in
  Tablefmt.add_row table
    [
      "all";
      string_of_int (Array.fold_left ( + ) 0 t.counts);
      Tablefmt.cell_of_float ~decimals:3 (float_of_int all /. 1e6);
      "";
      Tablefmt.cell_of_float ~decimals:1 (per all slots);
      "";
    ];
  table
