(* The repository benchmark: one workload per invocation.

     wfsbench --workload NAME --seed N --seconds S --trace 0|1

   See Harness for what a run measures and checks, and README.md for the
   workloads and metrics. *)

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref 10 and trace = ref 0 in
  let profile = ref "unknown" and flambda = ref "unknown" and rev = ref "unknown" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--stamp-profile", Arg.Set_string profile, "P dune profile the binary was built with");
      ("--stamp-flambda", Arg.Set_string flambda, "B whether the compiler has flambda");
      ("--stamp-rev", Arg.Set_string rev, "R source revision");
    ]
  in
  let usage = "wfsbench --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !workload = "" || !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    Arg.usage spec usage;
    exit 2
  end;
  Harness.main ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:!trace ~profile:!profile
    ~flambda:!flambda ~rev:!rev
