(* The parallel experiment engine: pool determinism, spec round-trips, the
   JSON artifact, and the scheduler registries. *)

module Core = Wfs_core
module Spec = Wfs_runner.Spec
module Exec = Wfs_runner.Exec
module Pool = Wfs_runner.Pool
module Json = Wfs_util.Json
module Artifact = Wfs_runner.Artifact

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* --- Pool --- *)

let test_pool_matches_sequential () =
  (* Deliberately uneven work per item: late items finish first under
     parallel execution, so any completion-order dependence would show. *)
  let f i =
    let acc = ref 0 in
    for k = 0 to (100 - i) * 500 do
      acc := (!acc + (k * i)) mod 9973
    done;
    (i, !acc)
  in
  let items = Array.init 100 (fun i -> i) in
  let seq = Array.map f items in
  List.iter
    (fun jobs ->
      check_bool
        (Printf.sprintf "jobs=%d matches sequential" jobs)
        true
        (Pool.map ~jobs f items = seq))
    [ 1; 2; 4; 7 ]

let test_pool_empty_and_oversized () =
  check_int "empty input" 0 (Array.length (Pool.map ~jobs:4 (fun x -> x) [||]));
  (* More workers than items must still produce every result. *)
  let r = Pool.map ~jobs:16 (fun i -> i * i) (Array.init 3 (fun i -> i)) in
  check_bool "3 items under 16 jobs" true (r = [| 0; 1; 4 |])

exception Boom of int

let test_pool_propagates_errors () =
  let f i = if i = 5 then raise (Boom i) else i in
  (match Pool.map ~jobs:3 f (Array.init 10 (fun i -> i)) with
  | _ -> Alcotest.fail "expected Boom to escape"
  | exception Boom 5 -> ());
  (* Sequential path raises too. *)
  match Pool.map ~jobs:1 f (Array.init 10 (fun i -> i)) with
  | _ -> Alcotest.fail "expected Boom to escape (jobs=1)"
  | exception Boom 5 -> ()

(* --- Exec determinism --- *)

let fingerprint (m : Core.Metrics.t) =
  List.init (Core.Metrics.n_flows m) (fun flow ->
      ( Core.Metrics.mean_delay m ~flow,
        Core.Metrics.loss m ~flow,
        Core.Metrics.max_delay m ~flow ))

let small_specs () =
  Array.of_list
    (List.map
       (fun sched -> Spec.make ~seed:7 ~horizon:3_000 ~sched (Spec.example ~sum:0.1 1))
       [ "WRR-P"; "SwapA-P"; "IWFQ-P"; "Blind WRR"; "CIF-Q-P"; "CSDPS" ])

(* Every replica through the entry wfs_sim drives: Exec.replicas over
   Exec.run_outcome. *)
let replicas ~jobs ~seeds specs =
  Exec.replicas ~jobs ~seeds (fun sp -> Exec.run_outcome sp) specs
  |> List.map
       (Array.map (function
         | Ok m -> fingerprint m
         | Error e -> Alcotest.failf "replica failed: %s" (Wfs_util.Error.to_string e)))

let test_exec_jobs_invariant () =
  let specs = Array.to_list (small_specs ()) in
  let runs jobs = replicas ~jobs ~seeds:2 specs in
  let seq = runs 1 in
  check_bool "jobs=2 identical to jobs=1" true (runs 2 = seq);
  check_bool "jobs=4 identical to jobs=1" true (runs 4 = seq)

let test_exec_order_invariant () =
  (* Each run splits its RNG streams from its own spec seed, so results do
     not depend on what ran before them or on which domain they landed. *)
  let specs = Array.to_list (small_specs ()) in
  let fwd = replicas ~jobs:2 ~seeds:1 specs in
  let bwd = replicas ~jobs:2 ~seeds:1 (List.rev specs) in
  check_bool "same results in reversed order" true (fwd = List.rev bwd)

let test_exec_replicate () =
  let spec = Spec.make ~seed:3 ~horizon:2_000 ~sched:"SwapA-P" (Spec.example 1) in
  let other = Spec.with_seed 11 (Spec.make ~seed:3 ~horizon:2_000 ~sched:"CIF-Q-P" (Spec.example 2)) in
  let groups = replicas ~jobs:2 ~seeds:3 [ spec; other ] in
  check_int "one group per spec" 2 (List.length groups);
  List.iter2
    (fun (sp : Spec.t) reps ->
      check_int "three replicas" 3 (Array.length reps);
      Array.iteri
        (fun k fp ->
          let solo = Exec.run (Spec.with_seed (sp.seed + k) sp) in
          check_bool
            (Printf.sprintf "%s replica %d = standalone seed %d" sp.sched k
               (sp.seed + k))
            true
            (fp = fingerprint solo))
        reps)
    [ spec; other ] groups;
  Alcotest.check_raises "seeds must be >= 1"
    (Invalid_argument "Exec.replicas: seeds must be >= 1, got 0") (fun () ->
      ignore (Exec.replicas ~jobs:1 ~seeds:0 (fun sp -> Exec.run_outcome sp) [ spec ]))

(* --- checkpoint/resume --- *)

let test_journal_truncate_resume () =
  (* Full sweep journaling every result; truncate the journal after N
     entries (a killed run); resume from it.  The merged, rendered output
     must be byte-identical to the uninterrupted sweep. *)
  let specs =
    List.map
      (fun sched -> Spec.make ~seed:13 ~horizon:2_000 ~sched (Spec.example 1))
      [ "WRR-P"; "SwapA-P"; "IWFQ-P"; "CIF-Q-P"; "CSDPS" ]
  in
  let render sp m =
    Spec.to_string sp ^ " => "
    ^ Wfs_util.Json.to_string ~pretty:false (Core.Metrics.to_json m)
  in
  let uninterrupted = List.map (fun sp -> render sp (Exec.run sp)) specs in
  let path = Filename.temp_file "wfs_resume" ".journal" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let params = [ ("horizon", Wfs_util.Json.Int 2_000) ] in
      let w = Wfs_runner.Journal.create ~path ~params () in
      List.iter
        (fun sp ->
          Wfs_runner.Journal.append w ~key:(Spec.to_string sp)
            ~value:(Core.Metrics.to_json (Exec.run sp)))
        specs;
      Wfs_runner.Journal.close w;
      (* Kill the sweep after N = 3 completed entries: keep the header line
         plus the first three entry lines. *)
      let lines =
        let ic = open_in path in
        let rec go acc =
          match input_line ic with
          | line -> go (line :: acc)
          | exception End_of_file ->
              close_in ic;
              List.rev acc
        in
        go []
      in
      let keep = List.filteri (fun i _ -> i < 4) lines in
      let oc = open_out path in
      List.iter (fun l -> output_string oc (l ^ "\n")) keep;
      close_out oc;
      match Wfs_runner.Journal.load ~path () with
      | Error e ->
          Alcotest.failf "truncated journal must load: %s"
            (Wfs_util.Error.to_string e)
      | Ok { entries; _ } ->
          check_int "three entries survive the kill" 3 (List.length entries);
          let cached = Hashtbl.create 8 in
          List.iter (fun (k, v) -> Hashtbl.replace cached k v) entries;
          let resumed =
            List.map
              (fun sp ->
                match Hashtbl.find_opt cached (Spec.to_string sp) with
                | Some v ->
                    render sp (Option.get (Core.Metrics.of_json v))
                | None -> render sp (Exec.run sp))
              specs
          in
          List.iter2
            (check_str "resumed output byte-identical")
            uninterrupted resumed)

(* Journal.resume, the helper bench sweeps and topology runs open their
   journals with: create when absent, reload with the entries when the
   settings match, refuse when they differ. *)
let test_journal_resume () =
  let path = Filename.temp_file "wfs_resume" ".journal" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let params = [ ("horizon", Json.Int 2_000); ("seed", Json.Int 1) ] in
      let resume params = Wfs_runner.Journal.resume ~who:"test" ~path ~params () in
      let w, fresh = resume params in
      check_int "fresh journal is empty" 0 (List.length fresh.entries);
      Wfs_runner.Journal.append w ~key:"a" ~value:(Json.Int 1);
      Wfs_runner.Journal.close w;
      (* Key order does not matter, values do. *)
      let w, held = resume (List.rev params) in
      Wfs_runner.Journal.close w;
      check_bool "entries come back" true (held.entries = [ ("a", Json.Int 1) ]);
      match resume [ ("horizon", Json.Int 2_000); ("seed", Json.Int 2) ] with
      | _ -> Alcotest.fail "different settings accepted"
      | exception Wfs_util.Error.Error e ->
          check_str "who" "test" e.Wfs_util.Error.who;
          check_str "what" "journal was written for different settings"
            e.Wfs_util.Error.what)

(* --- Spec round-trip --- *)

let roundtrip sp =
  match Spec.of_string (Spec.to_string sp) with
  | Ok sp' ->
      check_bool (Printf.sprintf "round-trip %s" (Spec.to_string sp)) true
        (Spec.equal sp sp')
  | Error e -> Alcotest.failf "round-trip failed on %S: %s" (Spec.to_string sp) e

let test_spec_roundtrip () =
  roundtrip (Spec.make ~sched:"WPS" (Spec.example 1));
  roundtrip (Spec.make ~seed:0 ~horizon:1 ~sched:"IWFQ-I" (Spec.example ~sum:0.25 2));
  roundtrip (Spec.make ~seed:(-3) ~sched:"Blind WRR" (Spec.example 6));
  roundtrip
    (Spec.make ~seed:7 ~horizon:50_000 ~sched:"CIF-Q"
       (Spec.file "examples/cell.scenario"));
  (* Whitespace-insensitive parse. *)
  (match Spec.of_string "example:1|WPS|seed=42|horizon=1000" with
  | Ok sp ->
      check_str "sched kept verbatim" "WPS" sp.Spec.sched;
      check_int "horizon" 1_000 sp.Spec.horizon
  | Error e -> Alcotest.failf "compact form rejected: %s" e);
  List.iter
    (fun bad ->
      match Spec.of_string bad with
      | Ok _ -> Alcotest.failf "accepted malformed spec %S" bad
      | Error _ -> ())
    [
      "";
      "garbage";
      "example:1 | WPS | seed=42";  (* missing horizon *)
      "example:9 | WPS | seed=1 | horizon=10";  (* unknown example *)
      "example:3?sum=0.1 | WPS | seed=1 | horizon=10";  (* sum needs ex 1-2 *)
      "example:1 | WPS | seed=x | horizon=10";
      "example:1 | WPS | seed=1 | horizon=0";
    ]

let test_spec_defaults_and_builder () =
  let sp = Spec.make ~sched:"WPS" (Spec.example 1) in
  check_int "default seed" Spec.default_seed sp.Spec.seed;
  check_int "default horizon" Spec.default_horizon sp.Spec.horizon;
  let sp' = Spec.with_sched "IWFQ" (Spec.with_horizon 5 (Spec.with_seed 9 sp)) in
  check_int "with_seed" 9 sp'.Spec.seed;
  check_int "with_horizon" 5 sp'.Spec.horizon;
  check_str "with_sched" "IWFQ" sp'.Spec.sched;
  (match Spec.example ~sum:0.5 3 with
  | _ -> Alcotest.fail "sum outside examples 1-2 must be rejected"
  | exception Invalid_argument _ -> ());
  match Spec.make ~horizon:0 ~sched:"WPS" (Spec.example 1) with
  | _ -> Alcotest.fail "non-positive horizon must be rejected"
  | exception Invalid_argument _ -> ()

let test_spec_of_scenario_file () =
  let path = Filename.temp_file "wfs_spec" ".scenario" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc
        "horizon 12345\nseed 9\nflow weight=1 source=cbr:2 channel=good\n";
      close_out oc;
      let sp = Spec.of_scenario_file path in
      check_int "seed lifted from file" 9 sp.Spec.seed;
      check_int "horizon lifted from file" 12_345 sp.Spec.horizon;
      check_str "default sched" "WPS" sp.Spec.sched;
      roundtrip sp;
      let over = Spec.of_scenario_file ~seed:3 ~horizon:500 path in
      check_int "seed override wins over the directive" 3 over.Spec.seed;
      check_int "horizon override wins over the directive" 500
        over.Spec.horizon;
      let seed_only = Spec.of_scenario_file ~seed:3 path in
      check_int "horizon directive kept without an override" 12_345
        seed_only.Spec.horizon)

(* --- Json --- *)

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [
        ("null", Json.Null);
        ("yes", Json.Bool true);
        ("no", Json.Bool false);
        ("int", Json.Int (-42));
        ("floats", Json.Arr (List.map (fun f -> Json.Float f)
             [ 0.1; -3.25; 1e-9; 1.7976931348623157e308; 12345.6789; 2. ]));
        ("str", Json.Str "line\nbreak \"quoted\" \\ tab\t");
        ("empty_arr", Json.Arr []);
        ("empty_obj", Json.Obj []);
        ("nested", Json.Obj [ ("a", Json.Arr [ Json.Obj [ ("b", Json.Int 1) ] ]) ]);
      ]
  in
  let text = Json.to_string doc in
  (match Json.of_string text with
  | Ok doc' -> check_str "reparse then reprint" text (Json.to_string doc')
  | Error e -> Alcotest.failf "round-trip parse failed: %s" e);
  List.iter
    (fun bad ->
      match Json.of_string bad with
      | Ok _ -> Alcotest.failf "accepted malformed JSON %S" bad
      | Error _ -> ())
    [
      "";
      "{";
      "[1,]";
      "{\"a\":}";
      "tru";
      "\"unterminated";
      "{\"a\":1} x";
      (* [int_of_string] reads '_' as a digit separator; a \u escape takes
         exactly four hex digits. *)
      {|"\u1_2_"|};
      (* Overflows to inf, which the writer could not print back as JSON. *)
      "1e999";
      "[-1e999]";
    ]

let test_json_float_fidelity () =
  List.iter
    (fun f ->
      let s = Json.float_to_string f in
      check_bool (Printf.sprintf "%s restores bits" s) true
        (Float.equal (float_of_string s) f))
    [ 0.1; 0.2; 0.3; 1. /. 3.; 1e-300; 123456789.123456789; 2.5e-8 ]

(* --- Json writer against the Printf-based reference ---

   A copy of the writer as it was before it learned to write numbers and
   strings straight into its buffer.  The codec must reproduce its bytes
   exactly: every committed artifact was written by it. *)

module Ref_json = struct
  let float_to_string x =
    if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
    else begin
      let short = Printf.sprintf "%.12g" x in
      if float_of_string short = x then short else Printf.sprintf "%.17g" x
    end

  let escape_string buf s =
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'

  let to_string ~pretty v =
    let buf = Buffer.create 1024 in
    let indent depth =
      if pretty then begin
        Buffer.add_char buf '\n';
        Buffer.add_string buf (String.make (2 * depth) ' ')
      end
    in
    let rec go depth v =
      match v with
      | Json.Null -> Buffer.add_string buf "null"
      | Json.Bool b -> Buffer.add_string buf (if b then "true" else "false")
      | Json.Int i -> Buffer.add_string buf (string_of_int i)
      | Json.Float x -> Buffer.add_string buf (float_to_string x)
      | Json.Str s -> escape_string buf s
      | Json.Arr [] -> Buffer.add_string buf "[]"
      | Json.Arr items ->
          Buffer.add_char buf '[';
          List.iteri
            (fun i item ->
              if i > 0 then Buffer.add_char buf ',';
              indent (depth + 1);
              go (depth + 1) item)
            items;
          indent depth;
          Buffer.add_char buf ']'
      | Json.Obj [] -> Buffer.add_string buf "{}"
      | Json.Obj fields ->
          Buffer.add_char buf '{';
          List.iteri
            (fun i (k, item) ->
              if i > 0 then Buffer.add_char buf ',';
              indent (depth + 1);
              escape_string buf k;
              Buffer.add_string buf (if pretty then ": " else ":");
              go (depth + 1) item)
            fields;
          indent depth;
          Buffer.add_char buf '}'
    in
    go 0 v;
    Buffer.contents buf
end

let edge_floats =
  [
    0.;
    -0.;
    1e15 -. 1.;
    -.(1e15 -. 1.);
    1e15;
    -1e15;
    Float.ldexp 1. 53;
    -.Float.ldexp 1. 53;
    Float.min_float;
    Float.min_float /. 3.;
    5e-324;
    -5e-324;
    Float.max_float;
    -.Float.max_float;
    0.1;
    -0.1;
    1. /. 3.;
    817.25000000000318;
    123456789.123456789;
  ]

let gen_json ~finite =
  let open QCheck.Gen in
  let gen_float =
    let any =
      if finite then map (fun x -> if Float.is_finite x then x else 0.5) float
      else float
    in
    frequency
      [
        (3, oneofl edge_floats);
        (3, any);
        (2, map (fun (a, b) -> float_of_int a /. float_of_int b) (pair int (1 -- 64)));
        (1, map float_of_int int);
      ]
  in
  let gen_int =
    frequency
      [ (1, oneofl [ min_int; max_int; min_int + 1; max_int - 1 ]); (3, -9 -- 10); (3, int) ]
  in
  let gen_string =
    let byte =
      frequency
        [
          (6, char_range 'a' 'z');
          (1, oneofl [ '"'; '\\'; '/'; '\n'; '\r'; '\t' ]);
          (1, map Char.chr (0 -- 0x1f));
          (1, map Char.chr (0x80 -- 0xff));
        ]
    in
    string_size ~gen:byte (0 -- 10)
  in
  let leaf =
    frequency
      [
        (1, return Json.Null);
        (1, map (fun b -> Json.Bool b) bool);
        (3, map (fun i -> Json.Int i) gen_int);
        (4, map (fun x -> Json.Float x) gen_float);
        (2, map (fun s -> Json.Str s) gen_string);
      ]
  in
  let tree =
    fix (fun self depth ->
        if depth = 0 then leaf
        else
          frequency
            [
              (2, leaf);
              (1, map (fun l -> Json.Arr l) (list_size (0 -- 4) (self (depth - 1))));
              ( 1,
                map
                  (fun l -> Json.Obj l)
                  (list_size (0 -- 4) (pair gen_string (self (depth - 1)))) );
            ])
  in
  QCheck.make
    ~print:(fun v -> Ref_json.to_string ~pretty:false v)
    (0 -- 4 >>= tree)

let prop_json_writer_matches_reference =
  QCheck.Test.make ~count:2000 ~name:"json writer matches the Printf reference"
    (gen_json ~finite:false)
    (fun v ->
      String.equal (Json.to_string ~pretty:false v) (Ref_json.to_string ~pretty:false v)
      && String.equal (Json.to_string ~pretty:true v) (Ref_json.to_string ~pretty:true v))

(* Structural equality with floats compared by [Float.equal] and sign, so
   a lost [-0.0] sign shows.  An integral float of magnitude >= 1e15 that
   [%.12g] cannot restore is written as bare [%.17g] digits, which read
   back as an [Int]; {!Json.to_float} treats the two alike, and so does
   this. *)
let rec json_equal a b =
  match (a, b) with
  | Json.Null, Json.Null -> true
  | Json.Bool x, Json.Bool y -> Bool.equal x y
  | Json.Int x, Json.Int y -> Int.equal x y
  | Json.Float x, Json.Float y ->
      Float.equal x y && Bool.equal (Float.sign_bit x) (Float.sign_bit y)
  | Json.Float x, Json.Int i ->
      Float.abs x >= 1e15 && Float.equal x (float_of_int i)
  | Json.Str x, Json.Str y -> String.equal x y
  | Json.Arr xs, Json.Arr ys -> List.equal json_equal xs ys
  | Json.Obj xs, Json.Obj ys ->
      List.equal (fun (k, x) (k', y) -> String.equal k k' && json_equal x y) xs ys
  | _ -> false

let prop_json_roundtrip =
  QCheck.Test.make ~count:2000 ~name:"json of_string inverts to_string"
    (gen_json ~finite:true)
    (fun v ->
      List.for_all
        (fun pretty ->
          match Json.of_string (Json.to_string ~pretty v) with
          | Ok v' -> json_equal v v'
          | Error _ -> false)
        [ false; true ])

let test_json_long_integers () =
  (* Past 18 digits an integer leaves the inline accumulator for
     [int_of_string_opt]: it still parses while it fits an int and is
     rejected once it does not. *)
  let parses text v =
    match Json.of_string text with
    | Ok v' -> check_bool (text ^ " parses") true (json_equal v v')
    | Error e -> Alcotest.failf "rejected %S: %s" text e
  in
  parses "1234567890123456789" (Json.Int 1234567890123456789);
  parses "[-1234567890123456789]" (Json.Arr [ Json.Int (-1234567890123456789) ]);
  parses (string_of_int min_int) (Json.Int min_int);
  parses (string_of_int max_int) (Json.Int max_int);
  parses "-999999999999999999" (Json.Int (-999999999999999999));
  List.iter
    (fun text ->
      match Json.of_string text with
      | Ok _ -> Alcotest.failf "accepted overflowing integer %S" text
      | Error _ -> ())
    [ "9999999999999999999"; "-9999999999999999999"; "123456789012345678901234" ]

(* --- Artifact --- *)

let sample_artifact () =
  Artifact.v ~horizon:20_000 ~seed:42 ~seeds:3 ~jobs:4 ~runs:130 ~slots:2_600_000
    ~wall_clock_s:3.25
    ~tables:
      [
        {
          Artifact.title = "Table 1 (measured)";
          columns = [ "alg"; "d1"; "l1" ];
          rows = [ [ "WRR-P"; "31.1"; "0" ]; [ "SwapA-P"; "22.5±1.2"; "0" ] ];
        };
        { Artifact.title = "empty"; columns = []; rows = [] };
      ]

let test_artifact_roundtrip () =
  let art = sample_artifact () in
  check_bool "slots_per_sec derived" true
    (Float.equal art.Artifact.slots_per_sec (2_600_000. /. 3.25));
  let path = Filename.temp_file "wfs_bench" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Artifact.write ~path art;
      match Artifact.read path with
      | Ok art' -> check_bool "read back equal" true (Artifact.equal art art')
      | Error e -> Alcotest.failf "artifact read failed: %s" e)

let test_artifact_rejects_bad_schema () =
  let json =
    Artifact.to_json (sample_artifact ())
    |> function
    | Json.Obj fields ->
        Json.Obj
          (List.map
             (fun (k, v) ->
               if String.equal k "schema" then (k, Json.Str "wfs-bench/999")
               else (k, v))
             fields)
    | j -> j
  in
  match Artifact.of_json json with
  | Ok _ -> Alcotest.fail "unknown schema version must be rejected"
  | Error _ -> ()

(* --- Registries --- *)

let test_registry_lookup () =
  let e = Core.Registry.get "wps" in
  check_str "WPS aliases SwapA-P (case-insensitive)" "SwapA-P" e.Core.Registry.name;
  check_str "IWFQ alias" "IWFQ-P" (Core.Registry.get "iwfq").Core.Registry.name;
  check_str "CIF-Q alias" "CIF-Q-P" (Core.Registry.get "CIFQ").Core.Registry.name;
  check_bool "mem canonical" true (Core.Registry.mem "Blind WRR");
  check_bool "mem unknown" false (Core.Registry.mem "PGPS");
  (match Core.Registry.get "nope" with
  | _ -> Alcotest.fail "unknown name must raise"
  | exception Invalid_argument msg ->
      check_bool "error lists known names" true
        (String.length msg > 0
        && String.length (String.concat "" [ msg ]) > 20));
  let names = Core.Registry.names () in
  check_int "no duplicate canonical names"
    (List.length names)
    (List.length (List.sort_uniq String.compare names));
  (* names() enumerates each scheduler once: aliases must not add rows. *)
  check_bool "WPS not a separate row" true
    (not (List.exists (String.equal "WPS") names))

let test_registry_predictors () =
  let kind name = (Core.Registry.get name).Core.Registry.predictor in
  check_bool "-I rows are oracle" true
    (kind "SwapA-I" = Wfs_channel.Predictor.Perfect);
  check_bool "-P rows are one-step" true
    (kind "SwapA-P" = Wfs_channel.Predictor.One_step);
  check_bool "blind WRR is blind" true
    (kind "Blind WRR" = Wfs_channel.Predictor.Blind)

(* The store contract wfsbench's traced entries rely on: collisions on a
   name or alias are refused case-insensitively (before anything is
   stored), unknown names are typed [Bad_config] misses listing the known
   names, and enumeration follows registration order. *)
let test_registry_contract () =
  let module R = Core.Registry in
  let base = R.get "SwapA-P" in
  let refused key e =
    Alcotest.check_raises key
      (Invalid_argument
         (Printf.sprintf "Registry.register: %S is already registered" key))
      (fun () -> R.register e)
  in
  refused "swapa-p" { base with name = "swapa-p"; aliases = [] };
  refused "wps" { base with name = "contract-fresh"; aliases = [ "Wps" ] };
  check_bool "a refused entry is not stored" false (R.mem "contract-fresh");
  (match R.lookup "no-such-scheduler" with
  | Ok _ -> Alcotest.fail "unknown name must miss"
  | Error e ->
      check_str "kind" "bad-config" (Wfs_util.Error.kind_to_string e.kind);
      check_str "known names in context"
        (String.concat ", " (R.names ()))
        (List.assoc "known" e.context));
  let before = R.names () in
  R.register { base with name = "Contract-Probe"; aliases = [ "cprobe" ] };
  Alcotest.(check (list string))
    "registration order is enumeration order"
    (before @ [ "Contract-Probe" ])
    (R.names ());
  check_str "entries end with it" "Contract-Probe"
    (List.nth (R.entries ()) (List.length before)).name;
  check_str "alias resolves" "Contract-Probe" (R.get "CPROBE").name

(* Resuming a journal whose last append was torn: [reopen] must cut the
   fragment off, so the first new entry lands on a line of its own and the
   file loads again — old entries plus the new ones — on every later
   resume.  A final entry that lost only its newline is kept, and the
   next entry starts after it. *)
let test_journal_reopen_after_torn_tail () =
  let module Journal = Wfs_runner.Journal in
  let path = Filename.temp_file "wfs_reopen" ".journal" in
  let append_raw s =
    Out_channel.with_open_gen [ Open_append; Open_binary ] 0o644 path
      (fun oc -> output_string oc s)
  in
  let keys () =
    match Journal.load ~path () with
    | Ok { entries; _ } -> List.map fst entries
    | Error e -> Alcotest.failf "load: %s" (Wfs_util.Error.to_string e)
  in
  let resume key =
    let w = Journal.reopen ~path in
    Journal.append w ~key ~value:(Json.Int 0);
    Journal.close w
  in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let w = Journal.create ~path ~params:[] () in
      Journal.append w ~key:"a" ~value:(Json.Int 1);
      Journal.append w ~key:"b" ~value:(Json.Int 2);
      Journal.close w;
      append_raw "{\"key\":\"torn";
      Alcotest.(check (list string)) "torn tail dropped" [ "a"; "b" ] (keys ());
      resume "c";
      Alcotest.(check (list string)) "first resume" [ "a"; "b"; "c" ] (keys ());
      resume "d";
      Alcotest.(check (list string))
        "second resume" [ "a"; "b"; "c"; "d" ] (keys ());
      append_raw "{\"key\":\"e\",\"value\":5}";
      resume "f";
      Alcotest.(check (list string))
        "unterminated entry kept" [ "a"; "b"; "c"; "d"; "e"; "f" ] (keys ()))

let suite =
  [
    ("pool matches sequential", `Quick, test_pool_matches_sequential);
    ("pool edge cases", `Quick, test_pool_empty_and_oversized);
    ("pool propagates errors", `Quick, test_pool_propagates_errors);
    ("exec invariant under jobs", `Slow, test_exec_jobs_invariant);
    ("exec invariant under order", `Slow, test_exec_order_invariant);
    ("exec replicate", `Slow, test_exec_replicate);
    ("journal truncate and resume", `Slow, test_journal_truncate_resume);
    ("journal resume refuses different settings", `Quick, test_journal_resume);
    ("journal reopen after a torn tail", `Quick,
     test_journal_reopen_after_torn_tail);
    ("spec round-trip", `Quick, test_spec_roundtrip);
    ("spec defaults and builder", `Quick, test_spec_defaults_and_builder);
    ("spec from scenario file", `Quick, test_spec_of_scenario_file);
    ("json round-trip", `Quick, test_json_roundtrip);
    ("json float fidelity", `Quick, test_json_float_fidelity);
    ("json long integers", `Quick, test_json_long_integers);
    QCheck_alcotest.to_alcotest prop_json_writer_matches_reference;
    QCheck_alcotest.to_alcotest prop_json_roundtrip;
    ("artifact round-trip", `Quick, test_artifact_roundtrip);
    ("artifact schema check", `Quick, test_artifact_rejects_bad_schema);
    ("registry lookup", `Quick, test_registry_lookup);
    ("registry predictors", `Quick, test_registry_predictors);
    ("registry contract", `Quick, test_registry_contract);
  ]
