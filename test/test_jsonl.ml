(* The Jsonl framing, checked once per schema: every line-oriented
   artifact is written by its own writer and read back by its own loader,
   and each must obey the same torn-tail rule and give the same errors. *)

module Json = Wfs_util.Json
module Error = Wfs_util.Error
module Trace = Wfs_obs.Trace
module Sink = Wfs_obs.Sink
module Mux = Wfs_xray.Mux
module Causality = Wfs_xray.Causality
module Windowed = Wfs_xray.Windowed
module Journal = Wfs_runner.Journal
module Topo_journal = Wfs_topo.Topo_journal
module Chaos = Wfs_chaos.Chaos

type row = {
  name : string;
  schema : string;
  who : string;
  write : string -> unit;  (** a valid file with at least two lines *)
  count : string -> (int, Error.t) result;  (** load; lines decoded *)
  contradiction : string option;
      (** a well-formed line that contradicts the header [write] wrote *)
}

let sample slot =
  {
    Trace.slot;
    selected = Some 0;
    virtual_time = Some 0.5;
    lag_sum = None;
    flows = [| { Trace.queue = slot; good = true; tag = Some 1.5; credit = None } |];
  }

let window i =
  {
    Windowed.index = i;
    start_slot = i * 10;
    end_slot = (i + 1) * 10;
    flows = 2;
    jain = 1.0;
    gap = 0.0;
    arrivals = 3;
    delivered = 2;
    dropped = 1;
    backlog = 0;
    loss = 0.25;
  }

let count_of load path = Result.map List.length (load path)

let rows =
  [
    {
      name = "trace";
      schema = Trace.schema;
      who = "Trace.load";
      write =
        (fun path ->
          let sink = Sink.jsonl ~path (Trace.header ~n_flows:1 ()) in
          List.iter (fun s -> Sink.write sink (sample s)) [ 0; 1; 2 ];
          Sink.close sink);
      count =
        count_of (fun path ->
            Result.map (fun c -> c.Trace.samples) (Trace.load ~path));
      contradiction =
        (let buf = Buffer.create 64 in
         Trace.add_sample buf
           { (sample 3) with Trace.flows = Array.make 2 (sample 3).Trace.flows.(0) };
         Some (Buffer.contents buf));
    };
    {
      name = "xray-trace";
      schema = Mux.schema;
      who = "Mux.load";
      write =
        (fun path ->
          let mux = Mux.create ~cells:2 ~part_base:path () in
          List.iter
            (fun slot -> Mux.note_roster mux ~cell:(slot mod 2) ~slot ~gids:[| slot |])
            [ 0; 1; 2 ];
          Mux.finish mux ~n_flows:3 ~jsonl:path ());
      count =
        count_of (fun path -> Result.map (fun c -> c.Mux.entries) (Mux.load ~path));
      contradiction =
        Some (Mux.entry_to_string (Mux.Roster { cell = 2; slot = 3; gids = [| 0 |] }));
    };
    {
      name = "causality";
      schema = Causality.schema;
      who = "Causality.load";
      write =
        (fun path ->
          Causality.write ~path
            (List.map
               (fun slot -> Causality.Rehome { slot; flow = 1; dst = 0 })
               [ 0; 1; 2 ]));
      count = count_of (fun path -> Causality.load ~path);
      contradiction = None;
    };
    {
      name = "windows";
      schema = Windowed.schema;
      who = "Windowed.load";
      write = (fun path -> Windowed.write ~path ~window:10 (List.map window [ 0; 1; 2 ]));
      count =
        count_of (fun path ->
            Result.map (fun c -> c.Windowed.windows) (Windowed.load ~path));
      contradiction = None;
    };
    {
      name = "bench journal";
      schema = Journal.schema;
      who = "Journal.load";
      write =
        (fun path ->
          let w = Journal.create ~path ~params:[ ("seed", Json.Int 1) ] () in
          List.iter (fun k -> Journal.append w ~key:k ~value:(Json.Int 0)) [ "a"; "b"; "c" ];
          Journal.close w);
      count =
        count_of (fun path ->
            Result.map (fun c -> c.Journal.entries) (Journal.load ~path ()));
      contradiction = None;
    };
    {
      name = "topology journal";
      schema = Topo_journal.schema;
      who = "Journal.load";
      write =
        (fun path ->
          (* resume creates the journal only where no file exists yet *)
          Sys.remove path;
          let j = Topo_journal.resume ~path ~params:[ ("credit", Json.Int 4) ] in
          List.iter
            (fun slot -> Topo_journal.barrier j ~spec:"s" ~slot (Json.Int slot))
            [ 100; 200; 300 ];
          Topo_journal.close j);
      count =
        count_of (fun path ->
            Result.map
              (fun c -> List.concat_map snd c.Topo_journal.snapshots)
              (Topo_journal.load ~path));
      contradiction = None;
    };
    {
      name = "chaos timeline";
      schema = Chaos.timeline_schema;
      who = "Chaos.load_timeline";
      write =
        (fun path ->
          Chaos.write_timeline ~path
            [
              ( "spec-a",
                [
                  { Chaos.slot = 500; fault = Chaos.Cell_crash { cell = 1 } };
                  { Chaos.slot = 1000; fault = Chaos.Cell_recover { cell = 1 } };
                ] );
              ("spec-b", [ { Chaos.slot = 500; fault = Chaos.Blackout { cell = 0; until = 600 } } ]);
            ]);
      count = count_of (fun path -> Chaos.load_timeline ~path);
      contradiction = None;
    };
  ]

(* --- file surgery --- *)

let read_lines path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let write_lines path lines =
  Out_channel.with_open_bin path (fun oc ->
      List.iter (fun l -> output_string oc l; output_char oc '\n') lines)

let with_file f =
  let path = Filename.temp_file "wfs_jsonl" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let expect_error row ~what ?line result =
  match result with
  | Ok n -> Alcotest.failf "%s: loaded %d lines, expected %S" row.name n what
  | Error (e : Error.t) ->
      Alcotest.(check string) (row.name ^ ": kind") "bad-spec"
        (Error.kind_to_string e.Error.kind);
      Alcotest.(check string) (row.name ^ ": who") row.who e.Error.who;
      Alcotest.(check string) (row.name ^ ": what") what e.Error.what;
      Option.iter
        (fun line ->
          Alcotest.(check (option string))
            (row.name ^ ": line") (Some line)
            (List.assoc_opt "line" e.Error.context))
        line

let valid_count row path =
  row.write path;
  match row.count path with
  | Ok n -> n
  | Error e -> Alcotest.failf "%s: valid file refused: %s" row.name (Error.to_string e)

let torn_final_line row () =
  with_file (fun path ->
      let n = valid_count row path in
      Out_channel.with_open_gen [ Open_append; Open_binary ] 0o644 path (fun oc ->
          output_string oc "{\"torn");
      match row.count path with
      | Ok m -> Alcotest.(check int) (row.name ^ ": torn line dropped") n m
      | Error e -> Alcotest.failf "%s: torn tail refused: %s" row.name (Error.to_string e))

let garbage_middle_line row () =
  with_file (fun path ->
      ignore (valid_count row path);
      (match read_lines path with
      | header :: first :: rest -> write_lines path (header :: first :: "garbage" :: rest)
      | _ -> Alcotest.failf "%s: writer produced under two lines" row.name);
      expect_error row ~what:"corrupt line before end of file" ~line:"3" (row.count path))

let wrong_schema row () =
  with_file (fun path ->
      ignore (valid_count row path);
      (* Jsonl writes the schema as the header's first field. *)
      let prefix = Printf.sprintf "{\"schema\":%S" row.schema in
      (match read_lines path with
      | header :: rest when String.starts_with ~prefix header ->
          let n = String.length prefix in
          write_lines path
            (("{\"schema\":\"wfs-other/1\"" ^ String.sub header n (String.length header - n))
            :: rest)
      | _ -> Alcotest.failf "%s: header does not open with its schema" row.name);
      expect_error row ~what:(Printf.sprintf "header is not a %s header" row.schema)
        (row.count path))

let empty_file row () =
  with_file (fun path ->
      write_lines path [];
      expect_error row
        ~what:(Printf.sprintf "empty %s file (no header)" row.schema)
        (row.count path))

let missing_file row () =
  let path = Filename.concat (Filename.get_temp_dir_name ()) "wfs-jsonl-missing.jsonl" in
  match row.count path with
  | Ok _ -> Alcotest.failf "%s: missing file loaded" row.name
  | Error e ->
      Alcotest.(check string) (row.name ^ ": kind") "bad-spec"
        (Error.kind_to_string e.Error.kind);
      Alcotest.(check (option string)) (row.name ^ ": path") (Some path)
        (List.assoc_opt "path" e.Error.context)

(* A line that contradicts the header is refused even as the final line,
   where an undecodable one would be dropped. *)
let contradiction row line () =
  with_file (fun path ->
      ignore (valid_count row path);
      let lines = read_lines path in
      write_lines path (lines @ [ line ]);
      match row.count path with
      | Ok _ -> Alcotest.failf "%s: contradicting final line accepted" row.name
      | Error e ->
          Alcotest.(check (option string)) (row.name ^ ": line")
            (Some (string_of_int (List.length lines + 1)))
            (List.assoc_opt "line" e.Error.context))

(* --- the typed decoders against the tree oracle (test/trace_oracle.ml) --- *)

module Oracle = Trace_oracle

(* Under [dune runtest] the tests run in test/; by hand, from the root. *)
let golden name =
  match
    List.find_opt Sys.file_exists
      [ Filename.concat "golden" name; Filename.concat "test/golden" name ]
  with
  | Some path -> path
  | None -> Alcotest.failf "golden file %s not found" name

(* Every byte-prefix of every line of the golden traces decodes as it does
   through the tree.  The prefixes of the first sample lines are also
   loaded from a file, as its middle and as its final line, and must give
   the tree loader's samples or its error, line number and detail. *)
let golden_prefixes ~file ~decode ~decode' ~eq ~load ~load' ~contents_eq () =
  let header, lines =
    match read_lines (golden file) with
    | header :: lines -> (header, lines)
    | [] -> Alcotest.failf "%s is empty" file
  in
  List.iteri
    (fun i line ->
      for k = 0 to String.length line do
        let prefix = String.sub line 0 k in
        if not (Oracle.option_equal eq (decode prefix) (decode' prefix)) then
          Alcotest.failf "%s line %d: decoders disagree on %S" file (i + 2) prefix;
        if i < 3 then
          let before = List.filteri (fun j _ -> j < i) lines in
          if
            not
              (Oracle.loads_agree ~eq:contents_eq ~load ~load' ~header ~before
                 ~after:line prefix)
          then Alcotest.failf "%s line %d: loaders disagree on %S" file (i + 2) prefix
      done)
    lines

let trace_prefixes file =
  golden_prefixes ~file ~decode:Trace.sample_of_line ~decode':Oracle.sample_of_string
    ~eq:Trace.sample_equal ~load:Trace.load ~load':Oracle.load_trace
    ~contents_eq:Oracle.trace_equal

let mux_prefixes file =
  golden_prefixes ~file ~decode:Mux.entry_of_string ~decode':Oracle.entry_of_string
    ~eq:Mux.entry_equal ~load:Mux.load ~load':Oracle.load_mux
    ~contents_eq:Oracle.mux_equal

(* Number tokens: printed floats in several formats, and digit strings
   with up to 25 digits on either side of the point. *)
let float_token_gen =
  QCheck.Gen.(
    let printed =
      map2
        (fun x fmt -> fmt x)
        (map (fun x -> if Float.is_finite x then x else 1.5) Oracle.float_gen)
        (oneofl
           [
             Json.float_to_string;
             Printf.sprintf "%.17g";
             Printf.sprintf "%.15g";
             Printf.sprintf "%.12g";
             Printf.sprintf "%.1f";
             Printf.sprintf "%.3e";
             Printf.sprintf "%.16e";
           ])
    in
    let digits =
      map
        (fun ((neg, whole), frac) -> (if neg then "-" else "") ^ whole ^ "." ^ frac)
        (pair
           (pair bool (string_size ~gen:numeral (0 -- 17)))
           (string_size ~gen:numeral (0 -- 25)))
    in
    let fraction = map (fun k -> Printf.sprintf "0.%022d" k) (0 -- 1_000_000_000) in
    frequency [ (3, printed); (3, digits); (1, fraction) ])

let prop_cursor_float =
  QCheck.Test.make ~name:"cursor float read equals float_of_string" ~count:5000
    (QCheck.make ~print:Fun.id float_token_gen)
    (fun tok ->
      (* An int token reads as its int, as [Json.to_float (Int i)] does:
         ["-0"] is [0.0]. *)
      let expected =
        if String.exists (function '.' | 'e' | 'E' -> true | _ -> false) tok then
          match float_of_string_opt tok with
          | Some x when Float.is_finite x -> Some x
          | Some _ | None -> None
        else Option.map float_of_int (int_of_string_opt tok)
      in
      Oracle.option_equal
        (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
        (Json.Cursor.parse Json.Cursor.float tok)
        expected)

(* Int tokens around both ends of the int fast path and of the int range:
   digit strings of 1-21 digits and the edges written out. *)
let int_token_gen =
  QCheck.Gen.(
    frequency
      [
        ( 4,
          map2
            (fun neg digits -> (if neg then "-" else "") ^ digits)
            bool
            (string_size ~gen:numeral (1 -- 21)) );
        ( 1,
          oneofl
            [
              string_of_int max_int; string_of_int min_int; "4611686018427387904";
              "-4611686018427387905"; "5000000000000000000"; "999999999999999999";
              "1000000000000000000"; "99999999999999999"; "100000000000000000"; "-0";
              "+5"; "0000000000000000000001"; "-";
            ] );
      ])

let prop_cursor_int =
  QCheck.Test.make ~name:"cursor int read equals int_of_string" ~count:5000
    (QCheck.make ~print:Fun.id int_token_gen)
    (fun tok ->
      Oracle.option_equal Int.equal
        (Json.Cursor.parse Json.Cursor.int tok)
        (int_of_string_opt tok))

(* [Cursor.key] names the member just entered against a second table,
   whether [obj_first]/[obj_more] matched its key in place (the table's
   order) or lexed it (another order, an escape, a key one byte longer or
   shorter than a table entry). *)
let cursor_key_lookup () =
  let keys = [| "a"; "bb"; "c" |] and other = [| "c"; "x"; "bb"; "a" |] in
  let walk line =
    Json.Cursor.parse
      (fun c ->
        let seen = ref [] in
        let k = ref (Json.Cursor.obj_first c keys) in
        while !k <> Json.Cursor.obj_end do
          seen := (!k, Json.Cursor.key c other) :: !seen;
          Json.Cursor.skip c;
          k := Json.Cursor.obj_more c keys
        done;
        List.rev !seen)
      line
  in
  let check line expected =
    Alcotest.(check (option (list (pair int int)))) line (Some expected) (walk line)
  in
  check {|{"a":1,"bb":2,"c":3}|} [ (0, 3); (1, 2); (2, 0) ];
  check {|{"c":1,"bb":2,"a":3}|} [ (2, 0); (1, 2); (0, 3) ];
  check {|{"a":1,"b":2,"bbb":3,"c":4}|} [ (0, 3); (-1, -1); (-1, -1); (2, 0) ];
  check {|{ "a" :1, "b\u0062":2,"\u0063":3,"x":4}|} [ (0, 3); (1, 2); (2, 0); (-1, 1) ];
  Alcotest.(check (option (list (pair int int)))) "truncated key" None (walk {|{"a":1,"bb|})

let oracle_suite =
  [
    Alcotest.test_case "trace: golden line prefixes decode as the oracle" `Quick
      (trace_prefixes "trace-iwfq-e3.jsonl");
    Alcotest.test_case "trace: cifq golden line prefixes decode as the oracle" `Quick
      (trace_prefixes "trace-cifq-e1.jsonl");
    Alcotest.test_case "xray-trace: golden line prefixes decode as the oracle" `Quick
      (mux_prefixes "topo-cifq-e1.xray.jsonl");
    QCheck_alcotest.to_alcotest prop_cursor_float;
    QCheck_alcotest.to_alcotest prop_cursor_int;
    Alcotest.test_case "cursor key lookup against a second table" `Quick cursor_key_lookup;
  ]

let suite =
  oracle_suite
  @ List.concat_map
    (fun row ->
      let case what f = Alcotest.test_case (row.name ^ ": " ^ what) `Quick (f row) in
      [
        case "torn final line dropped" torn_final_line;
        case "garbage middle line refused" garbage_middle_line;
        case "wrong schema refused" wrong_schema;
        case "empty file refused" empty_file;
        case "missing file refused" missing_file;
      ]
      @
      match row.contradiction with
      | None -> []
      | Some line -> [ case "header contradiction refused" (fun row -> contradiction row line) ])
    rows
