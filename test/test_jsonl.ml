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
        Some
          (Trace.sample_to_string
             { (sample 3) with Trace.flows = Array.make 2 (sample 3).Trace.flows.(0) });
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

let suite =
  List.concat_map
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
