module Json = Wfs_util.Json
module Error = Wfs_util.Error
module Jsonl = Wfs_util.Jsonl
module Sched = Wfs_core.Wireless_sched
module Trace = Wfs_obs.Trace

let schema = "wfs-xray-trace/1"

type entry =
  | Roster of { cell : int; slot : int; gids : int array }
  | Sample of { cell : int; sample : Trace.sample }

let reserved = [ "schema"; "cells"; "n_flows"; "stride" ]

(* --- line codec.  A roster line is {"cell":c,"slot":s,"roster":[gids]};
   a sample line is the wfs-trace/1 sample object with a "cell" field
   prepended, written and read by Trace's typed sample codec. --- *)

module Cursor = Json.Cursor

let add_entry buf = function
  | Roster { cell; slot; gids } ->
      Json.to_buffer ~pretty:false buf
        (Json.Obj
           [
             ("cell", Json.Int cell);
             ("slot", Json.Int slot);
             ("roster", Json.Arr (Array.to_list (Array.map (fun g -> Json.Int g) gids)));
           ])
  | Sample { cell; sample } ->
      Buffer.add_string buf "{\"cell\":";
      Json.add_int buf cell;
      Buffer.add_char buf ',';
      Trace.add_sample_members buf sample;
      Buffer.add_char buf '}'

let entry_to_string e =
  let buf = Buffer.create 256 in
  add_entry buf e;
  Buffer.contents buf

let read_ints c =
  if not (Cursor.arr_first c) then [||]
  else begin
    let rev = ref [ Cursor.int c ] in
    while Cursor.arr_more c do
      rev := Cursor.int c :: !rev
    done;
    Array.of_list (List.rev !rev)
  end

let roster_keys = [| "cell"; "slot"; "roster" |]

(* A roster line: the first [cell], [slot] and [roster] count, the last
   an array of ints; other members are skipped. *)
let read_roster c =
  let cell = ref 0 and slot = ref 0 and gids = ref [||] and seen = ref 0 in
  let k = ref (Cursor.obj_first c roster_keys) in
  while !k <> Cursor.obj_end do
    if !k < 0 || !seen land (1 lsl !k) <> 0 then Cursor.skip c
    else begin
      seen := !seen lor (1 lsl !k);
      match !k with
      | 0 -> cell := Cursor.int c
      | 1 -> slot := Cursor.int c
      | _ -> gids := read_ints c
    end;
    k := Cursor.obj_more c roster_keys
  done;
  if !seen <> 0b111 then raise Cursor.Mismatch;
  Roster { cell = !cell; slot = !slot; gids = !gids }

(* A line is a roster when it has a "roster" member and a sample
   otherwise; both need an int "cell".  Sample lines, the common case,
   take one pass: the sample reader hands "cell" and "roster" to [other].
   A line that names a roster, or fails as a sample, is read again as a
   roster. *)
let entry_of_string line =
  let cell = ref 0 and seen = ref 0 in
  let other c =
    match Cursor.key c roster_keys with
    | 0 when !seen land 0b1 = 0 ->
        seen := !seen lor 0b1;
        cell := Cursor.int c
    | 2 ->
        seen := !seen lor 0b10;
        Cursor.skip c
    | _ -> Cursor.skip c
  in
  match Cursor.parse (Trace.read_sample ~other) line with
  | Some sample when !seen = 0b1 -> Some (Sample { cell = !cell; sample })
  | Some _ when !seen = 0 -> None
  | Some _ | None -> Cursor.parse read_roster line

let entry_equal a b =
  match (a, b) with
  | Roster a, Roster b ->
      a.cell = b.cell && a.slot = b.slot
      && Array.length a.gids = Array.length b.gids
      && Array.for_all2 ( = ) a.gids b.gids
  | Sample a, Sample b -> a.cell = b.cell && Trace.sample_equal a.sample b.sample
  | (Roster _ | Sample _), _ -> false

let entry_slot = function
  | Roster { slot; _ } -> slot
  | Sample { sample; _ } -> sample.Trace.slot

let entry_cell = function Roster { cell; _ } | Sample { cell; _ } -> cell

(* --- per-cell part writers.

   During the parallel phase of a topology epoch each cell appends to its
   OWN part file, so no cross-domain ordering exists to get wrong — the
   deterministic global order is reconstructed at [finish] by a positional
   merge on (slot, cell), which is exactly the order a --jobs 1 run would
   have produced.  Rosters are only written from the sequential barrier
   (cell install/rebuild), samples only from the owning cell's domain. --- *)

type part = { path : string; w : Jsonl.writer }

type t = {
  cells : int;
  stride : int;
  params : (string * Json.t) list;
  parts : part array;
  mutable finished : bool;
}

let part_path ~part_base c = Printf.sprintf "%s.part%d" part_base c

let create ?(stride = 1) ?(params = []) ~cells ~part_base () =
  if cells < 1 then Error.bad_config ~who:"Mux.create" "cells must be >= 1";
  if stride < 1 then Error.bad_config ~who:"Mux.create" "stride must be >= 1";
  List.iter
    (fun (k, _) ->
      if List.exists (String.equal k) reserved then
        Error.bad_config ~who:"Mux.create" ("reserved param name: " ^ k))
    params;
  let parts =
    Array.init cells (fun c ->
        let path = part_path ~part_base c in
        { path; w = Jsonl.create_bare ~path })
  in
  { cells; stride; params; parts; finished = false }

let write_entry t e = Jsonl.append_with t.parts.(entry_cell e).w add_entry e

let note_roster t ~cell ~slot ~gids =
  if t.finished then Error.bad_config ~who:"Mux.note_roster" "mux already finished";
  if cell < 0 || cell >= t.cells then
    Error.bad_config ~who:"Mux.note_roster" "cell out of range";
  write_entry t (Roster { cell; slot; gids })

let probe t ~cell ~n_flows (sched : Sched.instance) :
    Wfs_core.Simulator.slot_probe =
  if cell < 0 || cell >= t.cells then
    Error.bad_config ~who:"Mux.probe" "cell out of range";
  if n_flows < 1 then Error.bad_config ~who:"Mux.probe" "n_flows must be >= 1";
  let sample_of = Wfs_obs.Probe.sampler ~n_flows sched in
  let stride = t.stride in
  fun ~slot ~selected ~states ->
    if slot mod stride = 0 then
      write_entry t (Sample { cell; sample = sample_of ~slot ~selected ~states })

let close_parts t =
  Array.iter
    (fun p ->
      Jsonl.flush p.w;
      Jsonl.close_noerr p.w)
    t.parts

let remove_parts t =
  Array.iter (fun p -> try Sys.remove p.path with Sys_error _ -> ()) t.parts

let abort t =
  if not t.finished then begin
    t.finished <- true;
    close_parts t;
    remove_parts t
  end

(* --- deterministic k-way merge.

   Each part is already slot-ordered (one cell's own timeline), so the
   global order is the positional merge on (slot, cell): smallest slot
   first, ties broken by cell id, within-cell order preserved.  This is
   byte-identical across --jobs because the parts themselves are — every
   cell's stream depends only on that cell's deterministic state. --- *)

(* A part line is copied to the merged stream byte for byte: the parts
   and the merged stream share one compact writer.  It is decoded only for
   its (slot, cell) key and the CSV row. *)
type cursor = { ic : in_channel; mutable cur : (string * entry) option }

let advance_cursor ~who cu =
  match input_line cu.ic with
  | exception End_of_file -> cu.cur <- None
  | line -> (
      match entry_of_string line with
      | Some e -> cu.cur <- Some (line, e)
      | None -> Error.invalidf who "corrupt part line during merge: %s" line)

(* CSV rendering of the merged timeline: one row per sample, flows mapped
   from cell-local index to global id through the latest roster of that
   cell; gids outside the sample's cell render as empty cells (presence
   encoding, like the single-cell CSV sink). *)

let csv_columns n_flows =
  let base = [ "slot"; "cell"; "selected"; "virtual_time"; "lag_sum" ] in
  let per_flow g =
    [
      Printf.sprintf "q%d" g;
      Printf.sprintf "good%d" g;
      Printf.sprintf "tag%d" g;
      Printf.sprintf "credit%d" g;
    ]
  in
  base @ List.concat (List.init n_flows per_flow)

let csv_row buf ~n_flows ~rosters (cell : int) (s : Trace.sample) =
  let who = "Mux.finish" in
  let roster =
    match rosters.(cell) with
    | Some r -> r
    | None -> Error.invalidf who "sample for cell %d precedes its roster" cell
  in
  if Array.length roster <> Array.length s.Trace.flows then
    Error.invalidf who "sample width disagrees with cell %d roster" cell;
  Buffer.clear buf;
  Json.add_int buf s.Trace.slot;
  Buffer.add_char buf ',';
  Json.add_int buf cell;
  Buffer.add_char buf ',';
  (match s.Trace.selected with
  | None -> ()
  | Some local ->
      if local < 0 || local >= Array.length roster then
        Error.invalidf who "selected flow outside cell %d roster" cell;
      Json.add_int buf roster.(local));
  Buffer.add_char buf ',';
  Option.iter (Json.add_float buf) s.Trace.virtual_time;
  Buffer.add_char buf ',';
  Option.iter (Json.add_int buf) s.Trace.lag_sum;
  let by_gid = Array.make n_flows None in
  Array.iteri
    (fun local f ->
      let g = roster.(local) in
      if g < 0 || g >= n_flows then
        Error.invalidf who "roster gid %d outside n_flows %d" g n_flows;
      by_gid.(g) <- Some f)
    s.Trace.flows;
  Array.iter
    (fun slot_flow ->
      match slot_flow with
      | None -> Buffer.add_string buf ",,,,"
      | Some (f : Trace.flow_sample) ->
          Buffer.add_char buf ',';
          Json.add_int buf f.Trace.queue;
          Buffer.add_char buf ',';
          Buffer.add_char buf (if f.Trace.good then '1' else '0');
          Buffer.add_char buf ',';
          Option.iter (Json.add_float buf) f.Trace.tag;
          Buffer.add_char buf ',';
          Option.iter (Json.add_int buf) f.Trace.credit)
    by_gid;
  Buffer.add_char buf '\n'

let finish t ~n_flows ?jsonl ?csv () =
  let who = "Mux.finish" in
  if t.finished then Error.bad_config ~who "mux already finished";
  if n_flows < 1 then Error.bad_config ~who "n_flows must be >= 1";
  t.finished <- true;
  close_parts t;
  Fun.protect
    ~finally:(fun () -> remove_parts t)
    (fun () ->
      let cursors =
        Array.map (fun p -> { ic = open_in_bin p.path; cur = None }) t.parts
      in
      Fun.protect
        ~finally:(fun () -> Array.iter (fun cu -> close_in_noerr cu.ic) cursors)
        (fun () ->
          Array.iter (advance_cursor ~who) cursors;
          let jout =
            Option.map
              (fun path ->
                Jsonl.create ~path ~schema
                  (("cells", Json.Int t.cells)
                  :: ("n_flows", Json.Int n_flows)
                  :: ("stride", Json.Int t.stride)
                  :: t.params))
              jsonl
          in
          let cout = Option.map open_out_bin csv in
          Fun.protect
            ~finally:(fun () ->
              Option.iter Jsonl.close_noerr jout;
              Option.iter close_out_noerr cout)
            (fun () ->
              Option.iter
                (fun oc ->
                  output_string oc (String.concat "," (csv_columns n_flows));
                  output_char oc '\n')
                cout;
              let rosters = Array.make t.cells None in
              let buf = Buffer.create 256 in
              let rec loop () =
                let best = ref (-1) in
                Array.iteri
                  (fun c cu ->
                    match cu.cur with
                    | None -> ()
                    | Some (_, e) -> (
                        match !best with
                        | -1 -> best := c
                        | b -> (
                            match cursors.(b).cur with
                            | Some (_, be) when entry_slot e < entry_slot be ->
                                best := c
                            | _ -> ())))
                  cursors;
                match !best with
                | -1 -> ()
                | c ->
                    let cu = cursors.(c) in
                    (match cu.cur with
                    | None -> ()
                    | Some (line, e) -> (
                        Option.iter
                          (fun w -> Jsonl.append_with w Buffer.add_string line)
                          jout;
                        match e with
                        | Roster { cell; gids; _ } -> rosters.(cell) <- Some gids
                        | Sample { cell; sample } ->
                            Option.iter
                              (fun oc ->
                                csv_row buf ~n_flows ~rosters cell sample;
                                Buffer.output_buffer oc buf)
                              cout));
                    advance_cursor ~who cu;
                    loop ()
              in
              loop ())))

(* --- reading a merged stream back --- *)

type contents = {
  cells : int;
  n_flows : int;
  stride : int;
  params : (string * Json.t) list;
  entries : entry list;
}

let load ~path =
  Jsonl.load ~who:"Mux.load" ~schema ~path
    ~header:(fun fields ->
      let ( let* ) = Option.bind in
      let int k = Option.bind (List.assoc_opt k fields) Json.to_int in
      let* cells = int "cells" in
      let* n_flows = int "n_flows" in
      let* stride = int "stride" in
      if cells < 1 || n_flows < 1 || stride < 1 then None
      else
        let params =
          List.filter (fun (k, _) -> not (List.exists (String.equal k) reserved)) fields
        in
        Some (cells, n_flows, stride, params))
    ~line:(fun (cells, _, _, _) text ->
      match entry_of_string text with
      | None -> Jsonl.refused text
      | Some e when entry_cell e < 0 || entry_cell e >= cells ->
          Jsonl.Contradicts "entry cell outside header cells"
      | Some e -> Jsonl.Decoded e)
  |> Result.map (fun ((cells, n_flows, stride, params), entries) ->
         { cells; n_flows; stride; params; entries })
