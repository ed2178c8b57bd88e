module Json = Wfs_util.Json
module Error = Wfs_util.Error
module Jsonl = Wfs_util.Jsonl

let schema = "wfs-trace/1"

type flow_sample = {
  queue : int;
  good : bool;
  tag : float option;
  credit : int option;
}

type sample = {
  slot : int;
  selected : int option;
  virtual_time : float option;
  lag_sum : int option;
  flows : flow_sample array;
}

type header = {
  n_flows : int;
  stride : int;
  params : (string * Json.t) list;
}

let header ?(stride = 1) ?(params = []) ~n_flows () =
  if n_flows < 1 then
    Error.bad_config ~who:"Trace.header" "n_flows must be >= 1";
  if stride < 1 then Error.bad_config ~who:"Trace.header" "stride must be >= 1";
  List.iter
    (fun (k, _) ->
      if
        List.exists (String.equal k) [ "schema"; "n_flows"; "stride" ]
      then
        Error.bad_config ~who:"Trace.header" ("reserved param name: " ^ k))
    params;
  { n_flows; stride; params }

(* --- JSON codecs.  Optional quantities are encoded by field presence, so
   a scheduler with no virtual time produces no "vt" key at all — parsers
   must not read absence as zero. --- *)

let header_fields h =
  ("n_flows", Json.Int h.n_flows) :: ("stride", Json.Int h.stride) :: h.params

let header_to_json h = Jsonl.header ~schema (header_fields h)

let header_of_fields fields =
  let ( let* ) = Option.bind in
  let int k = Option.bind (List.assoc_opt k fields) Json.to_int in
  let* n_flows = int "n_flows" in
  let* stride = int "stride" in
  if n_flows < 1 || stride < 1 then None
  else
    let params =
      List.filter
        (fun (k, _) -> not (String.equal k "n_flows" || String.equal k "stride"))
        fields
    in
    Some { n_flows; stride; params }

let header_of_json v = Option.bind (Jsonl.fields_of_header ~schema v) header_of_fields

(* --- typed sample codec: no [Json.t] on either side.  The writer emits
   the compact members in a fixed order; the reader takes them in any
   order by the accessor rules of a tree ([Json.member] and friends): the
   first occurrence of a key wins, unknown keys are skipped, a required
   field ([slot], [flows], a flow's [q] and [g]) of another type refuses
   the line, and an optional one of another type reads as absent. --- *)

let add_flow buf f =
  Buffer.add_string buf "{\"q\":";
  Json.add_int buf f.queue;
  Buffer.add_string buf (if f.good then ",\"g\":1" else ",\"g\":0");
  (match f.tag with
  | None -> ()
  | Some t ->
      Buffer.add_string buf ",\"tag\":";
      Json.add_float_ext buf t);
  (match f.credit with
  | None -> ()
  | Some c ->
      Buffer.add_string buf ",\"cr\":";
      Json.add_int buf c);
  Buffer.add_char buf '}'

let add_sample_members buf s =
  Buffer.add_string buf "\"slot\":";
  Json.add_int buf s.slot;
  (match s.selected with
  | None -> ()
  | Some f ->
      Buffer.add_string buf ",\"sel\":";
      Json.add_int buf f);
  (match s.virtual_time with
  | None -> ()
  | Some v ->
      Buffer.add_string buf ",\"vt\":";
      Json.add_float_ext buf v);
  (match s.lag_sum with
  | None -> ()
  | Some l ->
      Buffer.add_string buf ",\"lag\":";
      Json.add_int buf l);
  Buffer.add_string buf ",\"flows\":[";
  Array.iteri
    (fun i f ->
      if i > 0 then Buffer.add_char buf ',';
      add_flow buf f)
    s.flows;
  Buffer.add_char buf ']'

let add_sample buf s =
  Buffer.add_char buf '{';
  add_sample_members buf s;
  Buffer.add_char buf '}'

module Cursor = Json.Cursor

(* Each reader keeps a bit set of the keys it has read, bit [k] for
   [keys.(k)], so a repeated key is skipped and a missing required one
   refuses the line. *)

let flow_keys = [| "q"; "g"; "tag"; "cr" |]

let read_flow c =
  let queue = ref 0 and good = ref 0 and tag = ref None and credit = ref None in
  let seen = ref 0 in
  let k = ref (Cursor.obj_first c flow_keys) in
  while !k <> Cursor.obj_end do
    if !k < 0 || !seen land (1 lsl !k) <> 0 then Cursor.skip c
    else begin
      seen := !seen lor (1 lsl !k);
      match !k with
      | 0 -> queue := Cursor.int c
      | 1 -> good := Cursor.int c
      | 2 -> tag := Cursor.optional Cursor.float_ext c
      | _ -> credit := Cursor.optional Cursor.int c
    end;
    k := Cursor.obj_more c flow_keys
  done;
  if !seen land 0b11 <> 0b11 then raise Cursor.Mismatch;
  { queue = !queue; good = !good <> 0; tag = !tag; credit = !credit }

let read_flows c =
  if not (Cursor.arr_first c) then [||]
  else begin
    let rev = ref [ read_flow c ] in
    while Cursor.arr_more c do
      rev := read_flow c :: !rev
    done;
    Array.of_list (List.rev !rev)
  end

let sample_keys = [| "slot"; "sel"; "vt"; "lag"; "flows" |]

let read_sample ?(other = Cursor.skip) c =
  let slot = ref 0 and selected = ref None and virtual_time = ref None in
  let lag_sum = ref None and flows = ref [||] in
  let seen = ref 0 in
  let k = ref (Cursor.obj_first c sample_keys) in
  while !k <> Cursor.obj_end do
    if !k < 0 then other c
    else if !seen land (1 lsl !k) <> 0 then Cursor.skip c
    else begin
      seen := !seen lor (1 lsl !k);
      match !k with
      | 0 -> slot := Cursor.int c
      | 1 -> selected := Cursor.optional Cursor.int c
      | 2 -> virtual_time := Cursor.optional Cursor.float_ext c
      | 3 -> lag_sum := Cursor.optional Cursor.int c
      | _ -> flows := read_flows c
    end;
    k := Cursor.obj_more c sample_keys
  done;
  if !seen land 0b10001 <> 0b10001 then raise Cursor.Mismatch;
  {
    slot = !slot;
    selected = !selected;
    virtual_time = !virtual_time;
    lag_sum = !lag_sum;
    flows = !flows;
  }

let sample_of_line line = Cursor.parse (fun c -> read_sample c) line

let header_to_string h = Json.to_string ~pretty:false (header_to_json h)

(* --- equality, for round-trip tests.  Floats compare by total order so a
   nan that survives of_float_ext round-trips as equal. --- *)

let float_opt_equal a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> Float.compare x y = 0
  | (None | Some _), _ -> false

let int_opt_equal (a : int option) (b : int option) =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> x = y
  | (None | Some _), _ -> false

let flow_equal a b =
  a.queue = b.queue && a.good = b.good && float_opt_equal a.tag b.tag
  && int_opt_equal a.credit b.credit

let sample_equal a b =
  a.slot = b.slot
  && int_opt_equal a.selected b.selected
  && float_opt_equal a.virtual_time b.virtual_time
  && int_opt_equal a.lag_sum b.lag_sum
  && Array.length a.flows = Array.length b.flows
  && Array.for_all2 flow_equal a.flows b.flows

let header_equal a b =
  a.n_flows = b.n_flows && a.stride = b.stride
  && List.length a.params = List.length b.params
  && List.for_all2
       (fun (ka, va) (kb, vb) ->
         String.equal ka kb
         && String.equal
              (Json.to_string ~pretty:false va)
              (Json.to_string ~pretty:false vb))
       a.params b.params

(* --- loading --- *)

type contents = { hdr : header; samples : sample list }

let load ~path =
  Jsonl.load ~who:"Trace.load" ~schema ~path ~header:header_of_fields
    ~line:(fun hdr text ->
      match sample_of_line text with
      | None -> Jsonl.refused text
      | Some s when Array.length s.flows <> hdr.n_flows ->
          Jsonl.Contradicts "sample width disagrees with header"
      | Some s -> Jsonl.Decoded s)
  |> Result.map (fun (hdr, samples) -> { hdr; samples })
