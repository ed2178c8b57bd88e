(* The tree codec of wfs-trace/1 samples and wfs-xray-trace/1 entries: the
   differential oracle of the typed codec in Wfs_obs.Trace and
   Wfs_xray.Mux.  Every value goes through a Json.t, encoded with
   Json.to_buffer and decoded with Json.member and the accessors, and the
   loaders are Jsonl.load over Jsonl.tree.  The typed codec must write the
   same bytes and accept the same lines with the same values. *)

module Json = Wfs_util.Json
module Jsonl = Wfs_util.Jsonl
module Trace = Wfs_obs.Trace
module Mux = Wfs_xray.Mux

(* --- samples --- *)

let flow_to_json (f : Trace.flow_sample) =
  let base = [ ("q", Json.Int f.queue); ("g", Json.Int (if f.good then 1 else 0)) ] in
  let base =
    match f.tag with None -> base | Some t -> base @ [ ("tag", Json.of_float_ext t) ]
  in
  match f.credit with None -> base | Some c -> base @ [ ("cr", Json.Int c) ]

let flow_of_json v =
  let ( let* ) = Option.bind in
  let* queue = Option.bind (Json.member "q" v) Json.to_int in
  let* good = Option.bind (Json.member "g" v) Json.to_int in
  let tag = Option.bind (Json.member "tag" v) Json.to_float_ext in
  let credit = Option.bind (Json.member "cr" v) Json.to_int in
  Some { Trace.queue; good = good <> 0; tag; credit }

let sample_to_json (s : Trace.sample) =
  let fields = [ ("slot", Json.Int s.slot) ] in
  let fields =
    match s.selected with None -> fields | Some f -> fields @ [ ("sel", Json.Int f) ]
  in
  let fields =
    match s.virtual_time with
    | None -> fields
    | Some v -> fields @ [ ("vt", Json.of_float_ext v) ]
  in
  let fields =
    match s.lag_sum with None -> fields | Some l -> fields @ [ ("lag", Json.Int l) ]
  in
  Json.Obj
    (fields
    @ [
        ( "flows",
          Json.Arr (Array.to_list (Array.map (fun f -> Json.Obj (flow_to_json f)) s.flows))
        );
      ])

let sample_of_json v =
  let ( let* ) = Option.bind in
  let* slot = Option.bind (Json.member "slot" v) Json.to_int in
  let selected = Option.bind (Json.member "sel" v) Json.to_int in
  let virtual_time = Option.bind (Json.member "vt" v) Json.to_float_ext in
  let lag_sum = Option.bind (Json.member "lag" v) Json.to_int in
  let* flows = Option.bind (Json.member "flows" v) Json.to_list in
  let* flows =
    List.fold_left
      (fun acc fv ->
        match acc with
        | None -> None
        | Some acc -> Option.map (fun f -> f :: acc) (flow_of_json fv))
      (Some []) flows
  in
  Some
    { Trace.slot; selected; virtual_time; lag_sum; flows = Array.of_list (List.rev flows) }

let sample_to_string s = Json.to_string ~pretty:false (sample_to_json s)

let sample_of_string line =
  match Json.of_string line with Error _ -> None | Ok v -> sample_of_json v

(* --- x-ray entries --- *)

let entry_to_json = function
  | Mux.Roster { cell; slot; gids } ->
      Json.Obj
        [
          ("cell", Json.Int cell);
          ("slot", Json.Int slot);
          ("roster", Json.Arr (Array.to_list (Array.map (fun g -> Json.Int g) gids)));
        ]
  | Mux.Sample { cell; sample } -> (
      match sample_to_json sample with
      | Json.Obj fields -> Json.Obj (("cell", Json.Int cell) :: fields)
      | other -> other)

let entry_of_json v =
  let ( let* ) = Option.bind in
  let* cell = Option.bind (Json.member "cell" v) Json.to_int in
  match Json.member "roster" v with
  | Some rv ->
      let* slot = Option.bind (Json.member "slot" v) Json.to_int in
      let* gids = Json.to_list rv in
      let* gids =
        List.fold_left
          (fun acc gv ->
            match acc with
            | None -> None
            | Some acc -> Option.map (fun g -> g :: acc) (Json.to_int gv))
          (Some []) gids
      in
      Some (Mux.Roster { cell; slot; gids = Array.of_list (List.rev gids) })
  | None ->
      let* sample = sample_of_json v in
      Some (Mux.Sample { cell; sample })

let entry_to_string e = Json.to_string ~pretty:false (entry_to_json e)

let entry_of_string line =
  match Json.of_string line with Error _ -> None | Ok v -> entry_of_json v

(* --- the tree-path loaders --- *)

let load_trace ~path =
  Jsonl.load ~who:"Trace.load" ~schema:Trace.schema ~path
    ~header:(fun fields ->
      Trace.header_of_json (Jsonl.header ~schema:Trace.schema fields))
    ~line:
      (Jsonl.tree (fun (hdr : Trace.header) v ->
           match sample_of_json v with
           | None -> Jsonl.Undecodable
           | Some s when Array.length s.flows <> hdr.n_flows ->
               Jsonl.Contradicts "sample width disagrees with header"
           | Some s -> Jsonl.Decoded s))
  |> Result.map (fun (hdr, samples) -> { Trace.hdr; samples })

let load_mux ~path =
  Jsonl.load ~who:"Mux.load" ~schema:Mux.schema ~path
    ~header:(fun fields ->
      let ( let* ) = Option.bind in
      let int k = Option.bind (List.assoc_opt k fields) Json.to_int in
      let* cells = int "cells" in
      let* n_flows = int "n_flows" in
      let* stride = int "stride" in
      if cells < 1 || n_flows < 1 || stride < 1 then None
      else
        let reserved = [ "cells"; "n_flows"; "stride" ] in
        let params =
          List.filter (fun (k, _) -> not (List.exists (String.equal k) reserved)) fields
        in
        Some (cells, n_flows, stride, params))
    ~line:
      (Jsonl.tree (fun (cells, _, _, _) v ->
           match entry_of_json v with
           | None -> Jsonl.Undecodable
           | Some e when Mux.entry_cell e < 0 || Mux.entry_cell e >= cells ->
               Jsonl.Contradicts "entry cell outside header cells"
           | Some e -> Jsonl.Decoded e))
  |> Result.map (fun ((cells, n_flows, stride, params), entries) ->
         { Mux.cells; n_flows; stride; params; entries })

(* --- generators --- *)

(* Every kind of float the codec must restore bit for bit: ordinary
   magnitudes, random bit patterns (so subnormals, huge values and NaN
   payloads), integral values at and past the 1e15 switch of the number
   writer, 17-significant-digit values, -0.0 and the specials. *)
let float_gen =
  QCheck.Gen.(
    frequency
      [
        (6, float_bound_exclusive 1e6);
        (2, map Float.neg (float_bound_exclusive 1e6));
        (3, map Int64.float_of_bits ui64);
        (1, map (fun k -> Int64.float_of_bits (Int64.of_int k)) (1 -- 1_000_000));
        (1, map (fun k -> Float.ldexp 1.0 (-1074 + k)) (0 -- 60));
        (1, map (fun k -> 1e15 +. float_of_int k) (-2 -- 1_000_000));
        (1, map (fun k -> Float.ldexp (float_of_int k) 40) (1 -- 1_000_000));
        ( 1,
          map
            (fun (m, e) -> float_of_string (Printf.sprintf "%d.%016de%d" (1 + (m mod 9)) m e))
            (pair (0 -- 999_999_999) (-30 -- 30)) );
        (1, return (-0.0));
        (1, return 0.1);
        (1, return Float.nan);
        (1, return Float.infinity);
        (1, return Float.neg_infinity);
      ])

let flow_gen =
  QCheck.Gen.(
    map
      (fun ((queue, good), (tag, credit)) -> { Trace.queue; good; tag; credit })
      (pair (pair (0 -- 1000) bool) (pair (opt float_gen) (opt (-100 -- 100)))))

let sample_gen =
  QCheck.Gen.(
    map
      (fun ((slot, selected), ((vt, lag), flows)) ->
        { Trace.slot; selected; virtual_time = vt; lag_sum = lag; flows = Array.of_list flows })
      (pair
         (pair (0 -- 1_000_000) (opt (0 -- 32)))
         (pair (pair (opt float_gen) (opt (-1000 -- 1000))) (list_size (1 -- 8) flow_gen))))

(* --- mutated lines ---

   Lines both decoders must agree on: an oracle tree with members
   reordered, duplicated, dropped or retyped, unknown keys added and
   floats swapped for their string or int forms, printed with random
   whitespace, \u-escaped key bytes and lenient number spellings; or a
   byte-level damage of such a line. *)

let odd_values =
  [
    Json.Str "x"; Json.Str "nan"; Json.Str "inf"; Json.Str "-inf"; Json.Bool true;
    Json.Bool false; Json.Null; Json.Int 3; Json.Int (-1); Json.Float 2.5;
    Json.Float 1e300; Json.Arr []; Json.Arr [ Json.Int 1 ];
    Json.Obj []; Json.Obj [ ("q", Json.Int 1); ("g", Json.Int 0) ];
  ]

(* Beside the schema keys and strangers, keys that extend a schema key or
   cut one short, which the cursor's in-place key match must tell apart. *)
let keys =
  [
    "slot"; "sel"; "vt"; "lag"; "flows"; "q"; "g"; "tag"; "cr"; "cell"; "roster"; "zz";
    "slots"; "flow"; "qq"; "ta"; "cells"; "g\"";
  ]

let pick st l = List.nth l (Random.State.int st (List.length l))
let chance st n = Random.State.int st n = 0

let rec mutate st v =
  match v with
  | Json.Obj fields ->
      let fields =
        List.concat_map
          (fun (k, x) ->
            if chance st 60 then []
            else
              let x = if chance st 30 then pick st odd_values else mutate st x in
              if chance st 20 then [ (k, x); (k, pick st odd_values) ]
              else if chance st 50 then [ (k, pick st odd_values); (k, x) ]
              else [ (k, x) ])
          fields
      in
      let fields =
        if chance st 6 then (pick st keys, pick st odd_values) :: fields else fields
      in
      let fields =
        if chance st 3 then QCheck.Gen.shuffle_l fields st else fields
      in
      Json.Obj fields
  | Json.Arr items ->
      Json.Arr
        (List.concat_map
           (fun x -> if chance st 30 then [] else if chance st 30 then [ x; x ] else [ mutate st x ])
           items)
  | Json.Float x when chance st 8 -> (
      match Random.State.int st 4 with
      | 0 -> Json.Int (int_of_float x)
      | 1 -> Json.Str "nan"
      | 2 -> Json.Str "inf"
      | _ -> Json.Str "-inf")
  | Json.Int i when chance st 40 -> Json.Float (float_of_int i)
  | v -> v

let ws st = if chance st 4 then pick st [ " "; "\t"; "\n"; "\r"; "  " ] else ""

let render_string st buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      if chance st 6 then Printf.bprintf buf "\\u%04x" (Char.code c)
      else
        match c with
        | '"' | '\\' -> Printf.bprintf buf "\\%c" c
        | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let rec render st buf v =
  Buffer.add_string buf (ws st);
  (match v with
  | Json.Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, x) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf (ws st);
          render_string st buf k;
          Buffer.add_string buf (ws st);
          Buffer.add_char buf ':';
          render st buf x)
        fields;
      Buffer.add_string buf (ws st);
      Buffer.add_char buf '}'
  | Json.Arr items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          render st buf x)
        items;
      Buffer.add_string buf (ws st);
      Buffer.add_char buf ']'
  | Json.Str s -> render_string st buf s
  | Json.Int i when i >= 0 && chance st 10 -> Printf.bprintf buf "%s%d" (pick st [ "+"; "00" ]) i
  | Json.Float x when chance st 6 -> Buffer.add_string buf (Printf.sprintf "%.17e" x)
  | v -> Json.to_buffer ~pretty:false buf v);
  Buffer.add_string buf (ws st)

let damage st line =
  let n = String.length line in
  let k = Random.State.int st (n + 1) in
  let junk () = pick st [ '{'; '}'; '['; ']'; ','; ':'; '"'; '\\'; '-'; '.'; 'e'; '0'; '7'; 'x' ] in
  match Random.State.int st 4 with
  | 0 -> String.sub line 0 k
  | 1 when k < n -> String.mapi (fun i c -> if i = k then junk () else c) line
  | 2 when k < n -> String.sub line 0 k ^ String.sub line (k + 1) (n - k - 1)
  | _ -> String.sub line 0 k ^ String.make 1 (junk ()) ^ String.sub line k (n - k)

(* A mutated rendering of [v]; every fifth line is damaged as well. *)
let mutated_line v st =
  let buf = Buffer.create 256 in
  render st buf (mutate st v);
  let line = Buffer.contents buf in
  if chance st 5 then damage st line else line

(* --- comparing the two paths --- *)

let error_equal (a : Wfs_util.Error.t) (b : Wfs_util.Error.t) =
  a.kind = b.kind && String.equal a.who b.who && String.equal a.what b.what
  && List.equal
       (fun (k, x) (k', x') -> String.equal k k' && String.equal x x')
       a.context b.context

let result_equal ok_equal a b =
  match (a, b) with
  | Ok x, Ok y -> ok_equal x y
  | Error x, Error y -> error_equal x y
  | Ok _, Error _ | Error _, Ok _ -> false

let trace_equal (a : Trace.contents) (b : Trace.contents) =
  Trace.header_equal a.hdr b.hdr && List.equal Trace.sample_equal a.samples b.samples

let mux_equal (a : Mux.contents) (b : Mux.contents) =
  a.cells = b.cells && a.n_flows = b.n_flows && a.stride = b.stride
  && List.equal Mux.entry_equal a.entries b.entries

let option_equal eq a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> eq x y
  | None, Some _ | Some _, None -> false

(* [line] placed in a file after [header] and [before], once as the final
   line and once followed by [after]: the typed [load] and the tree
   [load'] must return equal contents or the same error. *)
let loads_agree ~eq ~load ~load' ~header ~before ~after line =
  let path = Filename.temp_file "wfs_oracle" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      List.for_all
        (fun tail ->
          Out_channel.with_open_bin path (fun oc ->
              List.iter
                (fun l ->
                  output_string oc l;
                  output_char oc '\n')
                ((header :: before) @ (line :: tail)));
          result_equal eq (load ~path) (load' ~path))
        [ []; [ after ] ])
