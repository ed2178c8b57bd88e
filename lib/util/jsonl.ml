let header ~schema fields = Json.Obj (("schema", Json.Str schema) :: fields)

let fields_of_header ~schema = function
  | Json.Obj fields -> (
      match List.assoc_opt "schema" fields with
      | Some (Json.Str s) when String.equal s schema ->
          Some (List.filter (fun (k, _) -> not (String.equal k "schema")) fields)
      | _ -> None)
  | _ -> None

(* --- writing --- *)

type writer = { oc : out_channel; buf : Buffer.t }

let append_with w add x =
  Buffer.clear w.buf;
  add w.buf x;
  Buffer.add_char w.buf '\n';
  Buffer.output_buffer w.oc w.buf

let append w v = append_with w (Json.to_buffer ~pretty:false) v

let flush w = Stdlib.flush w.oc
let close w = close_out w.oc
let close_noerr w = close_out_noerr w.oc

let create_bare ~path = { oc = open_out_bin path; buf = Buffer.create 256 }

let create ~path ~schema fields =
  let w = create_bare ~path in
  append w (header ~schema fields);
  w

(* The final line is the only one an interrupted append can tear.  It is
   kept when it is the header or decodes; otherwise the file is cut back
   to the end of the line before it, so the next append starts a fresh
   line instead of extending the fragment. *)
let reopen ~path ~keep =
  let text = In_channel.with_open_bin path In_channel.input_all in
  let n = String.length text in
  let body = if n > 0 && Char.equal text.[n - 1] '\n' then n - 1 else n in
  let start =
    match String.rindex_from_opt text (body - 1) '\n' with
    | Some i -> i + 1
    | None -> 0
  in
  let kept =
    start = 0
    ||
    match Json.of_string (String.sub text start (body - start)) with
    | Ok v -> keep v
    | Error _ -> false
  in
  if not kept then Unix.truncate path start;
  let oc = open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path in
  if kept && body = n && n > 0 then output_char oc '\n';
  { oc; buf = Buffer.create 256 }

let write ~path ~schema fields to_json items =
  let w = create ~path ~schema fields in
  Fun.protect
    ~finally:(fun () -> close_noerr w)
    (fun () ->
      List.iter (fun x -> append w (to_json x)) items;
      close w)

(* --- reading --- *)

type 'a line =
  | Decoded of 'a
  | Undecodable
  | Not_json of string
  | Contradicts of string

let decoded = function Some x -> Decoded x | None -> Undecodable

let tree decode h text =
  match Json.of_string text with Ok v -> decode h v | Error msg -> Not_json msg

let refused text =
  match Json.of_string text with Ok _ -> Undecodable | Error msg -> Not_json msg

let load ~who ~schema ~path ~header ~line =
  let fail ?(context = []) what =
    Error (Error.v Error.Bad_spec ~who what ~context:(("path", path) :: context))
  in
  let read ic =
    match input_line ic with
    | exception End_of_file ->
        fail (Printf.sprintf "empty %s file (no header)" schema)
    | hline -> (
        match Json.of_string hline with
        | Error msg -> fail "unreadable header" ~context:[ ("detail", msg) ]
        | Ok hv -> (
            match Option.bind (fields_of_header ~schema hv) header with
            | None -> fail (Printf.sprintf "header is not a %s header" schema)
            | Some h ->
                (* [n] is the 1-based number of the line being decoded. *)
                let rec go acc n =
                  match input_line ic with
                  | exception End_of_file -> Ok (h, List.rev acc)
                  | text -> (
                      let undecodable detail =
                        match input_line ic with
                        | exception End_of_file -> Ok (h, List.rev acc)
                        | _ ->
                            fail "corrupt line before end of file"
                              ~context:(("line", string_of_int n) :: detail)
                      in
                      match line h text with
                      | Decoded x -> go (x :: acc) (n + 1)
                      | Undecodable -> undecodable []
                      | Not_json msg -> undecodable [ ("detail", msg) ]
                      | Contradicts what ->
                          fail what ~context:[ ("line", string_of_int n) ])
                in
                go [] 2))
  in
  match open_in_bin path with
  | exception Sys_error msg -> fail msg
  | ic -> (
      match Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> read ic) with
      | result -> result
      | exception Sys_error msg -> fail msg)
