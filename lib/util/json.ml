type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* --- numbers ---

   Written straight into the caller's buffer.  The bytes are those of
   [string_of_int] and [Printf.sprintf "%.1f" / "%.12g" / "%.17g"]: the
   non-integral case calls the C primitive [Printf] itself uses for those
   conversions, without the format interpreter in between. *)

external format_float : string -> float -> string = "caml_format_float"

let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

let add_int buf i =
  if i = min_int then Buffer.add_string buf (string_of_int i)
  else begin
    if i < 0 then Buffer.add_char buf '-';
    add_digits buf (abs i)
  end

let add_float buf x =
  if Float.is_integer x && Float.abs x < 1e15 then begin
    let i = int_of_float x in
    if i = 0 && Float.sign_bit x then Buffer.add_char buf '-';
    add_int buf i;
    Buffer.add_string buf ".0"
  end
  else begin
    let short = format_float "%.12g" x in
    (* lint: allow R3 -- exact round-trip probe: picks the shortest decimal that restores the bits *)
    if float_of_string short = x then Buffer.add_string buf short
    else Buffer.add_string buf (format_float "%.17g" x)
  end

let float_to_string x =
  let buf = Buffer.create 24 in
  add_float buf x;
  Buffer.contents buf

(* --- writer --- *)

let hex_digits = "0123456789abcdef"

let needs_escape c = Char.code c < 0x20 || Char.equal c '"' || Char.equal c '\\'

let escape_string buf s =
  Buffer.add_char buf '"';
  if not (String.exists needs_escape s) then Buffer.add_string buf s
  else
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf "\\u00";
            Buffer.add_char buf hex_digits.[Char.code c lsr 4];
            Buffer.add_char buf hex_digits.[Char.code c land 0xf]
        | c -> Buffer.add_char buf c)
      s;
  Buffer.add_char buf '"'

(* [pretty] only adds the newline and two-space indent before each member
   and closing bracket, and the space after a key's colon. *)
let indent buf pretty depth =
  if pretty then begin
    Buffer.add_char buf '\n';
    for _ = 1 to 2 * depth do
      Buffer.add_char buf ' '
    done
  end

let rec write buf pretty depth v =
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> add_int buf i
  | Float x -> add_float buf x
  | Str s -> escape_string buf s
  | Arr [] -> Buffer.add_string buf "[]"
  | Arr (item :: rest) ->
      Buffer.add_char buf '[';
      indent buf pretty (depth + 1);
      write buf pretty (depth + 1) item;
      write_items buf pretty depth rest;
      indent buf pretty depth;
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj (field :: rest) ->
      Buffer.add_char buf '{';
      write_field buf pretty depth field;
      write_fields buf pretty depth rest;
      indent buf pretty depth;
      Buffer.add_char buf '}'

and write_items buf pretty depth items =
  match items with
  | [] -> ()
  | item :: rest ->
      Buffer.add_char buf ',';
      indent buf pretty (depth + 1);
      write buf pretty (depth + 1) item;
      write_items buf pretty depth rest

and write_field buf pretty depth (k, item) =
  indent buf pretty (depth + 1);
  escape_string buf k;
  Buffer.add_string buf (if pretty then ": " else ":");
  write buf pretty (depth + 1) item

and write_fields buf pretty depth fields =
  match fields with
  | [] -> ()
  | field :: rest ->
      Buffer.add_char buf ',';
      write_field buf pretty depth field;
      write_fields buf pretty depth rest

let to_buffer ?(pretty = true) buf v = write buf pretty 0 v

let to_string ?(pretty = true) v =
  let buf = Buffer.create 1024 in
  to_buffer ~pretty buf v;
  Buffer.contents buf

(* --- reader --- *)

exception Bad of int * string

let hex_value c =
  match c with
  | '0' .. '9' -> Char.code c - 48
  | 'a' .. 'f' -> Char.code c - 87
  | 'A' .. 'F' -> Char.code c - 55
  | _ -> -1

(* The value of the decimal digits [s.[k .. stop-1]] on top of [acc], or
   -1 if one of those bytes is not a digit. *)
let rec digits_value s k stop acc =
  if k >= stop then acc
  else
    match String.unsafe_get s k with
    | '0' .. '9' as c -> digits_value s (k + 1) stop ((10 * acc) + Char.code c - 48)
    | _ -> -1

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (!pos, msg)) in
  let skip_ws () =
    while
      !pos < n
      && (match String.unsafe_get s !pos with
         | ' ' | '\t' | '\n' | '\r' -> true
         | _ -> false)
    do
      incr pos
    done
  in
  (* The byte at [pos], or [eof_msg] once the input is exhausted. *)
  let current eof_msg =
    if !pos < n then String.unsafe_get s !pos else fail eof_msg
  in
  let expect c =
    if !pos < n && Char.equal (String.unsafe_get s !pos) c then incr pos
    else fail (Printf.sprintf "expected %c" c)
  in
  let literal word v =
    let m = String.length word in
    if !pos + m > n then fail (Printf.sprintf "expected %s" word);
    for k = 0 to m - 1 do
      if not (Char.equal (String.unsafe_get s (!pos + k)) word.[k]) then
        fail (Printf.sprintf "expected %s" word)
    done;
    pos := !pos + m;
    v
  in
  (* The rest of a string from [pos] (at its first backslash) to the closing
     quote, appended to [buf]. *)
  let parse_escaped buf =
    let rec go () =
      let c = current "unterminated string" in
      incr pos;
      match c with
      | '"' -> Buffer.contents buf
      | '\\' ->
          let e = current "unterminated escape" in
          incr pos;
          (match e with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' ->
              if !pos + 4 > n then fail "short \\u escape";
              let at = !pos in
              pos := at + 4;
              let hex k = hex_value (String.unsafe_get s (at + k)) in
              let d0 = hex 0 and d1 = hex 1 and d2 = hex 2 and d3 = hex 3 in
              (* Exactly four hex digits; ASCII only, as the writer never
                 emits higher escapes. *)
              if d0 < 0 || d1 < 0 || d2 < 0 || d3 < 0 then fail "bad \\u escape";
              let code = (d0 lsl 12) lor (d1 lsl 8) lor (d2 lsl 4) lor d3 in
              if code >= 0x80 then fail "non-ASCII \\u escape unsupported";
              Buffer.add_char buf (Char.chr code)
          | _ -> fail "unknown escape");
          go ()
      | c ->
          Buffer.add_char buf c;
          go ()
    in
    go ()
  in
  (* A string with no backslash is one [String.sub]; the first backslash
     hands the rest to [parse_escaped]. *)
  let parse_string () =
    expect '"';
    let start = !pos in
    while
      !pos < n
      && (match String.unsafe_get s !pos with '"' | '\\' -> false | _ -> true)
    do
      incr pos
    done;
    match current "unterminated string" with
    | '"' ->
        incr pos;
        String.sub s start (!pos - 1 - start)
    | _ ->
        let buf = Buffer.create (2 * (!pos - start) + 16) in
        Buffer.add_substring buf s start (!pos - start);
        parse_escaped buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char (String.unsafe_get s !pos) do
      incr pos
    done;
    let stop = !pos in
    let neg = stop > start && Char.equal (String.unsafe_get s start) '-' in
    let first = if neg then start + 1 else start in
    (* An optional '-' and 1-18 digits cannot overflow an int. *)
    let value =
      if stop - first >= 1 && stop - first <= 18 then digits_value s first stop 0
      else -1
    in
    if value >= 0 then Int (if neg then -value else value)
    else begin
      let tok = String.sub s start (stop - start) in
      let is_floaty =
        String.exists
          (fun c -> match c with '.' | 'e' | 'E' -> true | _ -> false)
          tok
      in
      let bad () = fail (Printf.sprintf "bad number %S" tok) in
      if is_floaty then
        match float_of_string_opt tok with
        | Some x when Float.is_finite x -> Float x
        | Some _ | None -> bad ()
      else match int_of_string_opt tok with Some i -> Int i | None -> bad ()
    end
  in
  let rec parse_value () =
    skip_ws ();
    match current "unexpected end of input" with
    | '"' -> Str (parse_string ())
    | '{' ->
        incr pos;
        skip_ws ();
        if !pos < n && Char.equal (String.unsafe_get s !pos) '}' then begin
          incr pos;
          Obj []
        end
        else begin
          let rec fields acc =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match if !pos < n then String.unsafe_get s !pos else '\000' with
            | ',' -> incr pos; fields ((key, v) :: acc)
            | '}' -> incr pos; List.rev ((key, v) :: acc)
            | _ -> fail "expected , or } in object"
          in
          Obj (fields [])
        end
    | '[' ->
        incr pos;
        skip_ws ();
        if !pos < n && Char.equal (String.unsafe_get s !pos) ']' then begin
          incr pos;
          Arr []
        end
        else begin
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match if !pos < n then String.unsafe_get s !pos else '\000' with
            | ',' -> incr pos; items (v :: acc)
            | ']' -> incr pos; List.rev (v :: acc)
            | _ -> fail "expected , or ] in array"
          in
          Arr (items [])
        end
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> parse_number ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos < n then fail "trailing garbage after document";
    v
  with
  | v -> Ok v
  | exception Bad (at, msg) ->
      Error (Printf.sprintf "JSON parse error at offset %d: %s" at msg)

(* --- accessors --- *)

let member key v =
  match v with
  | Obj fields ->
      Option.map snd
        (List.find_opt (fun (k, _) -> String.equal k key) fields)
  | _ -> None

let to_int v = match v with Int i -> Some i | _ -> None

let to_float v =
  match v with Float x -> Some x | Int i -> Some (float_of_int i) | _ -> None

let to_str v = match v with Str s -> Some s | _ -> None
let to_list v = match v with Arr items -> Some items | _ -> None

(* --- non-finite-safe float encoding ---

   JSON has no nan/inf literals, so serializers that may see them (empty
   Summary min/max, unbounded slack) encode non-finite values as the
   strings "nan"/"inf"/"-inf" and decode them back exactly. *)

let of_float_ext x =
  if Float.is_finite x then Float x
  else if Float.is_nan x then Str "nan"
  else if x > 0. then Str "inf"
  else Str "-inf"

let to_float_ext v =
  match v with
  | Float x -> Some x
  | Int i -> Some (float_of_int i)
  | Str "nan" -> Some nan
  | Str "inf" -> Some infinity
  | Str "-inf" -> Some neg_infinity
  | _ -> None
