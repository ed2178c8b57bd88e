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

let add_float_ext buf x =
  if Float.is_finite x then add_float buf x
  else if Float.is_nan x then Buffer.add_string buf "\"nan\""
  else if x > 0. then Buffer.add_string buf "\"inf\""
  else Buffer.add_string buf "\"-inf\""

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

(* --- reader ---

   One lexer, two clients: [of_string] builds a tree from a {!Cursor}, and
   typed decoders ([Wfs_obs.Trace]) pull fields straight off one.  Every
   byte is classified by the functions below, so both clients accept the
   same grammar and fail with the same text at the same offset. *)

exception Bad of int * string

let hex_value c =
  match c with
  | '0' .. '9' -> Char.code c - 48
  | 'a' .. 'f' -> Char.code c - 87
  | 'A' .. 'F' -> Char.code c - 55
  | _ -> -1

(* Exact powers of ten: every one up to 1e22 is representable.  A
   [match] rather than a table, so the module keeps no long-lived block
   of its own size class in the major heap. *)
let pow10 = function
  | 0 -> 1e0
  | 1 -> 1e1
  | 2 -> 1e2
  | 3 -> 1e3
  | 4 -> 1e4
  | 5 -> 1e5
  | 6 -> 1e6
  | 7 -> 1e7
  | 8 -> 1e8
  | 9 -> 1e9
  | 10 -> 1e10
  | 11 -> 1e11
  | 12 -> 1e12
  | 13 -> 1e13
  | 14 -> 1e14
  | 15 -> 1e15
  | 16 -> 1e16
  | 17 -> 1e17
  | 18 -> 1e18
  | 19 -> 1e19
  | 20 -> 1e20
  | 21 -> 1e21
  | _ -> 1e22

module Cursor = struct
  exception Mismatch

  (* Number tokens.  A token is the longest run of number bytes; it is a
     float when it holds [.], [e] or [E] and an int otherwise, and either
     way must read whole, as OCaml reads it, to a finite value.  One scan
     lexes the token and sorts it:
     - [Int_fast]: an optional [-] and digits whose value stays below
       1e18, which cannot overflow;
     - [Float_fast]: Clinger's fast path, an optional [-] and digits with
       one [.], at least one digit, no exponent, at most 15 significant
       digits and at most 22 after the point.  The mantissa and the power
       of ten are then both exact, so one correctly rounded division
       gives the float [float_of_string] would;
     - [Int_slow] / [Float_slow]: anything else, handed to
       [int_of_string_opt] / [float_of_string_opt] as a [String.sub]. *)
  type token = Int_fast | Float_fast | Int_slow | Float_slow

  type t = {
    s : string;
    n : int;
    mutable pos : int;
    (* The last string lexed: bytes [str_start, str_stop) of [s], or
       [str_text] when it held an escape ([str_start] is then -1). *)
    mutable str_start : int;
    mutable str_stop : int;
    mutable str_text : string;
    (* The last number token lexed: its kind and first byte, and on the
       fast paths its digits as an integer [mant] with [frac] of them
       after the point, and its sign. *)
    mutable tok : token;
    mutable tok_start : int;
    mutable mant : int;
    mutable frac : int;
    mutable neg : bool;
    (* The member key lexed last, as an index in the caller's key table
       (-1 when absent from it), and the index tried first for the next
       member. *)
    mutable key_index : int;
    mutable next_key : int;
  }

  let make s =
    {
      s;
      n = String.length s;
      pos = 0;
      str_start = 0;
      str_stop = 0;
      str_text = "";
      tok = Int_fast;
      tok_start = 0;
      mant = 0;
      frac = 0;
      neg = false;
      key_index = -1;
      next_key = 0;
    }

  (* The lexers below take the index to start at and return the index
     they stop at: only the entry points load and store [pos], once
     each, so the position stays in a register while a token is read. *)

  let fail_at k msg = raise (Bad (k, msg))

  (* Comparisons rather than a [match], so that it inlines; a byte above
     the space, the common case, takes one test. *)
  let[@inline] is_ws ch =
    Char.code ch <= 32
    && (Char.equal ch ' ' || Char.equal ch '\n' || Char.equal ch '\t' || Char.equal ch '\r')

  let rec ws_loop s n k =
    if k < n && is_ws (String.unsafe_get s k) then ws_loop s n (k + 1) else k

  (* The first index from [k] on that is not whitespace.  Inlined: most
     tokens follow their separator directly. *)
  let[@inline] ws s n k =
    if k < n && is_ws (String.unsafe_get s k) then ws_loop s n (k + 1) else k

  let[@inline] byte_is s n k ch = k < n && Char.equal (String.unsafe_get s k) ch

  let literal_at s n k word =
    let m = String.length word in
    if k + m > n then fail_at k (Printf.sprintf "expected %s" word);
    for i = 0 to m - 1 do
      if not (Char.equal (String.unsafe_get s (k + i)) word.[i]) then
        fail_at k (Printf.sprintf "expected %s" word)
    done;
    k + m

  (* The four hex digits of a [\u] escape at [k], appended to [buf] as
     their character; the index after them. *)
  let unicode_escape s n k buf =
    if k + 4 > n then fail_at k "short \\u escape";
    let hex i = hex_value (String.unsafe_get s (k + i)) in
    let d0 = hex 0 and d1 = hex 1 and d2 = hex 2 and d3 = hex 3 in
    (* Exactly four hex digits; ASCII only, as the writer never emits
       higher escapes. *)
    if d0 < 0 || d1 < 0 || d2 < 0 || d3 < 0 then fail_at (k + 4) "bad \\u escape";
    let code = (d0 lsl 12) lor (d1 lsl 8) lor (d2 lsl 4) lor d3 in
    if code >= 0x80 then fail_at (k + 4) "non-ASCII \\u escape unsupported";
    Buffer.add_char buf (Char.chr code);
    k + 4

  (* The rest of a string from [k] (at its first backslash) to the
     closing quote, appended to [buf]; the index after the quote. *)
  let rec lex_escaped s n k buf =
    if k >= n then fail_at k "unterminated string";
    match String.unsafe_get s k with
    | '"' -> k + 1
    | '\\' ->
        let k = k + 1 in
        if k >= n then fail_at k "unterminated escape";
        let e = String.unsafe_get s k in
        if Char.equal e 'u' then lex_escaped s n (unicode_escape s n (k + 1) buf) buf
        else begin
          Buffer.add_char buf
            (match e with
            | '"' -> '"'
            | '\\' -> '\\'
            | '/' -> '/'
            | 'n' -> '\n'
            | 'r' -> '\r'
            | 't' -> '\t'
            | 'b' -> '\b'
            | 'f' -> '\012'
            | _ -> fail_at (k + 1) "unknown escape");
          lex_escaped s n (k + 1) buf
        end
    | ch ->
        Buffer.add_char buf ch;
        lex_escaped s n (k + 1) buf

  (* The string at [k]: one with no backslash is left in place as a span
     of [s]; the first backslash hands the rest to [lex_escaped]. *)
  let lex_string_at c k =
    let s = c.s and n = c.n in
    if not (byte_is s n k '"') then fail_at k "expected \"";
    let start = k + 1 in
    let j = ref start in
    while !j < n && (match String.unsafe_get s !j with '"' | '\\' -> false | _ -> true) do
      incr j
    done;
    let j = !j in
    if j >= n then fail_at j "unterminated string"
    else if Char.equal (String.unsafe_get s j) '"' then begin
      c.str_start <- start;
      c.str_stop <- j;
      j + 1
    end
    else begin
      let buf = Buffer.create (2 * (j - start) + 16) in
      Buffer.add_substring buf s start (j - start);
      let stop = lex_escaped s n j buf in
      c.str_start <- -1;
      c.str_text <- Buffer.contents buf;
      stop
    end

  let string_value c =
    if c.str_start < 0 then c.str_text
    else String.sub c.s c.str_start (c.str_stop - c.str_start)

  let rec same_bytes s at word k m =
    k >= m
    || Char.equal (String.unsafe_get s (at + k)) (String.unsafe_get word k)
       && same_bytes s at word (k + 1) m

  (* The index in [keys] of the [len] bytes of [s] at [at], or -1. *)
  let rec key_in s at len keys k =
    if k >= Array.length keys then -1
    else
      let word = Array.unsafe_get keys k in
      if String.length word = len && same_bytes s at word 0 len then k
      else key_in s at len keys (k + 1)

  let key c keys =
    if c.str_start < 0 then key_in c.str_text 0 (String.length c.str_text) keys 0
    else key_in c.s c.str_start (c.str_stop - c.str_start) keys 0

  (* The index after the string at [k] when it is exactly [word], written
     with no escape, or -1.  [word] holds no quote or backslash. *)
  let plain_key_at s n k word =
    let m = String.length word in
    if k + m + 1 < n
       && Char.equal (String.unsafe_get s k) '"'
       && same_bytes s (k + 1) word 0 m
       && Char.equal (String.unsafe_get s (k + 1 + m)) '"'
    then k + m + 2
    else -1

  (* A member's key at [k] (after whitespace) and its colon; the index
     after the colon.  The key's index in [keys] goes to [key_index].  The
     key after the last one matched is tried in place first, so a writer
     that keeps the table's order has each key matched without lexing it
     as a string; any other key is lexed and looked up. *)
  let member_key_at c k keys =
    let s = c.s and n = c.n in
    let k = ws s n k in
    let hint = c.next_key in
    let stop =
      if hint < Array.length keys then plain_key_at s n k (Array.unsafe_get keys hint) else -1
    in
    let stop =
      if stop >= 0 then begin
        c.str_start <- k + 1;
        c.str_stop <- stop - 1;
        c.key_index <- hint;
        stop
      end
      else begin
        let stop = lex_string_at c k in
        c.key_index <- key c keys;
        stop
      end
    in
    c.next_key <- c.key_index + 1;
    let k = ws s n stop in
    if byte_is s n k ':' then k + 1 else fail_at k "expected :"

  let[@inline] number_start ch =
    match ch with '"' | '{' | '[' | 't' | 'f' | 'n' -> false | _ -> true

  let[@inline] is_digit ch = match ch with '0' .. '9' -> true | _ -> false

  let[@inline] number_byte ch =
    match ch with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false

  (* The rest of a token that left the fast paths at [j]. *)
  let rec slow_token c s n j floaty =
    if j < n && number_byte (String.unsafe_get s j) then
      slow_token c s n (j + 1)
        (floaty || match String.unsafe_get s j with '.' | 'e' | 'E' -> true | _ -> false)
    else begin
      c.tok <- (if floaty then Float_slow else Int_slow);
      j
    end

  (* The number token at [k], sorted into [tok]; the index after it.  The
     fast paths accumulate the digits as they scan: the integer part, then
     a fraction, each ended by a byte that cannot continue the token.  A
     digit is added only while the mantissa is below 1e17, so it stays
     below 1e18 and cannot overflow; a longer token takes the slow path.
     A mantissa below 1e15 has at most 15 significant digits. *)
  let lex_number_at c k =
    let s = c.s and n = c.n in
    let neg = byte_is s n k '-' in
    let first = if neg then k + 1 else k in
    c.tok_start <- k;
    c.neg <- neg;
    let j = ref first and mant = ref 0 in
    while !j < n && is_digit (String.unsafe_get s !j) && !mant < 100_000_000_000_000_000 do
      mant := (10 * !mant) + Char.code (String.unsafe_get s !j) - 48;
      incr j
    done;
    let whole = !j - first in
    if not (!j < n && number_byte (String.unsafe_get s !j)) then
      if whole >= 1 then begin
        c.tok <- Int_fast;
        c.mant <- !mant;
        !j
      end
      else slow_token c s n !j false
    else if Char.equal (String.unsafe_get s !j) '.' then begin
      incr j;
      let frac_start = !j in
      while !j < n && is_digit (String.unsafe_get s !j) && !mant < 100_000_000_000_000_000 do
        mant := (10 * !mant) + Char.code (String.unsafe_get s !j) - 48;
        incr j
      done;
      let frac = !j - frac_start in
      if !j < n && number_byte (String.unsafe_get s !j) then slow_token c s n !j true
      else if whole + frac >= 1 && !mant < 1_000_000_000_000_000 && frac <= 22 then begin
        c.tok <- Float_fast;
        c.mant <- !mant;
        c.frac <- frac;
        !j
      end
      else begin
        c.tok <- Float_slow;
        !j
      end
    end
    else slow_token c s n !j false

  (* The value of the token lexed last, which ends at [stop]. *)

  let token_text c stop = String.sub c.s c.tok_start (stop - c.tok_start)
  let bad_number c stop = fail_at stop (Printf.sprintf "bad number %S" (token_text c stop))
  let fast_int c = if c.neg then -c.mant else c.mant

  let fast_float c =
    let x = float_of_int c.mant /. pow10 c.frac in
    if c.neg then -.x else x

  let slow_int c stop =
    match int_of_string_opt (token_text c stop) with Some i -> i | None -> bad_number c stop

  let slow_float c stop =
    match float_of_string_opt (token_text c stop) with
    | Some x when Float.is_finite x -> x
    | Some _ | None -> bad_number c stop

  (* Containers.  Entering one consumes the opening bracket and reports
     whether a member/item follows; [more_members]/[arr_more] consume the
     separator or the closing bracket after one.  Entering a member reads
     its key against [keys] and its colon, leaving [pos] at the value;
     [skip] and [of_string] pass [no_keys]. *)

  let enter_obj c k keys =
    let s = c.s and n = c.n in
    let k = ws s n (k + 1) in
    if byte_is s n k '}' then begin
      c.pos <- k + 1;
      false
    end
    else begin
      c.next_key <- 0;
      c.pos <- member_key_at c k keys;
      true
    end

  let enter_arr c k =
    let s = c.s and n = c.n in
    let k = ws s n (k + 1) in
    if byte_is s n k ']' then begin
      c.pos <- k + 1;
      false
    end
    else begin
      c.pos <- k;
      true
    end

  let more_members c keys =
    let s = c.s and n = c.n in
    let k = ws s n c.pos in
    if byte_is s n k ',' then begin
      c.pos <- member_key_at c (k + 1) keys;
      true
    end
    else if byte_is s n k '}' then begin
      c.pos <- k + 1;
      false
    end
    else fail_at k "expected , or } in object"

  let arr_more c =
    let s = c.s and n = c.n in
    let k = ws s n c.pos in
    if byte_is s n k ',' then begin
      c.pos <- k + 1;
      true
    end
    else if byte_is s n k ']' then begin
      c.pos <- k + 1;
      false
    end
    else fail_at k "expected , or ] in array"

  (* The first byte of the next value, at index [k] after whitespace. *)
  let[@inline] value_start c k =
    if k < c.n then String.unsafe_get c.s k else fail_at k "unexpected end of input"

  let no_keys = [||]

  let rec skip c =
    let k = ws c.s c.n c.pos in
    match value_start c k with
    | '"' -> c.pos <- lex_string_at c k
    | '{' ->
        if enter_obj c k no_keys then begin
          skip c;
          while more_members c no_keys do
            skip c
          done
        end
    | '[' ->
        if enter_arr c k then begin
          skip c;
          while arr_more c do
            skip c
          done
        end
    | 't' -> c.pos <- literal_at c.s c.n k "true"
    | 'f' -> c.pos <- literal_at c.s c.n k "false"
    | 'n' -> c.pos <- literal_at c.s c.n k "null"
    | _ -> (
        let stop = lex_number_at c k in
        c.pos <- stop;
        match c.tok with
        | Int_fast | Float_fast -> ()
        | Int_slow -> ignore (slow_int c stop : int)
        | Float_slow -> ignore (slow_float c stop : float))

  let mismatch c k =
    c.pos <- k;
    skip c;
    raise Mismatch

  let arr_first c =
    let k = ws c.s c.n c.pos in
    if Char.equal (value_start c k) '[' then enter_arr c k else mismatch c k

  let obj_end = -2

  let obj_first c keys =
    let k = ws c.s c.n c.pos in
    if Char.equal (value_start c k) '{' then if enter_obj c k keys then c.key_index else obj_end
    else mismatch c k

  let obj_more c keys = if more_members c keys then c.key_index else obj_end

  let int c =
    let k = ws c.s c.n c.pos in
    if number_start (value_start c k) then begin
      let stop = lex_number_at c k in
      c.pos <- stop;
      match c.tok with
      | Int_fast -> fast_int c
      | Int_slow -> slow_int c stop
      | Float_fast -> raise Mismatch
      | Float_slow ->
          ignore (slow_float c stop : float);
          raise Mismatch
    end
    else mismatch c k

  let number_as_float c k =
    let stop = lex_number_at c k in
    c.pos <- stop;
    match c.tok with
    | Float_fast -> fast_float c
    | Float_slow -> slow_float c stop
    | Int_fast -> float_of_int (fast_int c)
    | Int_slow -> float_of_int (slow_int c stop)

  let float c =
    let k = ws c.s c.n c.pos in
    if number_start (value_start c k) then number_as_float c k else mismatch c k

  let non_finite = [| "nan"; "inf"; "-inf" |]

  let float_ext c =
    let k = ws c.s c.n c.pos in
    match value_start c k with
    | '"' ->
        c.pos <- lex_string_at c k;
        (match key c non_finite with
        | 0 -> Float.nan
        | 1 -> Float.infinity
        | 2 -> Float.neg_infinity
        | _ -> raise Mismatch)
    | ch -> if number_start ch then number_as_float c k else mismatch c k

  let optional read c = match read c with v -> Some v | exception Mismatch -> None

  let finish c =
    let k = ws c.s c.n c.pos in
    if k < c.n then fail_at k "trailing garbage after document"

  let parse read s =
    let c = make s in
    match
      let v = read c in
      finish c;
      v
    with
    | v -> Some v
    | exception (Bad _ | Mismatch) -> None
end

let of_string s =
  let open Cursor in
  let c = make s in
  let rec value () =
    let k = ws c.s c.n c.pos in
    match value_start c k with
    | '"' ->
        c.pos <- lex_string_at c k;
        Str (string_value c)
    | '{' -> Obj (if enter_obj c k no_keys then members [] else [])
    | '[' -> Arr (if enter_arr c k then items [] else [])
    | 't' ->
        c.pos <- literal_at c.s c.n k "true";
        Bool true
    | 'f' ->
        c.pos <- literal_at c.s c.n k "false";
        Bool false
    | 'n' ->
        c.pos <- literal_at c.s c.n k "null";
        Null
    | _ -> (
        let stop = lex_number_at c k in
        c.pos <- stop;
        match c.tok with
        | Int_fast -> Int (fast_int c)
        | Int_slow -> Int (slow_int c stop)
        | Float_fast -> Float (fast_float c)
        | Float_slow -> Float (slow_float c stop))
  and members acc =
    let k = string_value c in
    let acc = (k, value ()) :: acc in
    if more_members c no_keys then members acc else List.rev acc
  and items acc =
    let acc = value () :: acc in
    if arr_more c then items acc else List.rev acc
  in
  match
    let v = value () in
    finish c;
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
