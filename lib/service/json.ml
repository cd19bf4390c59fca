type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

(* ------------------------------------------------------------------ *)
(* printing                                                            *)

let add_escape buf = function
  | '"' -> Buffer.add_string buf "\\\""
  | '\\' -> Buffer.add_string buf "\\\\"
  | '\n' -> Buffer.add_string buf "\\n"
  | '\r' -> Buffer.add_string buf "\\r"
  | '\t' -> Buffer.add_string buf "\\t"
  | '\b' -> Buffer.add_string buf "\\b"
  | '\012' -> Buffer.add_string buf "\\f"
  | c -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))

(* Each run of bytes that needs no escape is copied with one
   [add_substring]: a payload is mostly such runs. *)
let add_escaped buf s =
  Buffer.add_char buf '"';
  let run = ref 0 in
  for i = 0 to String.length s - 1 do
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || Char.code c < 0x20 then begin
      Buffer.add_substring buf s !run (i - !run);
      add_escape buf c;
      run := i + 1
    end
  done;
  Buffer.add_substring buf s !run (String.length s - !run);
  Buffer.add_char buf '"'

let add_float buf f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string buf (Printf.sprintf "%.1f" f)
  else Buffer.add_string buf (Printf.sprintf "%.17g" f)

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> add_float buf f
  | String s -> add_escaped buf s
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          to_buffer buf item)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          add_escaped buf k;
          Buffer.add_char buf ':';
          to_buffer buf v)
        fields;
      Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 256 in
  to_buffer buf j;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* parsing                                                             *)

type cursor = { src : string; mutable pos : int }

let fail c msg =
  raise (Parse_error (Printf.sprintf "at offset %d: %s" c.pos msg))

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let skip_ws c =
  while
    c.pos < String.length c.src
    && match c.src.[c.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    c.pos <- c.pos + 1
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> c.pos <- c.pos + 1
  | Some x -> fail c (Printf.sprintf "expected %c, found %c" ch x)
  | None -> fail c (Printf.sprintf "expected %c, found end of input" ch)

let literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.src && String.sub c.src c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else fail c (Printf.sprintf "expected %s" word)

let parse_hex4 c =
  if c.pos + 4 > String.length c.src then fail c "truncated \\u escape";
  let v = int_of_string_opt ("0x" ^ String.sub c.src c.pos 4) in
  match v with
  | Some v ->
      c.pos <- c.pos + 4;
      v
  | None -> fail c "bad \\u escape"

let add_utf8 buf code =
  (* encode one scalar value; surrogate pairs are handled by the caller *)
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else if code < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (code lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end

let parse_string c =
  expect c '"';
  let buf = Buffer.create 32 in
  let rec loop () =
    match peek c with
    | None -> fail c "unterminated string"
    | Some '"' -> c.pos <- c.pos + 1
    | Some '\\' -> (
        c.pos <- c.pos + 1;
        match peek c with
        | None -> fail c "unterminated escape"
        | Some e ->
            c.pos <- c.pos + 1;
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
                let hi = parse_hex4 c in
                if hi >= 0xD800 && hi <= 0xDBFF then begin
                  (* low surrogate must follow *)
                  expect c '\\';
                  expect c 'u';
                  let lo = parse_hex4 c in
                  if lo < 0xDC00 || lo > 0xDFFF then
                    fail c "invalid low surrogate";
                  add_utf8 buf
                    (0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00))
                end
                else add_utf8 buf hi
            | _ -> fail c "bad escape character");
            loop ())
    | Some ch ->
        c.pos <- c.pos + 1;
        Buffer.add_char buf ch;
        loop ()
  in
  loop ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let is_num_char ch =
    match ch with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while
    c.pos < String.length c.src && is_num_char c.src.[c.pos]
  do
    c.pos <- c.pos + 1
  done;
  let text = String.sub c.src start (c.pos - start) in
  let floating =
    String.exists (fun ch -> ch = '.' || ch = 'e' || ch = 'E') text
  in
  if floating then
    match float_of_string_opt text with
    | Some f -> Float f
    | None -> fail c (Printf.sprintf "bad number %S" text)
  else
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> fail c (Printf.sprintf "bad number %S" text)

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail c "unexpected end of input"
  | Some 'n' -> literal c "null" Null
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some '"' -> String (parse_string c)
  | Some '[' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if peek c = Some ']' then begin
        c.pos <- c.pos + 1;
        List []
      end
      else begin
        let rec items acc =
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              c.pos <- c.pos + 1;
              items (v :: acc)
          | Some ']' ->
              c.pos <- c.pos + 1;
              List.rev (v :: acc)
          | _ -> fail c "expected , or ] in array"
        in
        List (items [])
      end
  | Some '{' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if peek c = Some '}' then begin
        c.pos <- c.pos + 1;
        Obj []
      end
      else begin
        let field () =
          skip_ws c;
          let k = parse_string c in
          skip_ws c;
          expect c ':';
          let v = parse_value c in
          (k, v)
        in
        let rec fields acc =
          let f = field () in
          skip_ws c;
          match peek c with
          | Some ',' ->
              c.pos <- c.pos + 1;
              fields (f :: acc)
          | Some '}' ->
              c.pos <- c.pos + 1;
              List.rev (f :: acc)
          | _ -> fail c "expected , or } in object"
        in
        Obj (fields [])
      end
  | Some ('0' .. '9' | '-') -> parse_number c
  | Some ch -> fail c (Printf.sprintf "unexpected character %c" ch)

let of_string s =
  let c = { src = s; pos = 0 } in
  let v = parse_value c in
  skip_ws c;
  if c.pos <> String.length s then fail c "trailing input after value";
  v

(* ------------------------------------------------------------------ *)
(* accessors                                                           *)

let member k = function
  | Obj fields -> ( match List.assoc_opt k fields with Some v -> v | None -> Null)
  | _ -> Null

let to_int_opt = function Int i -> Some i | _ -> None
let to_bool_opt = function Bool b -> Some b | _ -> None
let to_string_opt = function String s -> Some s | _ -> None
