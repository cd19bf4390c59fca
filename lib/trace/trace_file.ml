let to_buffer ?protocol buf records =
  (match protocol with
  | Some p when p <> Memsys.Protocol_id.default ->
      (* Stamp non-default backends so a saved trace identifies the
         protocol that priced it; the parser skips [#] lines, so stamped
         traces stay readable by older tools. *)
      Buffer.add_string buf
        (Printf.sprintf "# protocol %s\n" (Memsys.Protocol_id.to_string p))
  | _ -> ());
  List.iter
    (fun r -> Buffer.add_string buf (Format.asprintf "%a@." Event.pp r))
    records

let to_string ?protocol records =
  let buf = Buffer.create 4096 in
  to_buffer ?protocol buf records;
  Buffer.contents buf

let save ?protocol path records =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string ?protocol records))

let kind_of_string lineno = function
  | "R" -> Event.Read_miss
  | "W" -> Event.Write_miss
  | "F" -> Event.Write_fault
  | s -> failwith (Printf.sprintf "trace line %d: bad miss kind %S" lineno s)

let parse_line lineno line =
  match String.split_on_char ' ' (String.trim line) with
  | [ "" ] -> None
  | s :: _ when String.length s > 0 && s.[0] = '#' -> None
  | "M" :: node :: pc :: addr :: kind :: rest ->
      let held =
        match rest with
        | [] -> []
        | [ locks ] when String.length locks > 1 && locks.[0] = 'L' ->
            String.split_on_char ','
              (String.sub locks 1 (String.length locks - 1))
            |> List.map int_of_string
        | _ ->
            failwith
              (Printf.sprintf "trace line %d: malformed miss record" lineno)
      in
      Some
        (Event.Miss
           {
             node = int_of_string node;
             pc = int_of_string pc;
             addr = int_of_string addr;
             kind = kind_of_string lineno kind;
             held;
           })
  | [ "B"; node; pc; vt ] ->
      Some
        (Event.Barrier
           {
             bnode = int_of_string node;
             bpc = int_of_string pc;
             vt = int_of_string vt;
           })
  | [ "L"; name; lo; hi ] ->
      Some (Event.Label { name; lo = int_of_string lo; hi = int_of_string hi })
  | _ -> failwith (Printf.sprintf "trace line %d: malformed record %S" lineno line)

let of_string s =
  let lines = String.split_on_char '\n' s in
  let rec loop lineno acc = function
    | [] -> List.rev acc
    | line :: rest -> (
        match
          try parse_line lineno line
          with Failure msg ->
            (* int_of_string and friends fail without positional context;
               keep messages that already carry it, wrap the rest. *)
            let msg =
              if String.length msg >= 10 && String.sub msg 0 10 = "trace line"
              then msg
              else
                Printf.sprintf "trace line %d: %s in %S" lineno msg
                  (String.trim line)
            in
            failwith msg
        with
        | None -> loop (lineno + 1) acc rest
        | Some r -> loop (lineno + 1) (r :: acc) rest)
  in
  loop 1 [] lines

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      of_string (really_input_string ic n))
