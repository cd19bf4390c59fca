type span = { start : int; len : int }

let apply_edit src { start; len } text =
  let n = String.length src in
  if start < 0 || len < 0 || start + len > n then
    invalid_arg "Delta.Splice.apply_edit: span out of bounds";
  String.sub src 0 start ^ text ^ String.sub src (start + len) (n - start - len)

let diff_span base edited =
  if String.equal base edited then None
  else begin
    let nb = String.length base and ne = String.length edited in
    let p = ref 0 in
    while !p < nb && !p < ne && base.[!p] = edited.[!p] do incr p done;
    let s = ref 0 in
    while
      !s < nb - !p && !s < ne - !p
      && base.[nb - 1 - !s] = edited.[ne - 1 - !s]
    do
      incr s
    done;
    let span = { start = !p; len = nb - !p - !s } in
    Some (span, String.sub edited !p (ne - !p - !s))
  end

type kind = Const | Shared | Private | Proc

type item = { ikind : kind; iname : string; istart : int; istop : int }

let items src =
  let toks = Array.of_list (Lang.Lexer.tokenize_loc src) in
  let n = Array.length toks in
  let malformed () = failwith "Delta.Splice.items: malformed source" in
  let name_at i =
    if i >= n then malformed ()
    else match toks.(i) with Lang.Lexer.IDENT s, _, _, _ -> s | _ -> malformed ()
  in
  let rec find_semi i =
    if i >= n then malformed ()
    else match toks.(i) with Lang.Lexer.SEMI, _, _, _ -> i | _ -> find_semi (i + 1)
  in
  let rec find_close i depth =
    if i >= n then malformed ()
    else
      match toks.(i) with
      | Lang.Lexer.LBRACE, _, _, _ -> find_close (i + 1) (depth + 1)
      | Lang.Lexer.RBRACE, _, _, _ ->
          if depth = 1 then i else find_close (i + 1) (depth - 1)
      | _ -> find_close (i + 1) depth
  in
  let rec scan i acc =
    if i >= n then List.rev acc
    else
      match toks.(i) with
      | Lang.Lexer.EOF, _, _, _ -> List.rev acc
      | Lang.Lexer.IDENT kw, _, istart, _
        when kw = "const" || kw = "shared" || kw = "private" ->
          let j = find_semi (i + 1) in
          let _, _, _, istop = toks.(j) in
          let ikind =
            match kw with
            | "const" -> Const
            | "shared" -> Shared
            | _ -> Private
          in
          scan (j + 1) ({ ikind; iname = name_at (i + 1); istart; istop } :: acc)
      | Lang.Lexer.IDENT "proc", _, istart, _ ->
          let j = find_close (i + 1) 0 in
          let _, _, _, istop = toks.(j) in
          scan (j + 1)
            ({ ikind = Proc; iname = name_at (i + 1); istart; istop } :: acc)
      | _ -> malformed ()
  in
  scan 0 []

let int_literals src =
  let proc_ranges =
    List.filter_map
      (fun it -> if it.ikind = Proc then Some (it.istart, it.istop) else None)
      (items src)
  in
  List.filter_map
    (fun (tok, _, start, stop) ->
      match tok with
      | Lang.Lexer.INT v
        when List.exists (fun (a, b) -> a <= start && stop <= b) proc_ranges ->
          Some ({ start; len = stop - start }, v)
      | _ -> None)
    (Lang.Lexer.tokenize_loc src)

let splice ~items ~base ~base_ast span text =
  let edited = apply_edit base span text in
  let full () = (Lang.Parser.parse edited, `Full) in
  (* The incremental path needs the edit strictly inside one procedure
     item, off its first and last byte: everything before the item is
     then byte-identical in the edited source, so the item's slice can be
     re-parsed in isolation, and the item keeps its first and last token,
     so the edited table is the base's shifted past the edit. *)
  let s = span.start and e = span.start + span.len in
  let rec target k = function
    | [] -> None
    | it :: _ when it.istart < s && e < it.istop ->
        if it.ikind = Proc then Some (it, k) else None
    | it :: rest -> target (if it.ikind = Proc then k + 1 else k) rest
  in
  match target 0 items with
  | None -> full ()
  | Some (it, k) -> (
      let delta = String.length text - span.len in
      let slice = String.sub edited it.istart (it.istop + delta - it.istart) in
      let sub =
        try
          let p = Lang.Parser.parse slice in
          match (p.Lang.Ast.decls, p.Lang.Ast.procs) with
          | [], [ pr ] -> Some pr
          | _ -> None
        with _ -> None
      in
      match sub with
      | None -> full ()
      | Some pr ->
          let procs =
            List.mapi
              (fun i p0 -> if i = k then pr else p0)
              base_ast.Lang.Ast.procs
          in
          let shift it' =
            if it'.istop <= s then it'
            else if it' == it then
              { it with iname = pr.Lang.Ast.pname; istop = it.istop + delta }
            else
              { it' with istart = it'.istart + delta; istop = it'.istop + delta }
          in
          ( Lang.Ast.renumber { base_ast with Lang.Ast.procs },
            `Incremental (k, List.map shift items) ))
