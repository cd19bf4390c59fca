let stmt_by_sid program sid =
  Ast.fold_stmts
    (fun acc s -> if s.Ast.sid = sid then Some s else acc)
    None program

let proc_of_sid program sid =
  let contains body =
    let found = ref false in
    let probe = { Ast.decls = []; procs = [ { pname = "_"; params = []; body } ] } in
    Ast.iter_stmts (fun s -> if s.Ast.sid = sid then found := true) probe;
    !found
  in
  List.fold_left
    (fun acc (p : Ast.proc) ->
      match acc with Some _ -> acc | None -> if contains p.body then Some p.pname else None)
    None program.Ast.procs

let insert_rel ~before program ~sid stmts =
  if stmts = [] then program
  else
    Ast.map_blocks
      (fun block ->
        List.concat_map
          (fun s ->
            if s.Ast.sid = sid then
              if before then stmts @ [ s ] else s :: stmts
            else [ s ])
          block)
      program

let insert_before program ~sid stmts = insert_rel ~before:true program ~sid stmts
let insert_after program ~sid stmts = insert_rel ~before:false program ~sid stmts

let edit_proc program ~proc f =
  {
    program with
    Ast.procs =
      List.map
        (fun (p : Ast.proc) ->
          if p.pname = proc then { p with body = f p.body } else p)
        program.Ast.procs;
  }

let prepend_to_proc program ~proc stmts =
  edit_proc program ~proc (fun body -> stmts @ body)

let append_to_proc program ~proc stmts =
  edit_proc program ~proc (fun body -> body @ stmts)

let set_const program name v =
  {
    program with
    Ast.decls =
      List.map
        (fun d ->
          match d with
          | Ast.Dconst (n, _) when n = name -> Ast.Dconst (n, Ast.Eint v)
          | Ast.Dconst _ | Ast.Dshared _ | Ast.Dprivate _ -> d)
        program.Ast.decls;
  }

(* Content digests, ignoring statement ids: two subtrees that pretty-print
   identically get the same digest. The delta engine compares procedure
   digests to re-check only the procedures an edit changed. *)
let rec strip_sids_stmt (s : Ast.stmt) =
  let node =
    match s.Ast.node with
    | Ast.Sif (e, b1, b2) ->
        Ast.Sif (e, List.map strip_sids_stmt b1, List.map strip_sids_stmt b2)
    | Ast.Sfor fl -> Ast.Sfor { fl with body = List.map strip_sids_stmt fl.body }
    | Ast.Swhile (e, b) -> Ast.Swhile (e, List.map strip_sids_stmt b)
    | ( Ast.Sassign _ | Ast.Sbarrier | Ast.Scall _ | Ast.Sreturn _
      | Ast.Slock _ | Ast.Sunlock _ | Ast.Sannot _ | Ast.Sannot_table _
      | Ast.Sprint _ ) as n ->
        n
  in
  { Ast.sid = 0; node }

let digest_of v = Digest.to_hex (Digest.string (Marshal.to_string v []))

let proc_digest (p : Ast.proc) =
  digest_of (p.Ast.pname, p.Ast.params, List.map strip_sids_stmt p.Ast.body)

let barrier_sids program =
  List.rev
    (Ast.fold_stmts
       (fun acc s ->
         match s.Ast.node with Ast.Sbarrier -> s.Ast.sid :: acc | _ -> acc)
       [] program)
