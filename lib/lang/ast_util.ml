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

let barrier_sids program =
  List.rev
    (Ast.fold_stmts
       (fun acc s ->
         match s.Ast.node with Ast.Sbarrier -> s.Ast.sid :: acc | _ -> acc)
       [] program)
