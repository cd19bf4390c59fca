type base = {
  program : Lang.Ast.program;
  info : Lang.Sema.info;
  plan : Cachier.Placement.plan;
  result : Cachier.Annotate.result;
}

type reuse =
  | Noop
  | Plan_reuse
  | Resim of string

type outcome = {
  base : base;
  reuse : reuse;
  artifact : string;
  edited_source : string;
}

let source_digest source = Digest.to_hex (Digest.string source)

let reuse_to_string = function
  | Noop -> "noop"
  | Plan_reuse -> "plan-reuse"
  | Resim why -> "resim: " ^ why

let base_of ?poll ~machine ~options ?trace program =
  let info = Lang.Sema.check program in
  let records =
    match trace with
    | Some records -> records
    | None -> (Wwt.Run.collect_trace ?poll ~machine program).Wwt.Interp.trace
  in
  let result, plan =
    Cachier.Annotate.annotate_and_plan ~machine ~options program records
  in
  { program; info; plan; result }

(* Re-check only the procedures whose digest differs from the base's
   procedure of the same place; a full [Sema.check] when declarations or
   procedure headers changed, so errors surface exactly as on the cold
   path. *)
let sema_incremental b (eprog : Lang.Ast.program) =
  let header (p : Lang.Ast.proc) = (p.pname, p.params) in
  let procs = b.program.Lang.Ast.procs in
  if
    b.program.Lang.Ast.decls = eprog.Lang.Ast.decls
    && List.map header procs = List.map header eprog.Lang.Ast.procs
  then
    List.iter2
      (fun p ep ->
        if Lang.Ast_util.proc_digest p <> Lang.Ast_util.proc_digest ep then
          Lang.Sema.check_proc b.info ep)
      procs eprog.Lang.Ast.procs
  else ignore (Lang.Sema.check eprog : Lang.Sema.info)

let annotate_delta ?poll ~machine ~options ~base:b ~source span text =
  let edited = Splice.apply_edit source span text in
  let artifact = source_digest edited in
  if String.equal edited source then
    { base = b; reuse = Noop; artifact; edited_source = edited }
  else begin
    let eprog, _how =
      Splice.splice ~base:source ~base_ast:b.program span text
    in
    sema_incremental b eprog;
    match Taint.compare_and_prove ~base:b.program ~edited:eprog with
    | Taint.Preserved _ ->
        let annotated =
          Cachier.Placement.assign_fresh_sids
            (Cachier.Placement.apply_edits
               (Lang.Ast.strip_annotations eprog)
               b.plan.Cachier.Placement.edits)
        in
        (* a chained base: the parent's plan and epoch info, two new ASTs *)
        let result = { b.result with Cachier.Annotate.annotated } in
        {
          base = { b with program = eprog; result };
          reuse = Plan_reuse;
          artifact;
          edited_source = edited;
        }
    | Taint.Broken why ->
        {
          base = base_of ?poll ~machine ~options eprog;
          reuse = Resim why;
          artifact;
          edited_source = edited;
        }
  end

let prove_simulate ~base ~edited =
  match Taint.compare_and_prove ~base ~edited with
  | Taint.Preserved { output_changed = false } -> Ok ()
  | Taint.Preserved { output_changed = true } -> Error "program output changes"
  | Taint.Broken why -> Error why
