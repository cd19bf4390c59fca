type base = {
  program : Lang.Ast.program;
  info : Lang.Sema.info;
  plan : Cachier.Placement.plan;
  result : Cachier.Annotate.result;
  items : Splice.item list;
  summary : string;
}

type reuse =
  | Noop
  | Plan_reuse
  | Resim of string

type outcome = { base : base; reuse : reuse }

let source_digest source = Digest.to_hex (Digest.string source)

type edit = {
  source : string;
  span : Splice.span;
  text : string;
  edited : string;
  artifact : string;
}

let edit ~source span text =
  let edited = Splice.apply_edit source span text in
  { source; span; text; edited; artifact = source_digest edited }

let reuse_to_string = function
  | Noop -> "noop"
  | Plan_reuse -> "plan-reuse"
  | Resim why -> "resim: " ^ why

let base_of ?poll ~machine ~options ?trace ~source program =
  let info = Lang.Sema.check program in
  let records =
    match trace with
    | Some records -> records
    | None -> (Wwt.Run.collect_trace ?poll ~machine program).Wwt.Interp.trace
  in
  let result, plan =
    Cachier.Annotate.annotate_and_plan ~machine ~options program records
  in
  {
    program;
    info;
    plan;
    result;
    items = Splice.items source;
    summary = Cachier.Annotate.summary result;
  }

(* The sema info of a spliced program. An incremental splice leaves the
   declarations alone, so with the procedure's header unchanged only its
   body is checked, against the base's info. Anything else runs the cold
   path's [Sema.check], so errors surface exactly as there. *)
let sema_edit b (eprog : Lang.Ast.program) how =
  let header (p : Lang.Ast.proc) = (p.pname, p.params) in
  match how with
  | `Incremental (k, _)
    when header (List.nth eprog.procs k)
         = header (List.nth b.program.Lang.Ast.procs k) ->
      Lang.Sema.check_proc b.info (List.nth eprog.procs k);
      b.info
  | `Incremental _ | `Full -> Lang.Sema.check eprog

let annotate_delta ?poll ~machine ~options ~base:b e =
  if String.equal e.edited e.source then { base = b; reuse = Noop }
  else begin
    let eprog, how =
      Splice.splice ~items:b.items ~base_ast:b.program ~edited:e.edited e.span
        e.text
    in
    let info = sema_edit b eprog how in
    match Taint.compare_and_prove ~base:b.program ~edited:eprog with
    | Taint.Preserved _ ->
        let annotated =
          Cachier.Placement.assign_fresh_sids
            (Cachier.Placement.apply_edits
               (Lang.Ast.strip_annotations eprog)
               b.plan.Cachier.Placement.edits)
        in
        let items =
          match how with
          | `Incremental (_, items) -> items
          | `Full -> Splice.items e.edited
        in
        (* a chained base: the parent's plan, epoch info, report and
           summary; two new ASTs and the edited table *)
        let result = { b.result with Cachier.Annotate.annotated } in
        {
          base = { b with program = eprog; info; result; items };
          reuse = Plan_reuse;
        }
    | Taint.Broken why ->
        {
          base = base_of ?poll ~machine ~options ~source:e.edited eprog;
          reuse = Resim why;
        }
  end

let prove_simulate ~base ~edited =
  match Taint.compare_and_prove ~base ~edited with
  | Taint.Preserved { output_changed = false } -> Ok ()
  | Taint.Preserved { output_changed = true } -> Error "program output changes"
  | Taint.Broken why -> Error why
