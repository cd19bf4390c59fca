type reuse =
  | Noop
  | Plan_reuse
  | Resim of string

type outcome = {
  result : Cachier.Annotate.result;
  reuse : reuse;
  artifact : string;
  edited_source : string;
}

let source_digest source = Digest.to_hex (Digest.string source)

let reuse_to_string = function
  | Noop -> "noop"
  | Plan_reuse -> "plan-reuse"
  | Resim why -> "resim: " ^ why

let ctx_key ~machine ~options =
  Digest.to_hex (Digest.string (Marshal.to_string (machine, options) []))

let base_key sd ctx = "base|" ^ sd ^ "|" ^ ctx

let register_source dag source =
  let sd = source_digest source in
  Dag.add dag ("src|" ^ sd) (Dag.Source source);
  sd

let find_source dag sd =
  match Dag.find dag ("src|" ^ sd) with
  | Some (Dag.Source s) -> Some s
  | _ -> None

let parse_cached dag source sd =
  let key = "parse|" ^ sd in
  match Dag.find dag key with
  | Some (Dag.Parsed p) -> p
  | _ ->
      let p = Lang.Parser.parse source in
      Dag.add dag key (Dag.Parsed p);
      p

(* The sema artifacts are keyed per procedure body, scoped by the
   declarations and procedure headers they were checked against. *)
let sema_sig (program : Lang.Ast.program) =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          ( program.Lang.Ast.decls,
            List.map
              (fun (p : Lang.Ast.proc) -> (p.pname, p.params))
              program.Lang.Ast.procs )
          []))

let sema_key ssig proc = "sema|" ^ Lang.Ast_util.proc_digest proc ^ "|" ^ ssig

let seed_sema dag program =
  let ssig = sema_sig program in
  List.iter
    (fun p -> Dag.add dag (sema_key ssig p) Dag.Sema_ok)
    program.Lang.Ast.procs

(* Re-check only procedures whose digest has no cached clean verdict;
   full [Sema.check] when declarations or headers changed (so errors
   surface exactly as on the cold path). *)
let sema_incremental dag (b : Dag.base) (eprog : Lang.Ast.program) =
  let header (p : Lang.Ast.proc) = (p.pname, p.params) in
  if
    b.Dag.program.Lang.Ast.decls = eprog.Lang.Ast.decls
    && List.map header b.Dag.program.Lang.Ast.procs
       = List.map header eprog.Lang.Ast.procs
  then begin
    let ssig = sema_sig eprog in
    List.iter
      (fun proc ->
        let key = sema_key ssig proc in
        match Dag.find dag key with
        | Some Dag.Sema_ok -> ()
        | _ ->
            Lang.Sema.check_proc b.Dag.info proc;
            Dag.add dag key Dag.Sema_ok)
      eprog.Lang.Ast.procs
  end
  else ignore (Lang.Sema.check eprog : Lang.Sema.info)

let compute_base ~dag ~machine ~options program =
  (* Mirrors the cold path (sema, trace-mode run, then the
     [Annotate.annotate_with_traces] internals) while keeping the
     placement plan, which the plan-reuse path re-applies. *)
  ignore (Lang.Sema.check program : Lang.Sema.info);
  seed_sema dag program;
  let records = (Wwt.Run.collect_trace ~machine program).Wwt.Interp.trace in
  let stripped = Lang.Ast.strip_annotations program in
  let info = Lang.Sema.check stripped in
  let layout =
    Lang.Label.layout ~block_size:machine.Wwt.Machine.block_size
      ~elem_size:machine.Wwt.Machine.elem_size info
  in
  let einfo =
    Cachier.Epoch_info.build ~nodes:machine.Wwt.Machine.nodes
      ~block_size:machine.Wwt.Machine.block_size records
  in
  let plan =
    Cachier.Placement.plan_traces ~program:stripped ~layout ~machine
      ~einfos:[ einfo ] ~options
  in
  let annotated =
    Cachier.Placement.assign_fresh_sids
      (Cachier.Placement.apply_edits stripped plan.Cachier.Placement.edits)
  in
  let result =
    {
      Cachier.Annotate.annotated;
      report = Cachier.Report.build ~layout einfo;
      notes = plan.Cachier.Placement.notes;
      einfo;
      n_edits = List.length plan.Cachier.Placement.edits;
    }
  in
  { Dag.program; info; plan; result }

let base_of ~dag ~machine ~options source =
  let sd = source_digest source in
  let key = base_key sd (ctx_key ~machine ~options) in
  match Dag.find dag key with
  | Some (Dag.Base b) -> b
  | _ ->
      let program = parse_cached dag source sd in
      let b = compute_base ~dag ~machine ~options program in
      Dag.add dag key (Dag.Base b);
      b

let annotate_delta ~dag ~machine ~options ~base:base_source span text =
  let edited = Splice.apply_edit base_source span text in
  let b = base_of ~dag ~machine ~options base_source in
  let artifact = source_digest edited in
  if String.equal edited base_source then
    { result = b.Dag.result; reuse = Noop; artifact; edited_source = edited }
  else begin
    let ctx = ctx_key ~machine ~options in
    let eprog, _how = Splice.splice ~base:base_source ~base_ast:b.Dag.program span text in
    Dag.add dag ("parse|" ^ artifact) (Dag.Parsed eprog);
    sema_incremental dag b eprog;
    match Taint.compare_and_prove ~base:b.Dag.program ~edited:eprog with
    | Taint.Preserved _ ->
        let stripped = Lang.Ast.strip_annotations eprog in
        let annotated =
          Cachier.Placement.assign_fresh_sids
            (Cachier.Placement.apply_edits stripped
               b.Dag.plan.Cachier.Placement.edits)
        in
        let result = { b.Dag.result with Cachier.Annotate.annotated } in
        let nb = { b with Dag.program = eprog; result } in
        (* chain: further edits against the edited source stay warm *)
        Dag.add dag (base_key artifact ctx) (Dag.Base nb);
        { result; reuse = Plan_reuse; artifact; edited_source = edited }
    | Taint.Broken why ->
        let nb = compute_base ~dag ~machine ~options eprog in
        Dag.add dag (base_key artifact ctx) (Dag.Base nb);
        { result = nb.Dag.result; reuse = Resim why; artifact; edited_source = edited }
  end

let prove_simulate ~base ~edited =
  match Taint.compare_and_prove ~base ~edited with
  | Taint.Preserved { output_changed = false } -> Ok ()
  | Taint.Preserved { output_changed = true } -> Error "program output changes"
  | Taint.Broken why -> Error why
