type result = {
  annotated : Lang.Ast.program;
  report : Report.t;
  notes : (int * string) list;
  einfo : Epoch_info.t;
  n_edits : int;
}

(* What placement and the report both start from: the program without
   its annotations, its labelled arrays on [machine], and the epoch
   information of each trace. *)
let assimilate ~machine program traces =
  let program = Lang.Ast.strip_annotations program in
  let info = Lang.Sema.check program in
  let layout =
    Lang.Label.layout ~block_size:machine.Wwt.Machine.block_size
      ~elem_size:machine.Wwt.Machine.elem_size info
  in
  let einfos =
    List.map
      (Epoch_info.build ~nodes:machine.Wwt.Machine.nodes
         ~block_size:machine.Wwt.Machine.block_size)
      traces
  in
  (program, layout, einfos)

let annotate_with_traces ~machine ~options program traces =
  if traces = [] then invalid_arg "Annotate.annotate_with_traces: no traces";
  let program, layout, einfos = assimilate ~machine program traces in
  let plan = Placement.plan_traces ~program ~layout ~machine ~einfos ~options in
  let annotated =
    Placement.assign_fresh_sids
      (Placement.apply_edits program plan.Placement.edits)
  in
  let einfo = List.hd einfos in
  {
    annotated;
    report = Report.build ~layout einfo;
    notes = plan.Placement.notes;
    einfo;
    n_edits = List.length plan.Placement.edits;
  }

let annotate_with_trace ~machine ~options program records =
  annotate_with_traces ~machine ~options program [ records ]

let report_with_trace ~machine program records =
  let _, layout, einfos = assimilate ~machine program [ records ] in
  Report.build ~layout (List.hd einfos)

let annotate_program ~machine ~options program =
  let outcome = Wwt.Run.collect_trace ~machine program in
  annotate_with_trace ~machine ~options program outcome.Wwt.Interp.trace

let annotate_training ~machine ~options ~seed_const ~seeds program =
  if seeds = [] then invalid_arg "Annotate.annotate_training: no seeds";
  let traces =
    List.map
      (fun seed ->
        let variant = Lang.Ast_util.set_const program seed_const seed in
        (Wwt.Run.collect_trace ~machine variant).Wwt.Interp.trace)
      seeds
  in
  annotate_with_traces ~machine ~options program traces

let annotate_source ~machine ~options src =
  annotate_program ~machine ~options (Lang.Parser.parse src)

let to_source r =
  let note sid = List.assoc_opt sid r.notes in
  Lang.Pretty.program_to_string ~note r.annotated
