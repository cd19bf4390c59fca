(** The Cachier driver (Figure 1): unannotated program + trace in,
    annotated program out.

    [annotate_program] runs the whole pipeline: strip any existing
    annotations, execute the program once on the simulated machine to
    collect its miss trace, assimilate the trace (epochs, SW/SR sets,
    DRFS), evaluate the Section 4.1 equations in the requested mode, plan
    placement, and rewrite the AST. [annotate_with_trace] skips the
    simulation and uses a caller-provided trace (e.g. one read from a
    file, or one produced from a different input data set — Section 4.5).

    The result keeps the original statement ids, so [notes] (race /
    false-sharing warnings) can be rendered as comments via
    [Lang.Pretty.program_to_string ~note]. *)

type result = {
  annotated : Lang.Ast.program;
  report : Report.t;
  notes : (int * string) list;
  einfo : Epoch_info.t;  (** the assimilated trace, for inspection *)
  n_edits : int;  (** number of annotation statements inserted *)
}

val annotate_with_trace :
  machine:Wwt.Machine.t ->
  options:Placement.options ->
  Lang.Ast.program ->
  Trace.Event.record list ->
  result

val report_with_trace :
  machine:Wwt.Machine.t -> Lang.Ast.program -> Trace.Event.record list -> Report.t
(** The [report] of [annotate_with_trace] on the same program and trace,
    built without planning or placing any annotation. *)

val annotate_with_traces :
  machine:Wwt.Machine.t ->
  options:Placement.options ->
  Lang.Ast.program ->
  Trace.Event.record list list ->
  result
(** The Section 4.5 training-set alternative: merge the dynamic
    information of several traces (e.g. from different input data sets)
    before placing annotations. The reported races and [einfo] come from
    the first trace. @raise Invalid_argument on an empty list. *)

val annotate_training :
  machine:Wwt.Machine.t ->
  options:Placement.options ->
  seed_const:string ->
  seeds:int list ->
  Lang.Ast.program ->
  result
(** Convenience wrapper: run the program once per seed (substituting the
    integer constant named [seed_const], conventionally ["SEED"]) and
    annotate from the combined traces. *)

val annotate_program :
  machine:Wwt.Machine.t ->
  options:Placement.options ->
  Lang.Ast.program ->
  result

val annotate_source :
  machine:Wwt.Machine.t -> options:Placement.options -> string -> result
(** Parse, then [annotate_program]. *)

val to_source : result -> string
(** Pretty-print the annotated program with race/false-sharing comments. *)
