(** The incremental re-annotation engine.

    A {!base} is what an edit against a source needs: the source's
    parse, its sema info, the placement plan, the annotate result, the
    source's top-level item table and the rendered summary. [base_of]
    builds one through {!Cachier.Annotate.annotate_and_plan}.
    [annotate_delta] then serves a span edit against a base and returns
    the edited source's base, so the next edit can start from it:

    - digest-identical edit → the base itself ([Noop]);
    - edit provably trace-preserving ({!Taint}) → splice the edited
      procedure into the base's AST ({!Splice}, from the base's item
      table), check only that procedure against the base's sema info
      (the whole program when its header changed or the splice was a
      full parse), and re-apply the base's placement plan to the edited
      AST ([Plan_reuse]) — microseconds instead of a full simulation,
      byte-identical output by construction. The edited base is
      {e chained}: it shares the plan, epoch info, report and summary of
      its parent and adds only two ASTs and the edited item table;
    - anything else → full re-annotation of the edited source ([Resim]),
      whose base is computed from scratch.

    The engine keeps no state: the caller holds the bases (cachierd in
    its hot tier, the CLI, the bench harness and the fuzzer in a local
    variable). All outputs are byte-identical to a from-scratch
    {!Cachier.Annotate.annotate_program} of the edited source (enforced
    by the delta fuzzer oracle and the delta-smoke CI step). *)

type base = {
  program : Lang.Ast.program;  (** parse of the source, original sids *)
  info : Lang.Sema.info;  (** sema of the source *)
  plan : Cachier.Placement.plan;
  result : Cachier.Annotate.result;
  items : Splice.item list;  (** [Splice.items] of the source *)
  summary : string;  (** [Cachier.Annotate.summary result] *)
}

type reuse =
  | Noop  (** digest-identical edit: the base's result *)
  | Plan_reuse  (** trace proven unchanged; the base's plan re-applied *)
  | Resim of string  (** fallback with the prover's reason *)

type outcome = {
  base : base;
      (** the edited source's base; its [result] is the annotation *)
  reuse : reuse;
  artifact : string;  (** hex digest of the edited source *)
  edited_source : string;
}

val source_digest : string -> string
(** Hex digest of a source text — the service's artifact id. *)

val base_of :
  ?poll:(unit -> unit) ->
  machine:Wwt.Machine.t ->
  options:Cachier.Placement.options ->
  ?trace:Trace.Event.record list ->
  source:string ->
  Lang.Ast.program ->
  base
(** [base_of ~source program], where [program] is the parse of [source]:
    the full pipeline, sema, the trace-mode run (skipped when [trace],
    the program's trace on [machine], is given) and
    {!Cachier.Annotate.annotate_and_plan}, then the source's item table
    and the summary. Raises like the cold path on invalid programs.
    [poll] is the trace run's cancellation hook ({!Wwt.Sched.run}). *)

val annotate_delta :
  ?poll:(unit -> unit) ->
  machine:Wwt.Machine.t ->
  options:Cachier.Placement.options ->
  base:base ->
  source:string ->
  Splice.span ->
  string ->
  outcome
(** [annotate_delta ~base ~source span text] annotates [apply_edit
    source span text], where [base] is [source]'s base on the same
    [machine] and [options]. Raises like the cold path when the edited
    program is invalid. A [Resim] passes [poll] to its trace run, so a
    deadline can cancel it. *)

val prove_simulate :
  base:Lang.Ast.program -> edited:Lang.Ast.program -> (unit, string) result
(** Strict variant for the [simulate] payload (which includes program
    output): [Ok ()] only when the whole outcome — output lines, time,
    memory statistics, trace — is provably identical to the base run. *)

val reuse_to_string : reuse -> string
