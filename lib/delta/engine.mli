(** The incremental re-annotation engine.

    [base_of] runs (or recalls from the {!Dag}) the full pipeline for a
    source text — parse, sema, trace-mode simulation, epoch assimilation,
    placement — keeping every intermediate artifact. [annotate_delta]
    then serves a span edit against that base:

    - digest-identical edit → the cached result, untouched ([Noop]);
    - edit provably trace-preserving ({!Taint}) → splice the edited
      procedure into the cached AST ({!Splice}), re-check only changed
      procedures (digest-keyed [Sema_ok] nodes), and re-apply the cached
      placement plan to the edited AST ([Plan_reuse]) — microseconds
      instead of a full simulation, byte-identical output by
      construction;
    - anything else → full re-annotation of the edited source ([Resim]),
      which also installs a fresh base so subsequent edits are warm
      again.

    All outputs are byte-identical to a from-scratch
    {!Cachier.Annotate.annotate_program} of the edited source (enforced
    by the delta fuzzer oracle and the delta-smoke CI step). *)

type reuse =
  | Noop  (** digest-identical edit: pure cache hit *)
  | Plan_reuse  (** trace proven unchanged; cached plan re-applied *)
  | Resim of string  (** fallback with the prover's reason *)

type outcome = {
  result : Cachier.Annotate.result;
  reuse : reuse;
  artifact : string;  (** hex digest of the edited source *)
  edited_source : string;
}

val source_digest : string -> string
(** Hex digest of a source text — the service's artifact id. *)

val base_of :
  dag:Dag.t ->
  machine:Wwt.Machine.t ->
  options:Cachier.Placement.options ->
  string ->
  Dag.base
(** Full pipeline for a source, cached in the DAG. Raises like the cold
    path on invalid programs. *)

val annotate_delta :
  dag:Dag.t ->
  machine:Wwt.Machine.t ->
  options:Cachier.Placement.options ->
  base:string ->
  Splice.span ->
  string ->
  outcome
(** [annotate_delta ~base span text] annotates [apply_edit base span
    text]. Raises like the cold path when the edited program is
    invalid. *)

val prove_simulate :
  base:Lang.Ast.program -> edited:Lang.Ast.program -> (unit, string) result
(** Strict variant for the [simulate] payload (which includes program
    output): [Ok ()] only when the whole outcome — output lines, time,
    memory statistics, trace — is provably identical to the base run. *)

val reuse_to_string : reuse -> string

val register_source : Dag.t -> string -> string
(** Remember a source under its digest; returns the digest. *)

val find_source : Dag.t -> string -> string option
