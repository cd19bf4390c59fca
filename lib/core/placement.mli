(** Placement of CICO annotations (Section 4.2).

    Dynamic epochs that execute the same static program region (same
    opening and closing barrier pcs) are merged so annotations are never
    duplicated. Within a static epoch, each annotation set is placed by a
    cascade of strategies:

    - addresses involved in a data race or false sharing are annotated
      immediately around the referencing statements, reusing the
      statement's own subscript expressions (the paper's
      [check_out_X C\[i,j\]] ... [check_in C\[i,j\]]);
    - other addresses are placed as close to the epoch boundary as the
      cache capacity allows: if every access site has an affine subscript,
      the annotation becomes an expression range hoisted to the outermost
      loop level whose footprint fits (the paper's
      [check_out_X U\[Lip:Uip, j\]] in the column-wise Jacobi); otherwise
      a per-pid table of concrete ranges — built from the dynamic trace,
      which is what lets Cachier handle pointer-based programs — is placed
      at the epoch boundary when it fits, and immediately around the
      accesses when it does not. *)

type anchor =
  | Before of int  (** before the statement with this (original) sid *)
  | After of int
  | Loop_begin of int  (** at the start of the body of this loop header *)
  | Loop_end of int
  | Proc_begin of string
  | Proc_end of string

type edit = { anchor : anchor; stmt : Lang.Ast.stmt }

type options = {
  mode : Equations.mode;
  prefetch : bool;  (** also insert prefetch annotations (Section 6) *)
}

val default_options : options
(** Performance mode, no prefetch. An epoch-boundary placement may pin
    at most half the cache. *)

type plan = {
  edits : edit list;
  notes : (int * string) list;
      (** statement sid → race / false-sharing warning *)
}

val plan :
  program:Lang.Ast.program ->
  layout:Lang.Label.t ->
  machine:Wwt.Machine.t ->
  einfo:Epoch_info.t ->
  options:options ->
  plan
(** Compute the annotation edits for an (unannotated) program whose sids
    match the trace pcs in [einfo]. *)

val plan_traces :
  program:Lang.Ast.program ->
  layout:Lang.Label.t ->
  machine:Wwt.Machine.t ->
  einfos:Epoch_info.t list ->
  options:options ->
  plan
(** Like {!plan} but merging several traces — the Section 4.5 training-set
    alternative: dynamic epochs from every trace that execute the same
    static region are unioned, so the annotations generalise across input
    data sets. @raise Invalid_argument on an empty list. *)

val apply_edits : Lang.Ast.program -> edit list -> Lang.Ast.program
(** Apply the edits; inserted statements keep [sid = -1]. *)

val assign_fresh_sids : Lang.Ast.program -> Lang.Ast.program
(** Give unique sids to statements with [sid = -1], leaving existing sids
    untouched (so trace pcs and notes stay valid). *)
