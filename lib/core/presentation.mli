(** Presenting annotations in a readable form (Section 4.3).

    This module turns raw trace addresses into program-level ranges:
    coalescing address sets into maximal element ranges per labelled
    array, recognising affine subscripts so annotations can be written as
    expressions over live loop variables (the paper's
    [check_out_X U\[Lip:Uip, j\]]), and extracting the subscript
    expressions of a statement for near-access placement. *)

module Iset = Trace.Epoch.Iset

val coalesce : int list -> (int * int) list
(** Maximal runs of consecutive integers, sorted; duplicates collapse. *)

val block_align_ranges :
  elems_per_block:int -> (int * int) list -> (int * int) list
(** Round every element range out to cache-block boundaries and merge the
    results. A cache block is the minimum check-out granularity
    (Section 5), so this loses nothing and collapses fragmented dynamic
    range sets into a few directives per block run. *)

val ranges_for_array :
  layout:Lang.Label.t -> arr:string -> Iset.t -> (int * int) list
(** Element ranges of [arr] covered by the byte-address set (addresses
    outside [arr] are ignored). *)

val addrs_in_array : layout:Lang.Label.t -> arr:string -> Iset.t -> Iset.t
(** The members of the set inside [arr]'s bytes: one {!Iset.range}
    slice, found by binary search (empty when [arr] is not labelled). *)

(** {2 Affine subscript analysis} *)

type atom = {
  key : string;  (** structural key (pretty-printed form) *)
  aexpr : Lang.Ast.expr;
}
(** A term of an affine decomposition: a plain variable, or an opaque
    non-affine subexpression (e.g. [pid % PC]) treated as a unit so that
    identical occurrences cancel when expressions are subtracted. *)

type affine = {
  terms : (atom * int) list;  (** atom coefficients, distinct keys *)
  const : int;
}

val linearize :
  const_env:(string -> Lang.Value.t option) -> Lang.Ast.expr -> affine option
(** Decompose an expression as [Σ cₐ·a + c] with integer coefficients over
    atoms. Names bound in [const_env] fold into the constant; other names
    (loop variables, [pid]) become atoms, as do whole non-affine
    subexpressions such as products of variables, [/], [%] and calls.
    Returns [None] only for expressions that cannot even be atomised
    (float literals in integer position). *)

val coeff_of_var : affine -> string -> int
(** Coefficient of the plain-variable atom named [v] (0 when absent). *)

val affine_to_expr : affine -> Lang.Ast.expr

val subst_var : string -> Lang.Ast.expr -> Lang.Ast.expr -> Lang.Ast.expr
(** [subst_var v replacement e] substitutes every [Evar v] in [e]. *)

val free_vars : Lang.Ast.expr -> string list
(** Variable names occurring in the expression (sorted, distinct). *)

val array_subscripts : Lang.Ast.stmt -> arr:string -> Lang.Ast.expr list
(** Distinct subscript expressions with which the statement itself (not
    its nested blocks) indexes [arr]. *)

val array_write_subscripts : Lang.Ast.stmt -> arr:string -> Lang.Ast.expr list
(** Subscripts with which the statement {e stores} to [arr] (the
    assignment target only) — a near-access check-in belongs after the
    write that finishes with the location, not after every read. *)

val table_stmt :
  Lang.Ast.annot_kind -> arr:string -> nodes:int ->
  per_node_ranges:(int -> (int * int) list) -> Lang.Ast.stmt option
(** Build a per-pid table annotation ([sid = -1]); [None] when every node's
    range list is empty. *)
