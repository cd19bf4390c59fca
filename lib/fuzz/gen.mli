(** Random program generation for the differential fuzzer.

    Generators are plain functions of a [Random.State.t] — the same shape
    as [QCheck.Gen.t] — so the qcheck property suites can lift any
    generator here with [QCheck.make] while the fuzzer itself needs no
    qcheck dependency. *)

type 'a t = Random.State.t -> 'a

val int_range : int -> int -> int t
(** [int_range lo hi] draws uniformly from the inclusive range. *)

(** {2 Free-form generators}

    Unconstrained ASTs for the printer / parser / sema round-trip
    properties. Most of them fail to run (out-of-bounds indices,
    undefined scalars), which is the point: they probe the front end. *)

val free_program : Lang.Ast.program t

(** {2 Well-formed SPMD programs}

    Programs from {!spmd} pass [Sema.check] and run to completion, and
    are data-race-free by construction: barrier-delimited segments either
    write only the running node's own chunk of [A], read shared data
    without writing it, or accumulate integer contributions into [B]
    under a common lock. DRF is what makes the fuzzer's oracles sound —
    annotations and engine choice change {e timing}, and only DRF
    programs are value-deterministic under timing changes.

    A segment may open with a private-only loop of 16–64 iterations over
    [P], [Q] and the scalars, followed by shared statements, so the nodes
    reach those statements far apart in simulated time. *)

type config = {
  shared_elems : int;  (** elements in each of the shared arrays A and B *)
  private_elems : int;  (** elements in each of the private arrays P and Q *)
  max_segments : int;  (** barrier-delimited phases per program *)
  max_stmts : int;  (** statements per segment *)
  max_depth : int;  (** expression depth *)
  annotations : bool;  (** sprinkle random CICO directives *)
  racy : bool;
      (** deliberately break the DRF discipline with unsynchronized
          shared writes at unconstrained indices (default [false]).
          Exercises the race oracle's racy direction; such programs must
          not be run with [~expect_race_free]. *)
}

val default_config : config

val spmd : ?config:config -> Lang.Ast.program t

val size_program : Lang.Ast.program -> int
(** AST node count (statements + expressions) — the size the acceptance
    bound on shrunk counterexamples is measured in. *)

val shrink_spmd : Lang.Ast.program -> Lang.Ast.program Seq.t
(** Well-formedness-preserving shrink candidates, most aggressive first:
    whole segments, balanced lock groups (or one level of a reentrant
    hold), single statements, loop-body hoists, then expression
    simplifications. Shared indices keep their
    bounds-respecting wrapper so shrinking never introduces new races or
    out-of-bounds accesses. *)
