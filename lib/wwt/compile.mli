(** A closure-compiling execution engine, drop-in equivalent to the
    tree-walking {!Interp}.

    Programs are compiled once — variables resolve to slots, arrays to
    their layout entries, constants are baked in, each operator and each
    callee is chosen — and then executed several times faster than the
    tree walk, which matters when sweeping benchmark configurations. Every
    compiled node is a one-argument closure over a per-node runtime record
    (the run's machine, protocol, statistics, memory and trace buffer,
    plus the running procedure's slot arrays, which a call swaps and
    restores), so nodes call each other at a known arity. A whole-program
    typing pass gives every expression, slot and private array one of
    four types (int, float, float-or-the-int-0-of-a-never-written-element,
    boxed): ints and floats run unboxed, float expressions in per-frame
    registers, float-only private arrays live in [float array]s, and a
    value is boxed only where it leaves the engine (shared memory,
    [print], calls, boxed contexts); conditions yield [bool]s. The cost
    model,
    scheduling points and protocol interactions replicate {!Interp}
    exactly; the test suite checks that both engines produce identical
    simulated times, statistics, traces and final memory on every
    benchmark (differential testing).

    Reading a scalar before assigning it is the same [Runtime_error] as in
    {!Interp}, raised at the same read. A definite-assignment pass proves
    most reads come after a write; only the others check at run time. *)

val run :
  ?poll:(unit -> unit) -> machine:Machine.t -> Lang.Ast.program ->
  Interp.outcome
(** Compile and execute; the result type is shared with {!Interp}.
    [poll] is forwarded to {!Sched.run} (periodic cancellation hook).
    @raise Interp.Runtime_error on out-of-bounds accesses, undefined
    variables, division by zero, zero loop steps or unknown calls, like
    the tree walk. *)

val compile_only : machine:Machine.t -> Lang.Ast.program -> unit
(** Run only the compilation pass (used by benchmarks of the tool). *)

