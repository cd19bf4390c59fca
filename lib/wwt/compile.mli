(** A closure-compiling execution engine, drop-in equivalent to the
    tree-walking {!Interp}.

    Programs are compiled once — variables resolve to frame slots, arrays
    to their layout entries, constants are baked in — and then executed
    several times faster than the tree walk, which matters when sweeping
    benchmark configurations. The cost model, scheduling points and
    protocol interactions replicate {!Interp} exactly; the test suite
    checks that both engines produce identical simulated times, statistics,
    traces and final memory on every benchmark (differential testing).

    One intentional divergence: reading a scalar before assigning it is a
    [Runtime_error] in {!Interp} but yields the integer 0 here (slots are
    pre-initialised); programs that error are outside the equivalence
    contract. *)

val run :
  ?poll:(unit -> unit) -> machine:Machine.t -> Lang.Ast.program ->
  Interp.outcome
(** Compile and execute; the result type is shared with {!Interp}.
    [poll] is forwarded to {!Sched.run} (periodic cancellation hook).
    @raise Interp.Runtime_error on out-of-bounds accesses, division by
    zero, zero loop steps or unknown calls, like the tree walk. *)

val compile_only : machine:Machine.t -> Lang.Ast.program -> unit
(** Run only the compilation pass (used by benchmarks of the tool). *)

