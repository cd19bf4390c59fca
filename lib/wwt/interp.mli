(** SPMD interpreter: runs a mini-language program on the simulated
    Dir1SW machine.

    Every node executes [main] as a fiber under {!Sched}; shared-array
    accesses are costed by {!Memsys.Protocol} and, in trace mode, recorded
    as miss events grouped into epochs by barrier records (Section 3.3).
    CICO annotations are executed as memory-system directives when the
    machine says so, and are otherwise free no-ops — they never change
    program results. *)

exception Runtime_error of string

type outcome = {
  time : int;  (** simulated execution time in cycles *)
  stats : Memsys.Stats.t;
  trace : Trace.Event.record list;  (** empty unless trace collection is on *)
  output : string list;  (** [print] statements, tagged with the node *)
  shared : Lang.Value.t array;  (** final shared memory, element-indexed *)
  layout : Lang.Label.t;
  info : Lang.Sema.info;
}

val run : ?poll:(unit -> unit) -> machine:Machine.t -> Lang.Ast.program -> outcome
(** [poll] is forwarded to {!Sched.run}: called periodically from the
    scheduler loop, it may raise {!Sched.Cancelled} to abandon the run.
    @raise Runtime_error on out-of-bounds accesses, undefined variables,
    division by zero, zero loop steps, or unknown calls.
    @raise Sched.Deadlock if the program's barriers do not line up. *)

val shared_value : outcome -> string -> int -> Lang.Value.t
(** [shared_value o arr i] reads element [i] of shared array [arr] from the
    final memory image. *)

val noise : int -> float
(** The deterministic [noise] intrinsic: a splitmix64-style hash of the
    argument mapped to [0, 1). Exposed for tests and workload builders. *)

val remove_lock : int -> int list -> int list
(** Remove the innermost occurrence (only) of a lock from a held-lock
    list, preserving outer holds of a reentrantly-acquired lock. Shared
    with {!Compile} so both engines age lock-sets identically. *)

val simple_index : Lang.Ast.expr -> bool
(** [true] for index expressions without array loads or calls, which
    evaluate to the same value twice in a row: the read-modify-write form
    [A[i] = A[i] + e] takes its rmw-aware protocol entry points only for
    these. Shared with {!Compile} so both engines recognise the same
    accumulations. *)
