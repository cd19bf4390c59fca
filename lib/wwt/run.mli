(** Convenience drivers for common simulation set-ups.

    Both execution engines are available: the tree-walking {!Interp}
    and the closure-compiling {!Compile}. They are equivalent (enforced
    by differential tests); measurement runs default to the compiled
    engine. *)

type engine = Tree_walk | Compiled

val run_with :
  ?poll:(unit -> unit) -> engine -> machine:Machine.t -> Lang.Ast.program ->
  Interp.outcome

val collect_trace :
  ?poll:(unit -> unit) -> ?engine:engine -> machine:Machine.t ->
  Lang.Ast.program -> Interp.outcome
(** Run the (annotation-stripped) program in trace mode: caches flushed at
    barriers, miss trace collected, annotations ignored. Default engine:
    [Compiled]. [poll] is the {!Sched.run} cancellation hook. *)

val measure :
  ?poll:(unit -> unit) -> ?engine:engine -> machine:Machine.t ->
  annotations:bool -> prefetch:bool -> Lang.Ast.program -> Interp.outcome
(** Run in performance mode (no flushes, no trace) and report the
    simulated execution time in [Interp.outcome.time]. Default engine:
    [Compiled]. [poll] is the {!Sched.run} cancellation hook. *)

val source_trace : machine:Machine.t -> string -> Interp.outcome
(** Parse then [collect_trace]. *)

val source_measure :
  machine:Machine.t -> annotations:bool -> prefetch:bool -> string ->
  Interp.outcome
(** Parse then [measure]. *)
