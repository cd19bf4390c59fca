(** Effects-based discrete-event scheduler for simulated processors.

    Each simulated node runs as an OCaml 5 fiber. A fiber advances its own
    virtual clock with {!advance}; the scheduler then resumes whichever
    fiber has the smallest clock, giving a deterministic discrete-event
    interleaving. Barriers synchronise all nodes: when the last fiber
    arrives, every clock is set to the maximum plus the barrier cost and
    the [on_barrier] hook runs (the interpreter uses it to flush caches
    and emit trace records). Queued locks hand over FIFO; locks are
    reentrant — the holder may nest re-acquires (each counted by
    [on_lock_acquire] but paying no transfer) and the lock hands over only
    when the outermost hold is released.

    The running simulation's state lives in domain-local storage: {!run}
    installs it and restores the previous one (normally none) when it
    returns or raises, so runs on different domains are independent, and
    the calls below read and update that state directly. {!now} never
    suspends. {!advance} suspends only when some parked fiber's clock is
    at or before the new clock, or after 500 consecutive advances that did
    not (so that {!run}'s [poll] keeps its cadence); ties park, so the
    schedule is the one a suspension on every advance would produce. A
    suspended node keeps its one continuation in a per-node slot and its
    (clock, push order) in a flat {!Pqueue}: apart from the runtime's own
    continuation record, nothing is allocated per park or resume. *)

exception Deadlock of string
(** Raised when no fiber can make progress (e.g. a node exits without
    reaching a barrier the others wait at, or a lock is never released). *)

exception Cancelled of string
(** Raised by a [poll] hook (see {!run}) to abandon a simulation cleanly,
    e.g. when a service request's deadline has passed. Never raised by the
    scheduler itself. *)

type config = {
  nodes : int;
  barrier_cost : int;
  lock_transfer : int;
  on_barrier : vt:int -> arrivals:(int * int) list -> unit;
      (** called when a barrier completes; [arrivals] are [(node, pc)]
          pairs in node order; [vt] is the post-synchronisation time *)
  on_lock_acquire : node:int -> lock:int -> unit;
}

val run : ?poll:(unit -> unit) -> config -> (int -> unit) -> int
(** [run config body] runs [body node] as a fiber for each node and
    returns the final virtual time (the maximum clock).

    [poll], when given, is called periodically from the scheduler loop,
    between fiber resumptions. It may raise (conventionally {!Cancelled})
    to abandon the whole run: the exception propagates out of [run], and
    first every unfinished fiber is unwound by an exception raised at the
    point where it waits, so it frees its stack and runs its own
    [Fun.protect] finalisers. The same happens when [run] raises
    {!Deadlock} or an exception escapes a fiber. No scheduler state is
    left behind — a fresh [run] on the same domain is unaffected. *)

(** Calls available inside fiber bodies. Outside {!run} each raises
    [Invalid_argument]. *)

val now : unit -> int
(** Current virtual time of the calling fiber. *)

val advance : int -> unit
(** Advance the calling fiber's clock by the given number of cycles,
    yielding to the scheduler if another fiber is due first (see above).
    @raise Invalid_argument on a negative count. *)

val barrier_sync : pc:int -> unit
(** Block until every node reaches a barrier. *)

val lock_acquire : int -> unit
val lock_release : int -> unit
