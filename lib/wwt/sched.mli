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
    continuation record, nothing is allocated per park or resume.

    {b Running ahead.} Code that no other node can observe need not give
    up its fiber where {!advance} would park. {!advance_ahead} queues the
    node exactly as that park would and returns, and the node runs on
    {e ahead} of the scheduler: each further advance only records the
    clock it reaches, up to a fixed number of records. When the
    scheduler loop pops an ahead node, it applies the records one by one
    through the same park rule, queueing the node again wherever a park
    would have happened, and resumes the fiber only once none is left.
    So every push, pop, sequence number, clock and [poll] call is the
    one a run with {!advance} alone makes; only fiber switches are saved.

    While a node runs ahead, it must not do anything another node can
    observe: touch memory or state other nodes share, or emit output
    whose order matters (in the engines: a shared-memory access, an
    annotation directive, a printed line). Before such an operation the
    caller calls {!sync}, which waits until the node is caught up. {!barrier_sync},
    {!lock_acquire} and {!lock_release} catch up themselves, and {!run}
    catches a fiber up before its body's end takes effect and before an
    exception from its body propagates, so a runtime error surfaces at
    its logical time. A full record buffer also waits for the catch-up,
    so a private loop that never ends still returns to the scheduler
    loop, and [poll] and deadlines keep working. *)

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
(** The calling fiber's logical clock: the sum of its advances, including
    those it recorded while running ahead. *)

val advance : int -> unit
(** Advance the calling fiber's clock by the given number of cycles,
    yielding to the scheduler if another fiber is due first (see above).
    A fiber that runs ahead records the advance and waits until it is
    caught up.
    @raise Invalid_argument on a negative count. *)

val advance_ahead : int -> bool
(** [advance], except that where [advance] would suspend, the node stays
    queued and keeps running ahead (see above). Returns whether it is now
    ahead; [false] after it waited for a full record buffer to be
    replayed.
    @raise Invalid_argument on a negative count. *)

val sync : unit -> unit
(** Wait until the calling fiber is caught up; at once when it is not
    ahead. *)

val barrier_sync : pc:int -> unit
(** Block until every node reaches a barrier. Like the lock calls below,
    it first catches the fiber up. *)

val lock_acquire : int -> unit
val lock_release : int -> unit
