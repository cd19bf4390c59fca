(** Effects-based discrete-event scheduler for simulated processors.

    Each simulated node runs as an OCaml 5 fiber. A fiber advances its own
    virtual clock by performing {!advance}; the scheduler then resumes
    whichever fiber has the smallest clock, giving a deterministic
    discrete-event interleaving. Barriers synchronise all nodes: when the
    last fiber arrives, every clock is set to the maximum plus the barrier
    cost and the [on_barrier] hook runs (the interpreter uses it to flush
    caches and emit trace records). Queued locks hand over FIFO; locks are
    reentrant — the holder may nest re-acquires (each counted by
    [on_lock_acquire] but paying no transfer) and the lock hands over only
    when the outermost hold is released. *)

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
    to abandon the whole run: the exception propagates out of [run] and
    the unfinished fibers are discarded, leaving no scheduler state
    behind — a fresh [run] on the same domain is unaffected. *)

(** Effects available inside fiber bodies: *)

val now : unit -> int
(** Current virtual time of the calling fiber. *)

val advance : int -> unit
(** Advance the calling fiber's clock by the given number of cycles and
    yield to the scheduler. *)

val barrier_sync : pc:int -> unit
(** Block until every node reaches a barrier. *)

val lock_acquire : int -> unit
val lock_release : int -> unit
