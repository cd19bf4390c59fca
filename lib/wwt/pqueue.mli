(** A mutable binary min-heap keyed by integer priority.

    {b Tie-break specification.} Entries with equal priority are returned
    in insertion (FIFO) order. "Insertion order" is the global order of
    {!push} calls over the queue's whole lifetime — each push is stamped
    with a monotonically increasing sequence number, and [pop] returns
    the entry minimising [(prio, seq)] lexicographically. Consequences:

    - the FIFO guarantee survives arbitrary interleavings of pushes and
      pops, including pops of other priorities in between;
    - an entry popped and re-pushed at the same priority goes {e behind}
      every equal-priority entry already queued (it gets a fresh, larger
      sequence number) — exactly the re-parking behaviour the scheduler
      wants for a fiber that yields back at an unchanged clock;
    - two queues fed the same push/pop sequence pop identical streams.

    The scheduler ({!Sched.run}) keys fibers by virtual time, where
    equal priorities are common (barrier releases wake all nodes at the
    same clock). Its deterministic interleaving — and hence the whole
    engine-equivalence story — rests on this tie-break rule, which is why
    it is specified this precisely and pinned by tests. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> prio:int -> 'a -> unit
(** Insert an entry. Equal-priority entries pop in push order. *)

val pop : 'a t -> (int * 'a) option
(** Remove and return the entry with the smallest [(prio, seq)] — the
    minimum priority, oldest push first. *)

val peek_prio : 'a t -> int option
(** Priority of the entry the next {!pop} would return. *)
