(** A mutable binary min-heap of integer payloads keyed by integer
    priority, stored flat in one [int array]: pushing and popping
    allocate nothing except when the array grows.

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

    The scheduler ({!Sched.run}) keys node numbers by virtual time, where
    equal priorities are common (barrier releases wake all nodes at the
    same clock). Its deterministic interleaving — and hence the whole
    engine-equivalence story — rests on this tie-break rule, which is why
    it is specified this precisely and pinned by tests. *)

type t

val create : unit -> t
val length : t -> int
val is_empty : t -> bool

val push : t -> prio:int -> int -> unit
(** Insert an entry. Equal-priority entries pop in push order. *)

val min_prio : t -> int
(** Priority of the entry the next {!pop} returns; [max_int] when the
    queue is empty. *)

val pop : t -> int
(** Remove the entry with the smallest [(prio, seq)] — the minimum
    priority, oldest push first — and return its payload.
    @raise Invalid_argument if the queue is empty. *)
