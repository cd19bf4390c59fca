(** The cache-coherence protocol engine with CICO directives.

    One [t] models a whole machine: per-node set-associative caches, a
    directory, and a cost table. Data values are *not* stored here — the
    simulator keeps shared memory in a flat array that is always current —
    so the protocol tracks only coherence state and cost, which is all the
    CICO model needs (annotations never change program semantics).

    A [t] runs one of three backends, selected at {!create} time by a
    {!Protocol_id.t}:

    - [Dir1sw] (the default) — the paper's directory protocol, described
      below;
    - [Sisd] — self-invalidation / self-downgrade: fetches are plain
      two-hop transfers, the directory tracks only the last writer (never
      sharers), stores to a resident [Shared] copy upgrade locally without
      asking permission, check-ins and post-stores become in-place
      self-downgrades, and {!epoch_boundary} self-invalidates every
      resident line not pinned by an outstanding check-out;
    - [Commute] — Dir1SW plus privatized commutative updates: accesses
      routed through {!read_rmw_p}/{!write_rmw_p} accumulate into a
      per-node privatized copy (no misses, no invalidations) that merges
      deterministically at the next plain access or epoch boundary. All
      other traffic is bit-identical to [Dir1sw].

    Default protocol behaviour follows Dir1SW:
    - a read miss performs an implicit check-out-shared;
    - a write miss performs an implicit check-out-exclusive;
    - a store that hits a [Shared] copy is a {e write fault}: if the block
      has other sharers the directory traps to software, which sends one
      invalidation per sharer; a lone sharer upgrades in hardware;
    - [check_out_x] fetches (or upgrades to) an exclusive copy eagerly, so
      a later read-then-write sequence pays no upgrade;
    - [check_in] flushes the local copy and releases the directory entry,
      so later writers pay no invalidation;
    - replacement of a [Shared] line is silent, leaving a stale sharer in
      the directory (whose invalidation is still paid later) — exactly the
      waste check-in removes;
    - prefetches start the transaction immediately but charge only the
      issue cost; the block's [ready_at] models the overlapped latency. *)

type miss_kind = Read_miss | Write_miss | Write_fault

type outcome = {
  latency : int;  (** cycles charged to the issuing node *)
  miss : miss_kind option;  (** [None] for hits and directives *)
}

(** {2 Packed outcomes}

    The hot path returns outcomes as a single immediate int,
    [(latency lsl 2) lor kind], so a simulated access that hits in the
    cache allocates nothing. Decode with {!packed_latency} /
    {!packed_kind}; the kind codes are {!no_miss}, {!read_miss},
    {!write_miss} and 3, a write fault. *)

val no_miss : int  (** 0 *)

val read_miss : int  (** 1 *)

val write_miss : int  (** 2 *)

val packed_latency : int -> int
val packed_kind : int -> int

type t

val create :
  nodes:int -> cache_bytes:int -> assoc:int -> block_size:int ->
  costs:Network.costs -> t
(** A machine running {!Protocol_id.default} ([Dir1sw]). *)

val create_b :
  backend:Protocol_id.t ->
  nodes:int -> cache_bytes:int -> assoc:int -> block_size:int ->
  costs:Network.costs -> t
(** A machine running the given backend. *)

val backend : t -> Protocol_id.t
val nodes : t -> int
val block_size : t -> int
val stats : t -> Stats.t
val directory : t -> Directory.t
val cache : t -> node:int -> Cache.t
val costs : t -> Network.costs

val read_p : t -> node:int -> addr:int -> now:int -> int
(** A shared-data load by [node] at virtual time [now]; packed outcome.
    Cache hits are allocation-free: an index probe with a per-set MRU
    memo, an in-place LRU touch, and no directory bookkeeping. *)

val write_p : t -> node:int -> addr:int -> now:int -> int
(** A shared-data store by [node] at virtual time [now]; packed outcome.
    Exclusive hits are allocation-free like {!read_p}. *)

val read_rmw_p : t -> node:int -> addr:int -> now:int -> int
(** The load half of a classifier-recognized commutative read-modify-write
    ([A[i] = A[i] + e]). Identical to {!read_p} under [Dir1sw] and [Sisd];
    under [Commute] it reads the node's privatized accumulator (a hit,
    never a miss), privatizing the block first if needed. *)

val write_rmw_p : t -> node:int -> addr:int -> now:int -> int
(** The store half of a recognized commutative RMW; see {!read_rmw_p}.
    Identical to {!write_p} outside [Commute]. *)

val read : t -> node:int -> addr:int -> now:int -> outcome
(** A shared-data load by [node] at virtual time [now]. Allocating wrapper
    around {!read_p}. *)

val write : t -> node:int -> addr:int -> now:int -> outcome
(** A shared-data store by [node] at virtual time [now]. Allocating
    wrapper around {!write_p}. *)

(** Latency-only entry points for the CICO directives (directives never
    miss, so the latency is the whole outcome): *)

val check_out_x_lat : t -> node:int -> addr:int -> now:int -> int
val check_out_s_lat : t -> node:int -> addr:int -> now:int -> int
val check_in_lat : t -> node:int -> addr:int -> now:int -> int
val prefetch_x_lat : t -> node:int -> addr:int -> now:int -> int
val prefetch_s_lat : t -> node:int -> addr:int -> now:int -> int
val post_store_lat : t -> node:int -> addr:int -> now:int -> int

val check_out_x : t -> node:int -> addr:int -> now:int -> outcome
(** Explicit check-out-exclusive of the block containing [addr]. *)

val check_out_s : t -> node:int -> addr:int -> now:int -> outcome
(** Explicit check-out-shared of the block containing [addr]. *)

val check_in : t -> node:int -> addr:int -> now:int -> outcome
(** Explicit check-in (flush) of the block containing [addr]. *)

val prefetch_x : t -> node:int -> addr:int -> now:int -> outcome
val prefetch_s : t -> node:int -> addr:int -> now:int -> outcome

val post_store : t -> node:int -> addr:int -> now:int -> outcome
(** The KSR-1-style post-store the paper's introduction compares to
    check-in: write the block back and broadcast read-only copies to every
    node that held the block before losing it (invalidation or eviction).
    The issuing node keeps a [Shared] copy; recipients get the data with
    a one-transfer delay hidden behind [ready_at]. A no-op (beyond its
    cost) when the node does not hold the block exclusive. *)

val sample_occupancy : t -> unit
(** When observability is enabled ({!Obs.enabled}), set the
    ["protocol.dir_occupancy"] gauge to the number of non-idle directory
    entries. No-op (one branch) otherwise. Engines call this at epoch
    barriers so the gauge tracks working-set growth without touching the
    per-access hot path. *)

val flush_node : t -> node:int -> unit
(** Flush the node's entire shared-data cache, updating the directory.
    Used at barriers during trace-collection runs (Section 3.3). *)

val epoch_boundary : t -> unit
(** Barrier-synchronized protocol work, called by every engine while
    releasing a barrier (before any trace-mode flush). A no-op under
    [Dir1sw]. Under [Sisd], every node self-invalidates each resident
    line whose block has no outstanding check-out by that node, writing
    dirty data back first. Under [Commute], every surviving privatized
    accumulator merges (deterministic block order). *)

(** {2 Protocol invariant oracle (debug hook)}

    For differential testing the protocol can audit itself after every
    transition: single exclusive owner, sharer sets consistent with cache
    states (stale extra sharers from silent Shared replacement are legal,
    cached-but-unlisted sharers are not), no cached copy of an Idle block,
    and no stuck pending prefetch whose line is gone. Off by default; the
    hot path pays one predictable branch. *)

exception Invariant_violation of string
(** Raised by any transition entry point when {!set_debug_checks} is on
    and the transition left the machine in a state violating the active
    backend's invariants. *)

val check_invariants : t -> string option
(** One full audit of directory-versus-cache state, independent of the
    debug flag. [None] when every invariant holds. *)

val set_debug_checks : t -> bool -> unit
(** Enable or disable the per-transition audit. *)

val reset : t -> unit
(** Drop all cache and directory state and zero the statistics. *)
