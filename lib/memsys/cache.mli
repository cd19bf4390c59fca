(** A finite-capacity, set-associative, LRU data cache for one node.

    Blocks are cached in one of two coherence states, [Shared] (read-only)
    or [Exclusive] (writable); a dirty bit tracks whether an exclusive block
    must be written back. Each line carries a [ready_at] virtual time so
    that prefetched blocks can arrive asynchronously: an access before
    [ready_at] stalls for the residual latency.

    {b Layout.} The ways are stored as parallel int arrays indexed by flat
    way index ([set * assoc + way]): the tag (block number), the flag
    bits (Exclusive, dirty), [ready_at] and the LRU stamp. No way is a
    heap record. The access path calls {!probe} for a way index and then
    reads and writes that way through the index accessors ({!hit},
    {!write_hit}, {!exclusive}, {!dirty}, {!upgrade}, {!downgrade},
    {!set_ready_at}, {!touch_idx}); none of them allocates. {!find} and
    {!iter} build read-only {!line} copies for tests and audits. *)

type coherence = Shared | Exclusive

type line = {
  block : int;
  state : coherence;
  dirty : bool;
  ready_at : int;  (** virtual time at which the data is usable *)
  last_use : int;  (** LRU timestamp, maintained by [touch] *)
}
(** A copy of one resident way; writing the cache never changes it. *)

type t

val create : size_bytes:int -> assoc:int -> block_size:int -> t
(** [create ~size_bytes ~assoc ~block_size] is an empty cache.
    @raise Invalid_argument if the geometry is not a power-of-two split. *)

val block_size : t -> int
val sets : t -> int
val assoc : t -> int

val capacity_blocks : t -> int
(** Total number of lines. *)

val capacity_bytes : t -> int

val find : t -> int -> line option
(** [find t blk] is a copy of the resident line for block [blk], without
    touching LRU state. Allocates; hot paths should use {!probe}. *)

val probe : t -> int -> int
(** [probe t blk] is the flat way index of block [blk], or [-1] if it is
    not resident. Allocation-free; a per-set MRU memo makes back-to-back
    probes of the same block O(1). The index stays valid until the next
    {!insert}, {!remove} or {!flush_all} on this cache. *)

(** {2 Way accessors}

    [i] is a way index returned by {!probe} for a resident block. *)

val hit : t -> int -> now:int -> int
(** [hit t i ~now] marks way [i] most recently used and returns the
    stall until its data arrives: [max 0 (ready_at - now)]. *)

val write_hit : t -> int -> now:int -> int
(** {!hit} for a store: the way also becomes [Exclusive] and dirty. *)

val exclusive : t -> int -> bool
(** The way holds its block [Exclusive]. *)

val dirty : t -> int -> bool

val set_ready_at : t -> int -> int -> unit

val upgrade : t -> int -> unit
(** Make the way [Exclusive], keeping its dirty bit. *)

val downgrade : t -> int -> unit
(** Make the way [Shared] and clean. *)

val touch : t -> int -> unit
(** [touch t blk] marks block [blk] most recently used (no-op if absent). *)

val touch_idx : t -> int -> unit
(** [touch_idx t i] marks the line at flat index [i] most recently used,
    skipping the probe. *)

val insert :
  t -> block:int -> state:coherence -> dirty:bool -> ready_at:int ->
  (int * coherence * bool) option
(** [insert t ~block ~state ~dirty ~ready_at] installs a line, evicting the
    LRU line of the set if full. Returns [Some (victim, state, dirty)] when
    a block was evicted. Inserting an already-resident block updates it in
    place and returns [None]. *)

val remove : t -> int -> (coherence * bool) option
(** [remove t blk] drops block [blk], returning its state and dirty bit. *)

val flush_all : t -> (int * coherence * bool) list
(** [flush_all t] empties the cache, returning every resident
    [(block, state, dirty)] in unspecified order. *)

val occupancy : t -> int
(** Number of resident lines. *)

val iter : t -> (line -> unit) -> unit
(** Iterate over copies of the resident lines in way order. *)

val iter_blocks : t -> (int -> unit) -> unit
(** [iter_blocks t f] calls [f blk] for every resident block in way
    order, without allocating. [f] may {!remove} the block it is given. *)

(** {2 Snapshot, restore and canonical digest}

    Support for the parallel engine's epoch memoization: a whole-cache
    snapshot that can be restored at a different virtual time, and a
    canonical fold over the behaviourally relevant state. *)

type snapshot

val snapshot : t -> snapshot
(** Copies of the way arrays, the LRU clock and the occupancy count. *)

val restore : t -> snapshot -> time_offset:int -> unit
(** Overwrite [t] in place from a snapshot taken on a cache of the same
    geometry. [time_offset] is added to every pending [ready_at] stamp so
    a snapshot taken at virtual time T behaves identically when restored
    at time T + offset. *)

val fold_state : t -> now:int -> init:'a -> ('a -> int -> 'a) -> 'a
(** Fold over a canonical encoding of the state at virtual time [now]:
    per way — block, state, dirty, residual stall relative to [now], and
    LRU rank within the set. Two caches that fold equally respond
    identically to every future access sequence; absolute LRU ticks,
    elapsed [ready_at] stamps and the probe memo are excluded. *)
