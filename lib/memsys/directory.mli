(** Dir1SW directory state, one entry per cache block.

    Dir1SW (Hill et al., "Cooperative Shared Memory") keeps one hardware
    pointer plus a sharer count per block; common transitions run in
    hardware, and a store to a block with other sharers traps to system
    software, which sends the invalidations. For simulation we track the
    exact sharer set (as a bitmask over at most 62 nodes) so invalidation
    *counts* are exact, while the *cost* of the >1-sharer case is charged
    as a software trap by the protocol engine.

    {b Layout.} A base directory ({!create}) stores one int code per block
    in a flat array indexed by block number ({!Block_table}): 0 is [Idle],
    [mask lsl 1] is [Shared mask] and [(owner lsl 1) lor 1] is
    [Exclusive owner]. Reads past the end of the array are [Idle]; the
    array doubles on the first write past its end, so its size follows
    the highest block the program touched. *)

type state =
  | Idle  (** no cached copies *)
  | Shared of int  (** bitmask of nodes holding read-only copies *)
  | Exclusive of int  (** node holding the writable copy *)

type t

val max_nodes : int
(** 62: a sharer set is a bitmask in one OCaml int. *)

val create : nodes:int -> t
(** A directory for a machine with [nodes] nodes, [1 <= nodes <=
    max_nodes]. @raise Invalid_argument otherwise. *)

val nodes : t -> int

val get : t -> int -> state
(** [get t blk] is the state of block [blk] ([Idle] if never referenced). *)

val set : t -> int -> state -> unit
(** [set t blk st] overwrites the state of block [blk]; [Idle] and
    [Shared 0] both normalise to [Idle]. *)

val add_sharer : t -> int -> node:int -> unit
(** [add_sharer t blk ~node] adds [node] to the sharer set.
    @raise Invalid_argument if the block is [Exclusive]. *)

val remove_sharer : t -> int -> node:int -> unit
(** [remove_sharer t blk ~node] removes [node]; removing the last sharer
    leaves the block [Idle]. No-op if [node] is not a sharer. *)

val sharers : t -> int -> int list
(** Sorted list of sharer nodes ([]) for [Idle]/[Exclusive] blocks). *)

val sharer_count : t -> int -> int
(** Number of sharers (0 for [Idle] and [Exclusive]). *)

val is_sharer : t -> int -> node:int -> bool

val entries : t -> (int * state) list
(** All non-[Idle] entries, in ascending block order. *)

val popcount : int -> int
(** Number of set bits (exposed for tests). *)

val validate : t -> (int * string) option
(** Structural well-formedness of the stored entries: sharer masks name
    only nodes in range, exclusive owners are in range (an empty sharer
    mask cannot be stored; it reads back as [Idle]). Returns
    [Some (block, reason)] for the first offending entry in ascending
    block order. This is
    the directory half of the Dir1SW debug oracle; {!Protocol.check_invariants}
    adds the cross-checks against per-node cache state. *)
