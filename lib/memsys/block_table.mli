(** A table of ints indexed by block number, stored in one flat array.

    Every block reads 0 until written. Reads past the end of the array
    return 0; the array doubles on the first non-zero write past its end.
    Memsys keeps per-block protocol state here (directory codes and node
    masks), so a lookup on the simulated access path is one bounds check
    and one load. Block numbers must be non-negative. *)

type t

val initial_blocks : int
(** Length of a fresh table's array (blocks at or past it grow the
    array on their first non-zero write). *)

val create : unit -> t

val get : t -> int -> int

val set : t -> int -> int -> unit
(** [set t blk v] stores [v]; a zero past the end is a no-op. *)

val iter : t -> (int -> int -> unit) -> unit
(** [iter t f] calls [f blk v] for every non-zero entry in ascending
    block order. [f] may overwrite the entry it is given. *)

val fold_right : t -> (int -> int -> 'a -> 'a) -> 'a -> 'a
(** [fold_right t f init] folds over the non-zero entries in descending
    block order (so consing builds an ascending list). *)

val copy : t -> int array
(** The backing array, copied (a snapshot). *)

val restore : t -> int array -> unit
(** [restore t a] makes [t] a copy of the snapshot [a]. *)

val clear : t -> unit
