(** Sets of ints (addresses, epoch indices, statement ids) held as one
    sorted int array without repeats.

    Two sets with the same elements are the same value, so [=] and
    polymorphic [compare] on sets (and on anything holding them) do not
    depend on how a set was built. The operations mirror the subset of
    [Set.S] the annotator uses, with the same meaning and iteration
    order (ascending). [union], [inter], [diff], [subset] and [equal]
    are linear merges; [mem] is a binary search; [range] is two binary
    searches and a copy of what it keeps. A result equal to one of its
    arguments is that argument, not a copy.

    [add] copies the set, so build a set with [of_list] or
    [of_sorted_array] rather than one [add] at a time. *)

type t

val empty : t
val singleton : int -> t

val of_list : int list -> t
(** Any order, repeats allowed. *)

val of_sorted_array : int array -> t
(** The set of a strictly ascending array, without sorting: builders
    that already scan in address order use it. The set takes the array
    over, so the caller must not modify it afterwards.
    @raise Invalid_argument if the array is not strictly ascending. *)

val elements : t -> int list
(** Ascending. *)

val is_empty : t -> bool
val cardinal : t -> int
val mem : int -> t -> bool
val add : int -> t -> t
val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t
val subset : t -> t -> bool
(** [subset a b] holds when every member of [a] is in [b]. *)

val equal : t -> t -> bool

val range : lo:int -> hi:int -> t -> t
(** The members in [\[lo, hi\]] (empty when [hi < lo]). *)

val iter : (int -> unit) -> t -> unit
(** Ascending. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
(** [fold f s init] is [f xn (... (f x1 init))] over the members in
    ascending order, as [Set.S.fold]. *)

val filter : (int -> bool) -> t -> t
val exists : (int -> bool) -> t -> bool
