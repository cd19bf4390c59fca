(** Shared-address-space layout and region labelling.

    Every shared array is assigned a contiguous byte region, aligned to the
    cache-block size so that distinct arrays never share a block (the
    paper's programmers pad structures for the same reason; false sharing
    *within* an array remains possible and is what Cachier detects). The
    label table is what the paper's "labelled regions of memory" macro
    produces: it lets the analysis map raw trace addresses back to program
    data structures. *)

type entry = {
  name : string;
  base : int;  (** first byte address *)
  elems : int;  (** number of elements *)
  elem_size : int;  (** bytes per element *)
}

type t

val layout : block_size:int -> elem_size:int -> Sema.info -> t
(** Assign addresses to every shared array, in declaration order. *)

val entries : t -> entry list
val total_bytes : t -> int

val find_array : t -> string -> entry option
val base : t -> string -> int
(** @raise Not_found for unknown arrays. *)

val elems : t -> string -> int

val addr_of_elem : t -> string -> int -> int
(** Byte address of element [i]. @raise Invalid_argument out of bounds. *)

val to_label_records : t -> (string * int * int) list
(** [(name, lo, hi)] byte ranges, as written into the trace. *)
