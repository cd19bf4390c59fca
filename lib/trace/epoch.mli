(** Epoch segmentation of a trace (program model of Figure 2).

    Epochs are the code segments between barrier synchronisations. The
    trace writer emits every node's barrier record when an epoch closes, so
    an epoch boundary in the record stream is a maximal run of [Barrier]
    records covering all nodes. The final epoch may be closed by the end of
    the trace instead of a barrier.

    Each epoch's misses are sorted by address once, when the epoch
    closes ({!by_address}). The epoch keeps that array, and its per-node
    sets are read off it in address order, so no later pass sorts
    again. *)

module Iset = Iset
(** Sets of addresses (or of any ints): sorted int arrays. *)

type node_misses = {
  reads : Iset.t;  (** addresses with shared-read misses *)
  writes : Iset.t;  (** addresses with shared-write misses *)
  faults : Iset.t;  (** addresses with shared-write faults *)
}

type t = {
  index : int;  (** position in the trace, from 0 *)
  start_pc : int option;
      (** pc of the barrier that opened the epoch; [None] at program start *)
  end_pc : int option;
      (** pc of the barrier that closed it; [None] at program end *)
  misses : Event.miss list;  (** raw records, in trace order *)
  by_addr : Event.miss array;
      (** the same records ordered by address ({!by_address}) *)
  per_node : node_misses array;
      (** indexed by node, read off [by_addr] in one pass that counts
          and one that fills *)
}

val static_key : t -> int option * int option
(** [(start_pc, end_pc)] — two dynamic epochs with the same key execute the
    same static program region. *)

val split : nodes:int -> Event.record list -> t list * (string * int * int) list
(** [split ~nodes records] is the list of epochs plus the labelled shared
    regions found in the trace. @raise Failure on inconsistent barriers
    or on a miss whose node is outside [\[0, nodes)]. *)

val by_address : Event.miss list -> Event.miss array
(** The misses ordered by address, stably (misses on one address keep
    their trace order): every address's misses, and every address
    range's, form one contiguous run. Any int is an address, [min_int]
    and [max_int] included. The sort moves int keys and positions, then
    gathers the records once. *)
