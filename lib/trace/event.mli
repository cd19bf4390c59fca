(** Trace records, following the format of Figure 3 of the paper.

    A trace is a sequence of per-epoch groups. Within an epoch there is no
    ordering of miss records; epochs are ordered by the barrier virtual
    times (VTs) that close them. Label records carry the shared-region
    labelling the programmer supplies (Section 4.3) so the analysis can map
    raw addresses back to program data structures. *)

type miss_kind = Read_miss | Write_miss | Write_fault

type miss = {
  node : int;  (** node that took the miss *)
  pc : int;  (** program counter (statement id) of the access *)
  addr : int;  (** byte address accessed *)
  kind : miss_kind;
  held : int list;
      (** lock ids the node held at the access. The paper ignores locks
          (Section 3.1); recording them lets the race detector skip
          access pairs protected by a common lock. *)
}

type barrier = {
  bnode : int;  (** node arriving at the barrier *)
  bpc : int;  (** program counter of the barrier *)
  vt : int;  (** barrier virtual time *)
}

type record =
  | Miss of miss
  | Barrier of barrier
  | Label of { name : string; lo : int; hi : int }
      (** a labelled shared region: byte range [\[lo, hi\]] *)

val pp : Format.formatter -> record -> unit

val equal : record -> record -> bool
