(** Event counters for a simulated Dir1SW machine.

    One [t] aggregates the whole machine; per-node breakdowns are kept for
    the counters the evaluation needs (misses, stall cycles). All counters
    are monotonically increasing during a run. *)

type t = {
  nodes : int;
  mutable read_hits : int;
  mutable write_hits : int;
  mutable read_misses : int;
  mutable write_misses : int;
  mutable write_faults : int;  (** writes that hit a Shared copy (upgrades) *)
  mutable invalidations : int;  (** invalidation messages sent *)
  mutable sw_traps : int;  (** Dir1SW software traps (>1 sharer on write) *)
  mutable writebacks : int;
  mutable evictions : int;
  mutable check_outs_x : int;  (** explicit check-out-exclusive directives *)
  mutable check_outs_s : int;  (** explicit check-out-shared directives *)
  mutable check_ins : int;  (** explicit check-in directives *)
  mutable check_in_flushes : int;  (** check-ins that actually flushed a block *)
  mutable prefetches : int;
  mutable useful_prefetches : int;  (** prefetched blocks later accessed in time *)
  mutable post_stores : int;  (** KSR-1-style post-store directives *)
  mutable messages : int;  (** total protocol messages *)
  mutable shared_reads : int;  (** loads that touch shared data *)
  mutable shared_writes : int;  (** stores that touch shared data *)
  mutable private_reads : int;
  mutable private_writes : int;
  mutable barriers : int;
  mutable lock_acquires : int;
  stall_cycles : int array;
      (** per-node cycles spent waiting on memory. Nothing writes it:
          {!add_stall} has no caller outside its own test, so it stays
          all zero. It is kept because the [golden] suite digests the
          marshalled [t] of 40 simulate cells; removing the field would
          change every one of those pinned digests. *)
}

val create : nodes:int -> t
(** [create ~nodes] is a zeroed counter set for an [nodes]-node machine. *)

val reset : t -> unit
(** [reset t] zeroes every counter in place. *)

val add_stall : t -> node:int -> int -> unit
(** [add_stall t ~node c] accounts [c] memory-stall cycles to [node]. *)

val total_misses : t -> int
(** Read misses + write misses (write faults are counted separately). *)

val total_accesses : t -> int
(** All shared and private loads and stores. *)

val shared_read_fraction : t -> float
(** Fraction of loads that touch shared data, in [0, 1]; 0 if no loads. *)

val shared_write_fraction : t -> float
(** Fraction of stores that touch shared data, in [0, 1]; 0 if no stores. *)

val pp : Format.formatter -> t -> unit
(** Human-readable multi-line rendering of all counters. *)
