(** Data-race and false-sharing detection for one epoch (Section 4).

    A {e potential data race} exists when two or more processors access the
    same address within the same epoch and at least one access is a write
    (the trace keeps no ordering within an epoch, so any such pair is a
    potential race). {e False sharing} is two or more processors accessing
    different addresses in the same cache block within the epoch.

    [DRFS] is the union predicate used by the annotation equations; the
    [filter_*] functions are the paper's DRFS/FS set functions and their
    complements.

    {b Agreement with the streaming race detector.} Over the epochs of a
    trace, {!race} marks exactly the addresses [Races.detect] reports
    racy, each first in the epoch of its reported race, and both count
    the same epochs. The fuzzer's races oracle and a [t_races] case over
    the race corpus and the Figure 6 programs check this both ways.
    Both passes stay. The equations need every epoch's race set and the
    false-sharing set, while the detector stops at an address's first
    race and has no notion of blocks. Deriving this set from the
    streaming pass would also cost more: on most Figure 6 traces the
    streaming pass costs several times this module's per-epoch pass
    over the address order {!Epoch_info} has already built
    (EXPERIMENTS.md, "One plain streaming race detector"). *)

module Iset = Trace.Epoch.Iset

type t

val analyze_sorted : block_size:int -> Trace.Event.miss array -> t
(** The analysis of one epoch from its misses ordered by address
    ({!Trace.Epoch.by_address}), in one pass over them and one over its
    distinct addresses. An address without locked accesses is decided
    from node bitmasks in O(1); only pairs of locked accesses are
    compared lockset by lockset. Both scans run in ascending address
    order, so the race and false-sharing sets are filled in order, with
    no sort.

    An access pair protected by a common lock is not a race (a lockset
    refinement the paper's lock-ignoring model does not have; the
    Section 5 restructured merge is the motivating case). False sharing
    is unaffected — locks do not stop block ping-pong. *)

val race : t -> Iset.t
(** Addresses involved in a potential data race. *)

val false_shared : t -> Iset.t
(** Addresses involved in false sharing. *)

val drfs_set : t -> Iset.t
(** [race ∪ false_shared]. *)

val in_drfs : t -> int -> bool
val in_race : t -> int -> bool
val in_false_sharing : t -> int -> bool

val filter_drfs : t -> Iset.t -> Iset.t
(** DRFS{set}: members involved in a race or false sharing. *)

val filter_not_drfs : t -> Iset.t -> Iset.t
val filter_fs : t -> Iset.t -> Iset.t
val filter_not_fs : t -> Iset.t -> Iset.t
