(** Streaming race detection over the miss trace.

    The paper's DRFS predicate ({!Cachier.Drfs}) consults one epoch at a
    time to pick annotation sites; it is a heuristic, not a proof. This
    module is the complementary sound analysis: it folds once over the
    {!Trace.Event.record} list the engines produce (the same records the
    annotator reads) and reports every address with two same-epoch
    accesses from different nodes, at least one a write, with no common
    lock held. Under the trace-mode memory system (caches
    flushed at barriers, so each node's first access per epoch always
    misses) that condition is both necessary and sufficient for a data
    race in the simulated execution.

    The detector keeps one plain record per address: the epoch it was
    last touched in, the node that alone has touched it this epoch, its
    distinct accesses this epoch by (node, write, lock-set) in
    first-occurrence order with the pc of each first occurrence, and
    whether it has raced. A barrier group is the clock join: a record
    stamped with an earlier epoch restarts the next time its address is
    touched, so nothing is scanned at a barrier. Each access is checked
    against the address's distinct accesses in order, and the first
    conflict found is the address's race.

    {!naive} is an independent reference implementation over the same
    records via {!Trace.Epoch.split}. The tests, the qcheck battery and
    the fuzzer's sixth oracle hold the two reports equal with [=]. *)

type access = {
  a_node : int;
  a_pc : int;
  a_write : bool;
  a_locks : int list;  (** held lock-set, innermost first *)
}

type race = {
  r_addr : int;
  r_epoch : int;  (** 0-based epoch index containing both accesses *)
  r_first : access;
  r_second : access;  (** the later access; the pair conflicts *)
}

type report = {
  nodes : int;
  epochs : int;  (** epochs examined, as {!Trace.Epoch.split} counts them *)
  accesses : int;  (** miss records folded *)
  distinct_addrs : int;  (** addresses carrying per-address state *)
  promoted : int;
      (** (address, epoch) pairs in which a second node reached the
          address, not counting the epochs after the address's first
          race *)
  racy_addrs : int list;  (** sorted ascending *)
  races : race list;
      (** first racy pair per racy address, in stream discovery order —
          the head is the program's first race *)
}

val racy : report -> bool

val detect : nodes:int -> Trace.Event.record list -> report
(** Single pass over the records, from an engine run or a loaded trace
    file. Mirrors {!Trace.Epoch.split}'s validation: @raise Failure on
    short/oversized or inconsistent barrier groups and on out-of-range
    miss nodes. *)

val naive : nodes:int -> Trace.Event.record list -> report
(** Reference detector: {!Trace.Epoch.split} then per-epoch, per-address
    pairwise checks on the records, with [promoted] counted per epoch
    from the addresses two nodes touched there. Shares no code with
    {!detect} past the type definitions and ignores {!Hooks}. Its report
    equals [detect]'s as a value on every trace; that equality is
    fuzzed. *)

val to_json : report -> string
(** One JSON line, newline-terminated. *)

val render : report -> string
(** A multi-line report (a verdict line, "race verdict: racy" or
    "race verdict: race-free", the counters, and the first racy pair
    with its epoch and held lock-sets), then {!to_json}: the canonical
    payload shared byte-for-byte by
    [simulate --races], [trace_stats --races] and the daemon's [races]
    op. *)

val verdict_line : report -> string
(** Just the verdict line, no newline — what CI's races-smoke greps. *)

(** Test-only fault injection, honoured by {!detect} only (never
    {!naive}): used to prove the oracle battery catches a broken
    detector. Both default to [false]. *)
module Hooks : sig
  val break_lock_intersection : bool ref
  (** Treat every lock-set pair as disjoint, so lock-protected accesses
      are misreported as racy. *)

  val break_epoch_boundary : bool ref
  (** Skip the epoch clock join at barrier groups, merging all epochs
      into one. *)
end
