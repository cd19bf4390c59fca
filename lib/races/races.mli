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

    The detector is SmartTrack-shaped: per-address state is stamped with
    its epoch (a barrier is the clock join — stale state is reset in
    place, never scanned), and a single-owner fast path covers the
    common unshared case; only on a second node does the state promote
    to the full access-shape representation that the conflict check
    scans. Lock-sets are interned by value in a per-call table, so shapes
    compare lock-sets as ids and disjointness is memoised per id pair.

    {!naive} is an independent reference implementation over the same
    records via {!Trace.Epoch.split}; the fuzzer's sixth oracle and the
    qcheck battery hold the two equal. *)

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
      (** (address, epoch) states that left the single-owner fast path *)
  racy_addrs : int list;  (** sorted ascending *)
  races : race list;
      (** first racy pair per racy address, in stream discovery order —
          the head is the program's first race *)
}

val racy : report -> bool

val verdict_equal : report -> report -> bool
(** Equality on every field except [promoted] (fast-path telemetry whose
    exact count is an implementation detail of the streaming detector).
    This is the relation the fuzzer's differential oracle enforces
    between {!detect} and {!naive}. *)

val detect : nodes:int -> Trace.Event.record list -> report
(** Single pass over the records, from an engine run or a loaded trace
    file. Mirrors {!Trace.Epoch.split}'s validation: @raise Failure on
    short/oversized or inconsistent barrier groups and on out-of-range
    miss nodes. *)

val naive : nodes:int -> Trace.Event.record list -> report
(** Reference detector: {!Trace.Epoch.split} then per-epoch, per-address
    pairwise checks on the records. Shares no code with {!detect} past
    the type definitions and ignores {!Hooks}. Equal to [detect] on
    every trace — that equality is fuzzed. *)

val to_human : report -> string
(** Multi-line report: verdict line ("race verdict: racy" or
    "race verdict: race-free"), counters, and the first racy pair with
    its epoch and held lock-sets. *)

val to_json : report -> string
(** One JSON line, newline-terminated. *)

val render : report -> string
(** [to_human ^ to_json] — the canonical payload shared byte-for-byte by
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
