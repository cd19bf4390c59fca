(** Quantum-synchronized parallel engine: one simulation, many domains,
    bit-identical results.

    Simulated nodes are partitioned across OCaml 5 domains and advance in
    lockstep barrier epochs, following the conservative-window parallel
    discrete-event discipline of the real Wisconsin Wind Tunnel. Each
    epoch is executed twice: once in parallel {e recording mode}, where
    every node runs its compiled closures freely against its own event
    stream, and once in a {e replay} that drives the recorded events
    through the real memory system in exactly the order the sequential
    scheduler would have produced. Simulated time, statistics, the packed
    miss trace, printed output and final shared memory are therefore
    bit-identical to {!Compile.run} — the test suite checks this for
    every benchmark and the fuzzer's three-way oracle for random
    programs.

    Three optimisations keep the replay off the critical path, all
    outcome-preserving (see the implementation for the safety
    arguments):

    - {e Pipelining} — when an epoch is {e clean} (no element written by
      two nodes) and every node parked at its barrier, the next epoch's
      recording overlaps the current epoch's replay on the worker
      domains. On by default; [?pipeline] or [CACHIER_PAR_PIPELINE=0]
      turns it off.
    - {e Sharded replay} — epochs whose touched blocks partition into
      decoupled ownership groups ({!Shard}) replay on several domains
      against {!Memsys.Protocol.shard_view} overlays, with a serial
      ordering pass consuming the precomputed latencies. [?shards] or
      [CACHIER_REPLAY_SHARDS] caps the shard count ([0] = one per
      domain, [1] = always serial).
    - {e Epoch memoization} — barrier-terminated epochs are keyed by
      (event streams, incoming coherence state) in a process-wide LRU
      pool; repeat epochs apply the recorded deltas and skip replay.
      [?memo] or [CACHIER_REPLAY_MEMO] sets the pool capacity in
      epochs ([0] disables; default 64).

    Programs the recorder cannot reproduce exactly — lock users, or
    programs where one node reads an element another node writes within
    the same epoch (not data-race-free at epoch granularity) — are
    detected by a conflict classifier and transparently re-run on the
    sequential compiled engine, so [run] is total over the same domain as
    {!Compile.run}. [Machine.debug_protocol] also forces the classic
    serial replay so invariant violations keep their precise context. *)

val default_domains : nodes:int -> int
(** [min (Jobs.default_jobs ()) nodes], at least 1: the worker count used
    when [?domains] is omitted. Note the composition rule with
    {!Jobs}: an outer per-run fan-out multiplied by inner domains should
    not oversubscribe the machine — use [jobs × domains ≤ cores]. *)

val memo_clear : unit -> unit
(** Empty the process-wide epoch-memo pool (all scopes). Tests use this
    to get cold-versus-warm runs. *)

val run :
  ?poll:(unit -> unit) ->
  ?domains:int ->
  ?pipeline:bool ->
  ?shards:int ->
  ?memo:int ->
  machine:Machine.t ->
  Lang.Ast.program ->
  Interp.outcome
(** Like {!Compile.run}, on [domains] domains (default
    {!default_domains}; [0] also selects the default, so callers can
    plumb "auto" through untouched; values above the node count are
    clamped). [poll] is called periodically from the recording workers
    and the replay loop; it may raise {!Sched.Cancelled} to abandon the
    run.
    @raise Interp.Runtime_error as the sequential engines do.
    @raise Invalid_argument if [domains < 0]. *)
