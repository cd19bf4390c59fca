(** The resident annotation service.

    A server owns one two-tier artifact cache (an in-memory
    content-addressed {!Cache} over an optional on-disk {!Store}), one
    {!Flight} table, one {!Metrics} instance, and one {!Wwt.Jobs.Pool}
    of worker domains. Requests ({!Protocol.request}) arrive as
    newline-delimited JSON over stdio or a Unix-domain socket. The
    thread that reads a request answers it when that computes nothing:
    [ping], [stats], and a [simulate], [annotate], [races] or
    [trace_stats] request whose every artifact the hot tier holds. Every
    other request (a miss, a disk-tier hit, a [parse], an
    [annotate_delta]) executes on the pool, so several simulations
    proceed concurrently while the front end keeps accepting. When the
    pool's bounded queue is full, the server answers an [overloaded]
    error immediately instead of buffering.

    Stage artifacts are keyed by stable hashes of
    [(source text, machine config, seed, stage)]: a [parse] hit returns
    the cached AST, a trace hit returns the trace records and the
    simulation report, and an [annotate] hit returns the finished
    response without simulating. Every stage goes through one lookup:
    the hot tier, then the {!Store}, then compute and write through.
    With a [cache_dir], every simulation-priced artifact (trace,
    measure, annotate, annotate_delta, races, trace_stats) is also
    written to the {!Store}, whose index is rebuilt on startup — warm
    state survives a restart.

    {b Delta bases.} Every [annotate] response names its source's digest
    in the [artifact] extra, and the source is kept as a text artifact
    under ["src|<digest>"] in both tiers. [annotate_delta] looks the
    base's source up there, then its {!Delta.Engine.base} (stage
    ["base"], a memory-only artifact built from the cached parse and
    trace), and caches the edited source and its base the same way, so
    an edit of the edit starts warm. A computed base is charged what its
    epoch info, item table and summary hold ({!computed_base_bytes}); a
    chained base, which shares its parent's plan, epoch info and summary,
    is charged only for its two new ASTs and its item table
    ({!chained_base_bytes}).

    {b One request path.} Every entry point first resolves the request's
    source once (a benchmark's text comes from a memo holding each
    name's last rendering) and digests it once; the stage keys, the
    flight key and the [artifact] id all use that digest. {!handle} and
    {!handle_async} are then thin callers of one dispatch. It stamps the
    request once, on arrival, with the monotonic {!Obs.now_ns}, which
    times both [elapsed_us] and the span (wall-clock time anchors
    deadlines only); joins the flight table, so identical concurrent
    work requests share one execution (followers receive the leader's
    result, marked [cached]); retries, at most twice, a follower that
    inherited its leader's deadline cancellation; and books the response
    — request count, latency, error kind, coalesced count and one
    [service.<op>] span — in {!Metrics} and the {!Obs} pipeline. The
    callers differ only in where a flight leader runs: {!handle} runs it
    on the calling thread, {!handle_async} submits it to the pool, and a
    pool refusal is the one [overloaded] error.

    {b Front ends.} Both front ends share one line handler,
    {!handle_line}: a malformed line is answered with [bad_request] and
    id 0, [shutdown] is recognised, and a request it can answer without
    computing is answered on the reading thread, booked exactly as the
    pool would book it; each front end keeps only its transport, where
    it places the rest, and its shutdown order. The socket front end
    ({!serve_shards}) dispatches the rest as {!handle_async} does, so a
    request coalesces on arrival. The stdio front end ({!serve}) submits
    each to the pool as a {!handle} job, which joins the flight table
    only when a worker runs it: a request queued behind an identical one
    then finds the artifact its predecessor cached rather than riding
    along with it, so a burst with one worker answers every repeat from
    the cache. *)

type config = {
  machine_defaults : Protocol.machine_config;
      (** for requests that omit machine fields *)
  budget_bytes : int;  (** hot-tier (in-memory) byte budget *)
  cache_dir : string option;  (** on-disk artifact store root, when set *)
  workers : int;  (** worker domains *)
  queue_capacity : int;  (** bounded submission queue *)
}

val default_config : config
(** Machine defaults from the protocol, 64 MB budget, no cache dir, 2
    workers, queue capacity 64. *)

type t

val create : config -> t
(** Spawns the worker pool (workers are clamped to at least 1) and, with
    a [cache_dir], indexes the existing on-disk artifacts. *)

val handle : ?received:float -> t -> Protocol.request -> Protocol.response
(** Execute one request synchronously, consulting and filling both cache
    tiers and coalescing with any identical in-flight request. A flight
    this call leads, a retry's included, runs on the calling thread.
    [received] (a [Unix.gettimeofday] stamp) anchors the request's
    deadline; it defaults to now. Never raises: failures become
    [Error_response]s. *)

val handle_async :
  ?received:float ->
  t ->
  Protocol.request ->
  deliver:(Protocol.response -> unit) ->
  unit
(** Non-blocking [handle] for event-loop callers. Cheap operations
    ([ping], [stats], [shutdown]) are answered before returning; work
    operations join the flight table, and only a flight leader occupies
    a pool slot. [deliver] is called exactly once — on the calling
    thread for cheap operations, a source that does not resolve
    ([unknown_benchmark]) and pool-refused ([overloaded]) requests, or
    on a worker domain otherwise — so callers that own an {!Aio.Loop}
    must re-enter it via {!Aio.Loop.post}. The reported [elapsed_us]
    runs from this call, also for a follower that retried. It never
    answers from the hot tier on the calling thread; {!handle_line}
    does. *)

type work
(** A request {!handle_line} leaves to its front end: its source is
    resolved and digested, and it carries its arrival stamp. *)

val handle_line :
  ?received:float ->
  t ->
  string ->
  reply:(Protocol.response -> unit) ->
  [ `Answered | `Shutdown of Protocol.request | `Work of work ]
(** The line handler both front ends share. [`Answered]: [reply] got the
    one response, on the calling thread — a malformed line
    ([bad_request], id 0), a source that does not resolve, [ping],
    [stats], or a [simulate], [annotate], [races] or [trace_stats]
    request whose every artifact the hot tier holds. Such a hit books
    what the pool path books for it: the stage hits, the request, its
    latency and its [service.<op>] span. Such a request whose
    [deadline_ms] has passed is answered [deadline_exceeded] here, hit
    or miss, with no stage hit, as a flight leader would be. [`Work]:
    the request needs the pool (a miss, a disk-tier hit, [parse],
    [annotate_delta]); nothing was booked and no stage missed. [`Shutdown]: the front end
    answers it in its own order. [received] anchors deadlines as for
    {!handle}; it defaults to now. *)

val serve : t -> in_channel -> out_channel -> [ `Shutdown | `Eof ]
(** Blocking NDJSON loop over channels: read requests, answer what
    {!handle_line} can on the reading thread, fan the rest out on the
    pool as {!handle} jobs, write one response line per request
    (order follows completion; correlate by [id]). Returns on end of
    input or on a [shutdown] request — after every in-flight request has
    been answered. *)

type serve_options = {
  listeners : int;
      (** event-loop shards sharing the socket: one runs on the calling
          domain, each other on a domain of its own *)
  idle_timeout_s : float;  (** drop connections idle this long *)
  drain_grace_s : float;  (** shutdown drain bound *)
}

val default_serve_options : serve_options
(** 2 listeners, 30 s idle timeout, 5 s drain grace. *)

val serve_shards :
  t ->
  path:string ->
  ?options:serve_options ->
  ?stop:bool Atomic.t ->
  unit ->
  unit
(** The production front end: bind a Unix-domain socket at [path]
    (replacing any stale file) and serve it with [options.listeners]
    event-loop shards — each an {!Aio.Loop}, one on the calling domain
    and each other on a domain of its own, all accepting from the shared
    socket. A shard answers what {!handle_line} can answer on its own
    domain and hands the rest to the pool. Connections carry pipelined NDJSON
    requests split at arbitrary byte boundaries; responses go back on
    the connection that sent the request, in completion order.

    Returns after [stop] turns true (set it from a signal handler for
    graceful shutdown) or a [shutdown] request arrives: the shards stop
    accepting, in-flight requests drain within [options.drain_grace_s],
    and the socket file is removed. *)

val shutdown : t -> unit
(** Drain and join the worker pool. *)

(** Introspection (tests): *)

val metrics : t -> Metrics.t
val store : t -> Store.t option

val stage_key :
  stage:string -> machine:Protocol.machine_config -> seed:int option ->
  source_digest:string -> string
(** The cache key for one pipeline stage. The {!Store} names its files
    by this key's digest, so its bytes must not change: a cache
    directory written by an earlier server must stay warm. *)

val computed_base_bytes : Delta.Engine.base -> int
(** What the hot tier charges for a computed delta base: every miss
    record of its epoch info, with its list cell and its slot in the
    address-ordered array, plus every set array the epoch info holds,
    its item table and its summary. *)

val chained_base_bytes : source:string -> Delta.Engine.base -> int
(** What the hot tier charges for a chained delta base, whose edited
    source is [source]: its two new ASTs and its item table's cells and
    records. *)
