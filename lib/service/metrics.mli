(** Server counters and per-operation latency histograms.

    Counters: total requests, errors by kind, and per-stage cache
    hits/misses (stages are ["parse"], ["trace"], ["measure"],
    ["annotate"], ["delta"], ["src"] (delta base sources), ["base"]
    (delta bases), ["races"] and ["trace_stats"]). This is the service's
    one count: the server books every answered request and every cache
    lookup here and nowhere else. Latencies are recorded
    per operation into power-of-two microsecond buckets ([<=1us, <=2us,
    ..., <=2^29us], plus an overflow bucket), cheap enough to keep on for
    every request.

    Built on {!Obs.Registry}: each [t] owns a private registry (so
    concurrent servers and tests stay isolated) with category-prefixed
    metric names, and all updates are thread-safe through the registry's
    atomics and per-histogram locks. {!to_json} renders a snapshot for
    the [stats] operation; its shape is part of the service protocol.
    The [store] section additionally carries [corrupt_by_stage], the
    per-stage breakdown from {!Store.corrupt_stages}. *)

type t

val create : unit -> t

val record_request : t -> op:string -> elapsed_us:int -> unit
val record_error : t -> kind:string -> unit
val record_hit : t -> stage:string -> unit
val record_miss : t -> stage:string -> unit

val record_coalesced : t -> unit
(** A request answered by attaching to an in-flight identical one
    (single-flight follower): it cost no simulation of its own. *)

val requests : t -> int
val hits : t -> stage:string -> int
val misses : t -> stage:string -> int
val coalesced : t -> int

val to_json :
  t ->
  evictions:int ->
  cache_bytes:int ->
  cache_entries:int ->
  ?store:Store.t ->
  unit ->
  Json.t
(** Snapshot, embedding the artifact-cache gauges passed by the caller
    and, when the server has a disk tier, its [store] section (bytes,
    entries, hits, misses, corrupt). Existing fields keep their exact
    shape; [coalesced] and [store] are additive. *)
