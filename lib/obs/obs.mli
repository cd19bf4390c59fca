(** Unified observability: spans, typed metrics, pluggable sinks.

    One global pipeline serves every layer — the Dir1SW protocol, the
    execution engines, the service and the fuzzer — so a single
    [--obs={off,summary,ndjson:PATH}] flag lights up the whole stack.

    {b Stdout purity.} No sink ever writes to stdout: the summary sink
    prints to stderr and the NDJSON sink to its own file, so simulation
    reports stay byte-identical whether observability is on or off.

    {b Disabled cost.} With the [Off] mode (the default) every
    instrumentation seam is one branch on a mutable flag. The manual
    span API ({!start}/{!finish}) traffics only in unboxed [int]
    timestamps and {!Counter.incr} is an [Atomic] bump, so the disabled
    hot path allocates nothing — verified by the allocation budget test
    in [test/t_obs.ml] and tracked by the [obs-overhead] bechamel row.

    Metrics ({!Counter}, {!Gauge}, {!Histogram}) always record — they
    are cheap enough to stay on, and {!Service.Metrics} is built on them
    — but hot-path call sites guard updates with {!enabled} so the
    [Off] mode pays a single branch. *)

val now_ns : unit -> int
(** Monotonic clock in nanoseconds (CLOCK_MONOTONIC via a C stub;
    allocation-free). The epoch is unspecified — only differences are
    meaningful. *)

(** {1 Pipeline configuration} *)

type mode =
  | Off  (** the null sink: one branch per seam, no allocation *)
  | Summary  (** per-span aggregates and metrics to stderr at {!flush} *)
  | Ndjson of string
      (** one JSON object per line to the given file: a [span] event per
          span exit, plus [counter]/[gauge]/[hist] snapshots at {!flush} *)

val mode_of_string : string -> (mode, string) result
(** Parses ["off"], ["summary"] and ["ndjson:PATH"]. *)

val mode_to_string : mode -> string

val configure : mode -> unit
(** Select the sink. Resets span aggregates, truncates and reopens the
    NDJSON file, and registers an [at_exit] {!flush} (once). May be
    called again to reconfigure; the previous NDJSON sink is closed. *)

val enabled : unit -> bool
(** True in [Summary] and [Ndjson] modes, until {!flush}. Hot-path call
    sites branch on this before touching the pipeline. *)

val flush : unit -> unit
(** Emit the summary (stderr) or the metric snapshot lines and close the
    NDJSON file, then disable the pipeline. Idempotent; also runs at
    process exit. *)

(** {1 Spans}

    A span is a named timed region. Each records its monotonic start,
    duration, domain id and nesting depth (the number of enclosing open
    spans on the same domain at its start). *)

val span : string -> (unit -> 'a) -> 'a
(** [span name f] times [f ()], recording the span even when [f] raises.
    When disabled this is a single branch, but the closure at the call
    site still allocates — use {!start}/{!finish} on hot paths. *)

val start : unit -> int
(** Allocation-free span opener: the current timestamp, or [0] when
    disabled. *)

val finish : string -> int -> unit
(** [finish name t0] records a span from [t0] (a {!start} result) to
    now. No-op when disabled or when [t0 = 0]; does not adjust nesting
    depth, so spans closed this way sit at the depth current when they
    finish. *)

type span_agg = { s_count : int; s_total_ns : int; s_max_ns : int }

val span_summary : unit -> (string * span_agg) list
(** Per-name aggregates accumulated since {!configure}, sorted by name. *)

(** {1 Metrics} *)

module Histogram : sig
  val buckets : int
  (** 30: power-of-two buckets [<=1us .. <=2^29us], plus overflow. *)

  val bucket_of : int -> int
  (** Index of the first bucket whose bound covers the value (clamped to
      the overflow bucket [buckets]). Monotone. *)

  val bound_of : int -> int
  (** Inclusive upper bound of a bucket, or [-1] for the overflow
      bucket. *)

  type t

  type snapshot = { count : int; sum : int; slots : int array }
  (** [slots] has [buckets + 1] cells, the last being overflow. *)

  val observe : t -> int -> unit
  (** Record a (microsecond) value; negative values clamp to 0.
      Thread-safe. *)

  val snapshot : t -> snapshot
  val name : t -> string
end

module Counter : sig
  type t

  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
  val name : t -> string
end

module Gauge : sig
  type t

  val set : t -> int -> unit
  val add : t -> int -> unit
  val value : t -> int
  val name : t -> string
end

(** A registry names and owns metrics. {!Registry.default} backs the
    global instrumentation seams; {!Service.Metrics} keeps a private
    registry per server so tests stay isolated. [make] is get-or-create:
    the same name always returns the same metric. All operations are
    thread-safe ([Counter]/[Gauge] are atomics; [Histogram] takes a
    per-histogram lock). *)
module Registry : sig
  type t

  val create : unit -> t
  val default : t
  val counter : ?registry:t -> string -> Counter.t
  val gauge : ?registry:t -> string -> Gauge.t
  val histogram : ?registry:t -> string -> Histogram.t

  val counters : t -> (string * int) list
  (** Sorted by name; likewise below. *)

  val histograms : t -> (string * Histogram.snapshot) list
end
