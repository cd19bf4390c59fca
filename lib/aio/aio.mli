(** A minimal readiness-driven I/O core for the service front end.

    Two pieces:

    - {!Framing} — an incremental newline-delimited framer. Bytes arrive
      in arbitrary chunks (partial reads, merged writes); complete lines
      come out exactly as they were sent, however the chunk boundaries
      fell. Pure, allocation-proportional to the buffered bytes, and
      directly property-testable.

    - {!Loop} — a poll-style event loop over [Unix.select]: non-blocking
      accept on listener descriptors, per-connection read buffers feeding
      a {!Framing.t}, write queues that tolerate partial writes, idle
      timeouts, and a thread-safe {!Loop.post} wake-up channel so worker
      domains can hand completed responses back to the owning loop.

    The loop is deliberately single-threaded: one {!Loop.t} is owned by
    one domain, and several loops can share a listening socket (the
    kernel load-balances [accept]), which is how {!Service.Server} runs
    N listener shards. Nothing here knows about JSON or the service
    protocol. *)

module Framing : sig
  type t

  val create : unit -> t

  val feed : t -> Bytes.t -> int -> int -> unit
  (** [feed t buf off len] appends a chunk. *)

  val feed_string : t -> string -> unit

  val next_line : t -> string option
  (** The next complete line, without its ['\n'] terminator, or [None]
      when no full line is buffered. A ['\r'] immediately before the
      terminator is preserved — the framer is byte-exact. *)

  val buffered : t -> int
  (** Bytes fed but not yet returned by {!next_line} (including any
      trailing partial line). *)
end

module Loop : sig
  type t
  type conn

  val create : unit -> t
  (** Also ignores [SIGPIPE] process-wide (first call), so writes to a
      vanished peer surface as [EPIPE] on that connection only. *)

  val post : t -> (unit -> unit) -> unit
  (** Thread-safe: enqueue a closure to run on the loop's own thread at
      the next iteration, waking it if it is blocked in [select]. Every
      cross-domain interaction with a connection (sending a response,
      releasing a hold) must go through [post]. *)

  val add_listener : t -> Unix.file_descr -> on_accept:(Unix.file_descr -> unit) -> unit
  (** Watch a listening socket (which must be non-blocking). On
      readiness, accepted descriptors are handed to [on_accept] until
      the kernel reports no more pending connections. The loop never
      closes a listener — several loops may share one. *)

  val add_conn :
    t ->
    Unix.file_descr ->
    on_line:(conn -> string -> unit) ->
    ?on_close:(conn -> unit) ->
    unit ->
    conn
  (** Adopt a connected descriptor (made non-blocking). Complete NDJSON
      lines are delivered to [on_line] in arrival order; [on_close] runs
      exactly once when the connection is dropped for any reason. *)

  val send : conn -> string -> unit
  (** Queue bytes for writing (loop thread only; use {!post} from other
      domains). Writes happen opportunistically and on readiness;
      partial writes are resumed. Silently drops on a closed conn. *)

  val hold : conn -> unit
  (** Pin the connection: EOF and idle timeouts will not drop it while
      holds are outstanding (a request is in flight on a worker). *)

  val release : conn -> unit

  val conn_count : t -> int

  val run :
    t ->
    ?tick:(unit -> unit) ->
    ?idle_timeout:float ->
    ?drain_grace:float ->
    stop:(unit -> bool) ->
    unit ->
    unit
  (** Drive the loop. Each iteration: run posted closures, poll
      readiness (bounded at 100 ms so [stop] and [tick] stay
      responsive), dispatch, drop connections idle longer than
      [idle_timeout] (seconds; only when no holds and no pending
      output), and call [tick].

      When [stop ()] first turns true the loop stops accepting and
      enters draining: existing connections keep running until every
      one is quiescent (no holds, no buffered output) or [drain_grace]
      seconds (default 5) elapse, whichever is first; remaining
      connections are then closed and [run] returns. *)
end
