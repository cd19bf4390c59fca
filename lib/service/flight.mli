(** Content-addressed single-flight request coalescing.

    A flight table maps a computation key (the hash of everything that
    determines a request's result — see {!Server}) to the one
    in-flight execution of that computation. The first arrival becomes
    the {e leader} and actually computes; every later arrival for the
    same key while the leader is in flight becomes a {e follower} and is
    attached to the entry as a waiter. When the leader completes, all
    waiters receive the same result: 10k concurrent identical requests
    cost one simulation.

    Completion removes the entry, so a request that arrives after the
    result was delivered starts a fresh flight (and typically hits the
    artifact cache instead). All operations are thread-safe. *)

type 'a t

val create : unit -> 'a t

val join :
  'a t ->
  string ->
  deliver:(coalesced:bool -> ('a, exn) result -> unit) ->
  [ `Leader of ('a, exn) result -> unit | `Joined ]
(** Attach to the flight for a key. The first caller gets
    [`Leader complete]: it must run the computation (anywhere — a worker
    pool, the calling thread) and then call [complete result] exactly
    once, which resolves every attached [deliver] (the leader's own with
    [~coalesced:false], followers' with [~coalesced:true], each outside
    the table lock) and retires the entry. Later callers get [`Joined]
    and will be resolved by the leader's [complete]. A leader that
    cannot run the computation (e.g. the pool refused the job) must
    still call [complete (Error _)] so followers are not stranded. *)

val in_flight : 'a t -> int
(** Entries currently in flight (for tests and stats). *)

val coalesced_total : 'a t -> int
(** Followers attached since [create] (monotonic). *)
