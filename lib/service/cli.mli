(** The machine-configuration command line shared by every binary.

    [cachier_cli], [simulate], [trace_stats] and [cachierd] all build
    their simulated machine through {!machine_term}, so flag names,
    defaults and semantics cannot drift between the one-shot tools and
    the service. *)

val machine_term : Wwt.Machine.t Cmdliner.Term.t
(** [--nodes]/[-n] (8), [--cache-kb] (16), [--assoc] (4), [--block] (32)
    over {!Wwt.Machine.default}. Each flag takes a positive integer. A
    machine the memory system would refuse (more than
    {!Memsys.Directory.max_nodes} nodes, or a cache geometry
    {!Memsys.Cache.check_geometry} rejects) is a usage error naming the
    flags. *)

val nodes_term : int Cmdliner.Term.t
(** Just [--nodes]/[-n] (a positive integer), for tools that only need
    the node count. *)

val obs_term : Obs.mode Cmdliner.Term.t
(** [--obs={off,summary,ndjson:PATH}] (default [off]). Evaluating the
    term calls {!Obs.configure} for non-[Off] modes, so binaries only
    need to include it in their term expression; the returned mode is
    informational. Obs output goes to stderr or the NDJSON file, never
    stdout. *)

val positive_int : int Cmdliner.Arg.conv
(** An integer of at least 1; anything else is a usage error naming the
    flag. *)

val non_negative_int : int Cmdliner.Arg.conv
(** An integer of at least 0, for counts and durations where 0 is
    meaningful (a queue that refuses every submission, no drain grace). *)

val catch_program_error : file:string -> (unit -> 'a) -> ('a, string) result
(** Run [f]; a program's own failure — [parse_error] or [runtime_error]
    by {!Protocol.error_of_exn}, the mapping the server answers with —
    becomes [Error "FILE: KIND: MESSAGE"], a one-line diagnostic. Any
    other exception escapes with its backtrace. *)
