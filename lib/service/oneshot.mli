(** The canonical textual form of each pipeline operation's result.

    Both the one-shot CLIs ([simulate], [cachier_cli], [trace_stats]) and
    the {!Server} build their output through these functions, so a served
    [payload] is byte-identical to the corresponding CLI print-out by
    construction — there is no second formatting path to drift. *)

val simulate_report : Wwt.Interp.outcome -> string
(** The per-file block [simulate] prints: program output lines, the
    [execution time: N cycles] line, then the memory-system statistics. *)

val annotate_summary : Cachier.Annotate.result -> string
(** The stderr block [cachier_cli] prints after the annotated program:
    the edit count and the race / false-sharing report. (The stdout
    payload is {!Cachier.Annotate.to_source} itself.) *)

val trace_stats_report : nodes:int -> Trace.Event.record list -> string
(** Everything [trace_stats] prints on stdout: the summary and the
    hottest-region line. *)

val race_report :
  machine:Wwt.Machine.t -> Lang.Ast.program -> Trace.Event.record list -> string
(** The race / false-sharing report on its own, newline-terminated
    ({!Cachier.Annotate.report_with_trace}). *)

val races_report : nodes:int -> Trace.Event.record list -> string
(** The sound streaming race-detector report ({!Races.render}): human
    block plus one JSON line. Shared by [simulate --races],
    [trace_stats --races] and the daemon's [races] op, so all three
    surfaces agree byte-for-byte. *)

val parse_report : Lang.Ast.program -> string
(** The pretty-printed program (the [parse] operation's payload). *)
