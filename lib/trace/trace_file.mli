(** Serialisation of traces to a line-oriented text format.

    One record per line:
    - ["M node pc addr kind"] — a miss ([kind] is [R], [W] or [F]);
    - ["B node pc vt"] — a barrier arrival;
    - ["L name lo hi"] — a labelled shared region;
    - lines beginning with [#] are comments and are ignored.

    Traces priced by a non-default coherence backend are stamped with a
    leading ["# protocol <id>"] comment (pass [?protocol] when writing). *)

val to_buffer : ?protocol:Memsys.Protocol_id.t -> Buffer.t -> Event.record list -> unit
val to_string : ?protocol:Memsys.Protocol_id.t -> Event.record list -> string

val save : ?protocol:Memsys.Protocol_id.t -> string -> Event.record list -> unit
(** [save path records] writes the trace to [path]. *)

val of_string : string -> Event.record list
(** Parse a trace. @raise Failure on a malformed line, with its number. *)

val load : string -> Event.record list
(** [load path] parses the trace stored at [path]. *)
