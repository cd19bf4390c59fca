(** The cachierd wire protocol: newline-delimited JSON requests and
    responses.

    One request per line. Every request carries an [id] (echoed in the
    response, so responses may be correlated even when the server
    completes them out of order), an [op], and op-specific fields; the
    machine-configuration fields default to the same values as the
    one-shot CLIs ([--nodes 8 --cache-kb 16 --assoc 4 --block 32]).

    The [payload] of a successful response is byte-identical to what the
    corresponding one-shot CLI prints on stdout for the same inputs (see
    {!Oneshot}). *)

type machine_config = {
  nodes : int;
  cache_kb : int;
  assoc : int;
  block : int;
  protocol : Memsys.Protocol_id.t;
}

val default_machine : machine_config
val to_machine : machine_config -> Wwt.Machine.t

type source =
  | Text of string  (** inline program source *)
  | Bench of string  (** a built-in benchmark name, e.g. ["matmul"] *)

type mode = Performance | Programmer

type op =
  | Parse of { source : source }
      (** parse + sema-check; payload is the pretty-printed program *)
  | Simulate of {
      source : source;
      annotations : bool;
      prefetch : bool;
      trace : bool;
    }  (** payload as printed by [simulate] for a single file *)
  | Annotate of { source : source; mode : mode; prefetch : bool }
      (** payload as printed by [cachier_cli] on stdout (the annotated
          program); the response carries the stderr summary in [report] *)
  | Annotate_delta of {
      base : string;
          (** artifact id of a previously annotated source: the hex digest
              returned in the [artifact] extra of an [annotate] response *)
      start : int;  (** byte offset of the edit span in the base source *)
      len : int;  (** byte length of the span being replaced *)
      text : string;  (** replacement text *)
      mode : mode;
      prefetch : bool;
    }
      (** incrementally re-annotate the base source after the edit
          [\[start, start+len)] is replaced by [text]; payload is
          byte-identical to a from-scratch [annotate] of the edited
          source. The response's [extra] carries [artifact] (the edited
          source's id, usable as a new base) and [reuse]
          ([noop] / [plan-reuse] / [resim: <why>]) *)
  | Races of { source : source }
      (** run the sound streaming race detector ({!Races.detect}) on the
          program's collected trace; payload as printed by
          [simulate --races] after the simulation report *)
  | Trace_stats of { source : source option; trace_text : string option }
      (** analyse either a trace collected from [source] (cached) or an
          inline trace in the {!Trace.Trace_file} format; payload as
          printed by [trace_stats] *)
  | Stats  (** server counters; the response carries them in [stats] *)
  | Ping
  | Shutdown

type request = {
  id : int;
  machine : machine_config;
  seed : int option;  (** substitute the program's [SEED] constant *)
  deadline_ms : int option;
  op : op;
}

type error_kind =
  | Bad_request
  | Unknown_benchmark
  | Parse_error
  | Runtime_error
  | Deadline_exceeded
  | Overloaded
  | Internal

val error_kind_to_string : error_kind -> string

exception Reject of error_kind * string
(** A request refused with a structured error by the server's own
    checks (unknown benchmark, bad delta base, deadline passed before
    execution, full queue). *)

val error_of_exn : exn -> error_kind * string
(** The one mapping from an exception to a structured error, shared by
    the server's error responses and the CLIs' diagnostics. [Reject]
    carries its own kind; a lexer, parser or sema error is
    [Parse_error]; a runtime error or deadlock of the simulated program
    is [Runtime_error]; a cancelled run is [Deadline_exceeded]; anything
    else is [Internal], with the exception's text as the message. *)

type response =
  | Ok_response of {
      id : int;
      op : string;
      cached : bool;
      elapsed_us : int;
      payload : string;
      extra : (string * Json.t) list;
          (** op-specific fields, e.g. [report] for annotate, [stats] for
              stats *)
    }
  | Error_response of { id : int; error : error_kind; message : string }

val op_name : op -> string

val request_to_json : request -> Json.t

val request_of_json :
  ?defaults:machine_config -> Json.t -> (request, string) result
(** [defaults] (default {!default_machine}) fills machine fields the
    request omits. [Error msg] describes the first malformed field. *)

val response_to_json : response -> Json.t
val response_of_json : Json.t -> (response, string) result

val read_request :
  ?defaults:machine_config -> string -> (request, string) result
(** Decode one NDJSON line. *)

val write_response : Buffer.t -> response -> unit
(** Append the encoded response and a newline. *)
