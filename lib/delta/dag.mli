(** Content-addressed artifact DAG for the delta engine.

    Nodes are keyed ["kind|digest…"] strings and hold pipeline artifacts:
    parsed programs, per-procedure sema verdicts, and full {!base}
    pipeline snapshots (trace, epoch slices, placement plan, annotate
    result). An LRU bound (entry count, [CACHIER_DELTA_DAG] env override,
    default 128) keeps the resident set small; per-kind hit/miss counters
    feed the service metrics. All operations are thread-safe. *)

type base = {
  source : string;
  program : Lang.Ast.program;  (** parse of [source], original sids *)
  stripped : Lang.Ast.program;  (** annotation-stripped, same sids *)
  info : Lang.Sema.info;
  records : Trace.Event.record list;  (** the collected miss trace *)
  epochs : Trace.Event.record list list;
      (** [records] sliced per epoch, in epoch order *)
  layout : Lang.Label.t;
  plan : Cachier.Placement.plan;
  result : Cachier.Annotate.result;
}

type node =
  | Source of string
  | Parsed of Lang.Ast.program
  | Sema_ok  (** the keyed procedure digest checked clean *)
  | Base of base

type t

val create : ?capacity:int -> unit -> t
(** Default capacity: [CACHIER_DELTA_DAG] or 128 entries.
    @raise Invalid_argument if [CACHIER_DELTA_DAG] is set to anything
    but a positive integer. *)

val find : t -> string -> node option
(** LRU-bumping lookup; counts a hit or miss for the key's kind (the
    prefix before the first ['|']). *)

val add : t -> string -> node -> unit

val entries : t -> int

val stats : t -> (string * (int * int)) list
(** Per-kind [(hits, misses)] counters, sorted by kind. *)
