(** Content-addressed artifact DAG for the delta engine.

    Nodes are keyed ["kind|digest…"] strings and hold pipeline artifacts:
    parsed programs, per-procedure sema verdicts, and {!base} snapshots
    of what an edit against a source needs (its parse, sema info,
    placement plan and annotate result). An LRU bound (entry count,
    [CACHIER_DELTA_DAG] env override, default 128) keeps the resident set
    small; per-kind hit/miss counters feed the service metrics. All
    operations are thread-safe. *)

type base = {
  program : Lang.Ast.program;  (** parse of the source, original sids *)
  info : Lang.Sema.info;  (** sema of the annotation-stripped program *)
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
