(** Identity of a coherence-protocol backend.

    The simulator's memory system ({!Protocol}) implements several
    protocols in one module; this enum names them wherever a
    configuration, cache key or trace header needs to say which one. *)

type t =
  | Dir1sw  (** the paper's Dir1SW directory protocol *)
  | Sisd  (** self-invalidation / self-downgrade *)
  | Commute  (** Dir1SW plus privatized commutative RMW updates *)

val all : t list
(** Every backend, in presentation order ([Dir1sw] first). *)

val default : t
(** [Dir1sw] — the protocol the paper evaluates. *)

val to_string : t -> string
(** Lower-case command-line / wire spelling: ["dir1sw"], ["sisd"],
    ["commute"]. *)

val of_string : string -> t option

val describe : t -> string
(** One-line human description. *)

val pp : Format.formatter -> t -> unit
