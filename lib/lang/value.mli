(** Runtime values of the mini-language: integers and floats.

    Arithmetic promotes to float when either operand is a float, as in C.
    Comparisons and logic produce [Vint 0] / [Vint 1]. *)

type t = Vint of int | Vfloat of float

val zero : t
val of_bool : bool -> t
val to_bool : t -> bool
val to_int : t -> int
(** Truncates floats toward zero. *)

val to_float : t -> float

val add : t -> t -> t
(** [add], [sub] and [mul] are each one direct match: the compiled engine
    calls them once per boxed arithmetic node. *)

val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
(** Integer division when both are ints. @raise Division_by_zero. *)

val modulo : t -> t -> t
val neg : t -> t

val compare_num : t -> t -> int
(** Numeric comparison across int/float. *)

val equal : t -> t -> bool
(** Numeric equality ([Vint 2 = Vfloat 2.0]). *)

val pp : Format.formatter -> t -> unit
(** An int in decimal, a float with [%g]; every NaN prints [nan], so the
    output does not depend on the host's NaN sign. *)

val to_string : t -> string
