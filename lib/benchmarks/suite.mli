(** The Section 6 benchmark suite. *)

type t = {
  name : string;
  source : string;  (** unannotated, built with [trace_seed] *)
  hand_source : string;  (** hand-annotated (same seed baked in) *)
  trace_seed : int;  (** input data set used to generate the trace *)
  eval_seed : int;  (** different input data set used for measurement
                        (Section 6: "The input data sets used to obtain
                        the execution trace for Cachier were different
                        than the data sets used in the performance
                        comparison.") *)
}

val reseed : Lang.Ast.program -> int -> Lang.Ast.program
(** Swap the program's [SEED] constant (new input data set). *)

val names : string list
(** ["matmul"; "barnes"; "tomcatv"; "ocean"; "mp3d"] — Figure 6 order. *)

val all : ?scale:float -> nodes:int -> unit -> t list
(** The five benchmarks at their default scaled sizes. [scale] multiplies
    the problem sizes (1.0 default; use with care, cost grows fast).
    @raise Invalid_argument if [nodes <= 0]. *)

val find : ?scale:float -> nodes:int -> string -> t
(** Builds only the named benchmark, equal to its element of [all].
    @raise Not_found for an unknown name.
    @raise Invalid_argument if [nodes <= 0]. *)
