(** The CICO annotation equations of Section 4.1.

    {b Programmer CICO} exposes all communication:
    {v
co_x[i] = ¬DRFS{SWᵢ − SWᵢ₋₁} ∪ DRFS{SWᵢ}
co_s[i] = ¬FS{SRᵢ − SRᵢ₋₁}  ∪ FS{SRᵢ}
ci[i]   = ¬DRFS{Sᵢ − Sᵢ₊₁}  ∪ DRFS{Sᵢ}
    v}

    {b Performance CICO} keeps only the annotations that pay under Dir1SW
    (implicit check-outs happen on every miss, so explicit ones are pure
    overhead except for read-before-write locations):
    {v
co_x[i] = ¬DRFS{write faultᵢ − SWᵢ₋₁} ∪ DRFS{write faultᵢ}
co_s[i] = ∅
ci[i]   = ¬DRFS{SWᵢ − Sᵢ₊₁} ∪ ¬DRFS{SRᵢ ∩ SWᵢ₊₁(other) − Sᵢ₊₁} ∪ DRFS{Sᵢ}
    v}

    All sets are per-(epoch, node); SWᵢ₋₁/SWᵢ₊₁ refer to the same node's
    previous/next epoch except for "written by some processor in the next
    epoch", which unions over the {e other} nodes. A location the node
    will use itself next epoch (Sᵢ₊₁, read or write) is never checked in:
    flushing it would turn the node's own hits or upgrades into full
    misses. Epochs outside the trace contribute empty sets. *)

module Iset = Trace.Epoch.Iset

type mode = Programmer | Performance

type annots = { co_x : Iset.t; co_s : Iset.t; ci : Iset.t }

val empty : annots

type set = Co_x | Co_s | Ci

type term = {
  set : set;  (** the annotation set the term adds to *)
  label : string;  (** what the term's locations are, in words *)
  addrs : Iset.t;
}

val terms : mode -> Epoch_info.t -> epoch:int -> node:int -> term list
(** The terms of the equations above for one epoch and node, in the
    order written there: each [∪] operand is one term. *)

val for_epoch : mode -> Epoch_info.t -> epoch:int -> node:int -> annots
(** The union of {!terms} per annotation set. *)

val all : mode -> Epoch_info.t -> annots array array
(** [all mode info] is indexed [.(epoch).(node)]. *)

val union : annots -> annots -> annots
