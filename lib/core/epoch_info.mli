(** Assimilation of trace information (Section 4, phase one).

    For each epoch and node the paper derives:
    - [SWᵢ] = shared write misses ∪ shared write faults,
    - [SRᵢ] = shared read misses − shared write faults
      (a location that was read then written contributes only to [SW]),
    - [Sᵢ]  = SWᵢ ∪ SRᵢ,

    plus the per-epoch DRFS analysis and a miss index.

    Every set is a {!Trace.Epoch.Iset.t}, a sorted int array, so the
    Section 4.1 equations over them are linear merges.

    {b The miss index.} Every later pass — the equations, placement,
    the race report, the explanation — asks the same few questions of
    an epoch's misses: which pcs touched this address, which misses
    fall in this array, what did every other node write. The epoch's
    misses in address order ({!Trace.Epoch.t.by_addr}, sorted once when
    the trace is split) answer the first two by binary search, and
    [build] keeps what answers the third once per dynamic epoch (the
    SW union and the addresses several nodes write), so each pass
    stays linear in the misses it actually looks at. The rule for
    consumers: never rescan [epochs.(i).misses] per address, per pc,
    per node or per array; go through {!iter_range} (or one cursor over
    [by_addr]) and {!sw_others}. *)

module Iset = Trace.Epoch.Iset

type node_sets = {
  sw : Iset.t;  (** SWᵢ for this node *)
  sr : Iset.t;  (** SRᵢ for this node *)
  wf : Iset.t;  (** raw shared write faults (used by Performance CICO) *)
}

val s_of : node_sets -> Iset.t
(** [Sᵢ = SWᵢ ∪ SRᵢ]. *)

type t = {
  nodes : int;
  block_size : int;
  epochs : Trace.Epoch.t array;
  sets : node_sets array array;  (** [sets.(epoch).(node)] *)
  drfs : Drfs.t array;
      (** per epoch, computed from the epoch's [by_addr] in one pass *)
  sw_union : Iset.t array;  (** per epoch, the union of every node's SW *)
  sw_shared : Iset.t array;
      (** per epoch, the addresses in two or more nodes' SW; with
          [sw_union] it gives {!sw_others} for any node by two diffs *)
  labels : (string * int * int) list;  (** labelled shared regions *)
}

val build : nodes:int -> block_size:int -> Trace.Event.record list -> t
(** Segment the trace into epochs and compute every per-epoch set, the
    DRFS analysis and the miss index. *)

val n_epochs : t -> int

val sets_at : t -> epoch:int -> node:int -> node_sets
(** Out-of-range epochs yield empty sets (used for i-1 and i+1 at the
    trace boundaries). *)

val sw_others : t -> epoch:int -> node:int -> Iset.t
(** Union of SWᵢ over every node other than [node] ("written by some
    {e other} processor") — used by the Performance check-in rule so a
    node never flushes data only it will write next epoch. Empty for
    out-of-range epochs. *)

val iter_range : t -> epoch:int -> lo:int -> hi:int -> (Trace.Event.miss -> unit) -> unit
(** [iter_range t ~epoch ~lo ~hi f] applies [f] to every miss of the
    epoch whose address lies in [\[lo, hi\]], in address order; it costs
    a binary search plus the misses it visits. *)

