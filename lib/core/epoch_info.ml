module Iset = Trace.Epoch.Iset

type node_sets = { sw : Iset.t; sr : Iset.t; wf : Iset.t }

let empty_sets = { sw = Iset.empty; sr = Iset.empty; wf = Iset.empty }

let s_of ns = Iset.union ns.sw ns.sr

type t = {
  nodes : int;
  block_size : int;
  epochs : Trace.Epoch.t array;
  sets : node_sets array array;
  drfs : Drfs.t array;
  sw_union : Iset.t array;
  sw_shared : Iset.t array;
  labels : (string * int * int) list;
}

let sets_of_epoch (e : Trace.Epoch.t) node =
  let nm = e.Trace.Epoch.per_node.(node) in
  let reads = nm.Trace.Epoch.reads
  and writes = nm.Trace.Epoch.writes
  and faults = nm.Trace.Epoch.faults in
  {
    sw = Iset.union writes faults;
    sr = Iset.diff reads faults;
    wf = faults;
  }

(* The union of every node's SW, and the addresses in two or more
   nodes' SW: one fold over the nodes, two merges per node. *)
let sw_union_and_shared (sets : node_sets array) =
  Array.fold_left
    (fun (all, shared) ns ->
      (Iset.union all ns.sw, Iset.union shared (Iset.inter all ns.sw)))
    (Iset.empty, Iset.empty) sets

let build ~nodes ~block_size records =
  let epochs, labels = Trace.Epoch.split ~nodes records in
  let epochs = Array.of_list epochs in
  let sets =
    Array.map
      (fun e -> Array.init nodes (fun node -> sets_of_epoch e node))
      epochs
  in
  let drfs =
    Array.map
      (fun e -> Drfs.analyze_sorted ~block_size e.Trace.Epoch.by_addr)
      epochs
  in
  let sw = Array.map sw_union_and_shared sets in
  {
    nodes;
    block_size;
    epochs;
    sets;
    drfs;
    sw_union = Array.map fst sw;
    sw_shared = Array.map snd sw;
    labels;
  }

let n_epochs t = Array.length t.epochs

let in_range t epoch = epoch >= 0 && epoch < Array.length t.sets

let sets_at t ~epoch ~node =
  if in_range t epoch then t.sets.(epoch).(node) else empty_sets

(* Every SW address but those only [node] writes. *)
let sw_others t ~epoch ~node =
  if in_range t epoch then
    Iset.diff t.sw_union.(epoch)
      (Iset.diff t.sets.(epoch).(node).sw t.sw_shared.(epoch))
  else Iset.empty

(* First position in [a] whose address is >= [addr]. *)
let lower_bound (a : Trace.Event.miss array) addr =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if a.(mid).Trace.Event.addr < addr then lo := mid + 1 else hi := mid
  done;
  !lo

let iter_range t ~epoch ~lo ~hi f =
  let a = t.epochs.(epoch).Trace.Epoch.by_addr in
  let n = Array.length a in
  let i = ref (lower_bound a lo) in
  while !i < n && a.(!i).Trace.Event.addr <= hi do
    f a.(!i);
    incr i
  done
