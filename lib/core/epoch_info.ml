module Iset = Trace.Epoch.Iset

type node_sets = { sw : Iset.t; sr : Iset.t; wf : Iset.t }

let empty_sets = { sw = Iset.empty; sr = Iset.empty; wf = Iset.empty }

let s_of ns = Iset.union ns.sw ns.sr

type index = { by_addr : Trace.Event.miss array; sw_others : Iset.t array }

type t = {
  nodes : int;
  block_size : int;
  epochs : Trace.Epoch.t array;
  sets : node_sets array array;
  drfs : Drfs.t array;
  index : index array;
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

(* [others.(n)] = ⋃ SW over every node but [n], from a prefix union
   (nodes below [n]) and a suffix union (nodes above): 3·nodes unions
   per epoch. *)
let sw_others_of (sets : node_sets array) =
  let n = Array.length sets in
  let prefix = Array.make (n + 1) Iset.empty in
  for i = 0 to n - 1 do
    prefix.(i + 1) <- Iset.union prefix.(i) sets.(i).sw
  done;
  let others = Array.make n Iset.empty in
  let suffix = ref Iset.empty in
  for i = n - 1 downto 0 do
    others.(i) <- Iset.union prefix.(i) !suffix;
    suffix := Iset.union sets.(i).sw !suffix
  done;
  others

let build ~nodes ~block_size records =
  let epochs, labels = Trace.Epoch.split ~nodes records in
  let epochs = Array.of_list epochs in
  let sets =
    Array.map
      (fun e -> Array.init nodes (fun node -> sets_of_epoch e node))
      epochs
  in
  let by_addr =
    Array.map (fun e -> Trace.Epoch.by_address e.Trace.Epoch.misses) epochs
  in
  let drfs = Array.map (Drfs.analyze_sorted ~block_size) by_addr in
  let index =
    Array.mapi
      (fun i by_addr -> { by_addr; sw_others = sw_others_of sets.(i) })
      by_addr
  in
  { nodes; block_size; epochs; sets; drfs; index; labels }

let n_epochs t = Array.length t.epochs

let in_range t epoch = epoch >= 0 && epoch < Array.length t.sets

let sets_at t ~epoch ~node =
  if in_range t epoch then t.sets.(epoch).(node) else empty_sets

let sw_others t ~epoch ~node =
  if in_range t epoch then t.index.(epoch).sw_others.(node) else Iset.empty

(* First position in [a] whose address is >= [addr]. *)
let lower_bound (a : Trace.Event.miss array) addr =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if a.(mid).Trace.Event.addr < addr then lo := mid + 1 else hi := mid
  done;
  !lo

let iter_range t ~epoch ~lo ~hi f =
  let a = t.index.(epoch).by_addr in
  let n = Array.length a in
  let i = ref (lower_bound a lo) in
  while !i < n && a.(!i).Trace.Event.addr <= hi do
    f a.(!i);
    incr i
  done

let pcs_of_addr t ~epoch addr =
  let pcs = ref [] in
  iter_range t ~epoch ~lo:addr ~hi:addr (fun m ->
      pcs := m.Trace.Event.pc :: !pcs);
  List.sort_uniq Int.compare !pcs
