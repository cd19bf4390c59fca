module Iset = Trace.Epoch.Iset

type t = { race_set : Iset.t; fs_set : Iset.t; drfs : Iset.t }

let popcount = Memsys.Directory.popcount

(* [exists x in xs, y in ys, x <> y] over node bitmasks. *)
let distinct_pair xs ys = xs <> 0 && ys <> 0 && not (xs = ys && popcount xs = 1)

(* A pair of accesses races when it involves two nodes, at least one
   write, and no common lock protects both (the paper ignores locks; the
   lockset check is our refinement, enabled by default and exact for the
   trace's within-epoch view). *)
let pair_races (n1, w1, l1) (n2, w2, l2) =
  n1 <> n2 && (w1 || w2)
  && not (List.exists (fun l -> List.mem l l2) l1)

let analyze_sorted ?(lock_aware = true) ~block_size
    (by_addr : Trace.Event.miss array) =
  let n = Array.length by_addr in
  let races = ref [] and fs = ref [] in
  (* Address [a] is falsely shared iff there is an access pair (x on a,
     y on b) with b <> a in the same block, x <> y, and at least one of
     the pair is a write: distinct processors contending for the block
     through independent locations. Read-read block sharing is ordinary
     shared caching, not false sharing. Sorted addresses make each
     block's members one run: (addr, accessors, writers). *)
  let block = ref [] and block_id = ref (-1) in
  let close_block () =
    List.iter
      (fun (a, na, wa) ->
        if
          List.exists
            (fun (b, nb, wb) ->
              b <> a && (distinct_pair wa nb || distinct_pair wb na))
            !block
        then fs := a :: !fs)
      !block;
    block := []
  in
  let i = ref 0 in
  while !i < n do
    let addr = by_addr.(!i).Trace.Event.addr in
    (* Accessor and writer bitmasks, the same restricted to lock-free
       accesses, and the accesses made under some lock. *)
    let nodes = ref 0 and writers = ref 0 in
    let free = ref 0 and free_writers = ref 0 and locked = ref [] in
    while !i < n && by_addr.(!i).Trace.Event.addr = addr do
      let m = by_addr.(!i) in
      let bit = 1 lsl m.Trace.Event.node in
      let is_write = m.Trace.Event.kind <> Trace.Event.Read_miss in
      nodes := !nodes lor bit;
      if is_write then writers := !writers lor bit;
      (match m.Trace.Event.held with
      | [] ->
          free := !free lor bit;
          if is_write then free_writers := !free_writers lor bit
      | held -> locked := (m.Trace.Event.node, is_write, held) :: !locked);
      incr i
    done;
    (* A lock-free access shares no lock with anything, so a lock-free
       write races with any other node's access and a lock-free read
       with any other node's write: both are mask tests. Only pairs of
       locked accesses need the lockset comparison. *)
    let races_on =
      !writers <> 0
      && popcount !nodes >= 2
      && ((not lock_aware)
         || !free_writers <> 0
         || distinct_pair !writers !free
         ||
         let rec any = function
           | [] -> false
           | a :: rest -> List.exists (pair_races a) rest || any rest
         in
         any !locked)
    in
    if races_on then races := addr :: !races;
    let blk = Memsys.Block.of_addr ~block_size addr in
    if blk <> !block_id then begin
      close_block ();
      block_id := blk
    end;
    block := (addr, !nodes, !writers) :: !block
  done;
  close_block ();
  let race_set = Iset.of_list !races and fs_set = Iset.of_list !fs in
  { race_set; fs_set; drfs = Iset.union race_set fs_set }

let race t = t.race_set
let false_shared t = t.fs_set
let drfs_set t = t.drfs
let in_race t a = Iset.mem a t.race_set
let in_false_sharing t a = Iset.mem a t.fs_set
let in_drfs t a = Iset.mem a t.drfs

let filter_drfs t set = Iset.inter set t.drfs
let filter_not_drfs t set = Iset.diff set t.drfs
let filter_fs t set = Iset.inter set t.fs_set
let filter_not_fs t set = Iset.diff set t.fs_set
