type miss_kind = Read_miss | Write_miss | Write_fault

type outcome = { latency : int; miss : miss_kind option }

(* Packed outcome: [(latency lsl 2) lor kind] with kind 0 = hit/directive,
   1 = read miss, 2 = write miss, 3 = write fault. Latencies are small
   positive cycle counts, so the shift never overflows. *)
let no_miss = 0
let read_miss = 1
let write_miss = 2
let write_fault = 3

let pack ~latency ~kind = (latency lsl 2) lor kind
let packed_latency p = p lsr 2
let packed_kind p = p land 3

let outcome_of_packed p =
  let miss =
    match p land 3 with
    | 0 -> None
    | 1 -> Some Read_miss
    | 2 -> Some Write_miss
    | _ -> Some Write_fault
  in
  { latency = p lsr 2; miss }

type t = {
  backend : Protocol_id.t;
      (* which protocol's transition rules this machine runs; the packed
         access path, snapshot/restore, shard views and digests are shared
         across backends, with the behavioural differences dispatched at
         the transition level *)
  n_nodes : int;
  blk_size : int;
  blk_shift : int;  (* log2 block_size: addresses map to blocks by shift *)
  caches : Cache.t array;
  dir : Directory.t;
  cost : Network.costs;
  stat : Stats.t;
  (* Per-block node masks, one flat table each (indexed by block). On a
     shard view these are the base's tables, read-only: the view's
     writes land in its [delta]. *)
  pf : Block_table.t;
      (* block -> nodes with an outstanding prefetch of it *)
  mutable pf_live : int;
      (* outstanding prefetches: lets the per-hit probe skip the table
         entirely in runs that never issue a prefetch *)
  past : Block_table.t;
      (* block -> nodes that once held it and lost it; the recipient set
         of a KSR-1-style post-store *)
  co : Block_table.t;
      (* SiSd only: block -> nodes holding it checked out; a checked-out
         line survives the epoch-boundary self-invalidation sweep *)
  cm : Block_table.t;
      (* Commute only: block -> nodes holding a privatized update-only
         copy of the block's accumulators; merged on any plain access
         and at every epoch boundary *)
  mutable debug_checks : bool;
      (* run [check_invariants] after every protocol transition; off by
         default so the hot path pays one predictable branch *)
  delta : delta option;
      (* [Some _] marks a shard view: [dir] is an overlay of the base's
         directory, [stat] is private, mask writes go to the delta's
         tables, and [caches] is the base's own array (a shard only ever
         touches the caches of the nodes it owns). The base must stay
         frozen while views are live; [merge_shard] folds a view back
         in. *)
}

(* A shard view's sparse writes over the base's mask tables. Reads fall
   back to the base; writes replace locally (a zero mask is stored, so it
   shadows the base's entry until merge). Pending prefetches are keyed
   [blk * n_nodes + node]; [d_pf_del] tombstones base entries the view
   consumed. *)
and delta = {
  base : t;
  d_pf : (int, unit) Hashtbl.t;
  d_pf_del : (int, unit) Hashtbl.t;
  d_past : (int, int) Hashtbl.t;
  d_co : (int, int) Hashtbl.t;
  d_cm : (int, int) Hashtbl.t;
}

exception Invariant_violation of string

(* ---- observability seams ----

   Per-transition counters in the global registry; every update is
   guarded by [Obs.enabled] so the [--obs=off] hot path pays exactly one
   predictable branch per transition and allocates nothing. *)
let obs_reads = Obs.Registry.counter "protocol.reads"
let obs_read_misses = Obs.Registry.counter "protocol.read_misses"
let obs_writes = Obs.Registry.counter "protocol.writes"
let obs_write_misses = Obs.Registry.counter "protocol.write_misses"
let obs_write_faults = Obs.Registry.counter "protocol.write_faults"
let obs_directives = Obs.Registry.counter "protocol.directives"
let obs_dir_occupancy = Obs.Registry.gauge "protocol.dir_occupancy"

let create_u ?(backend = Protocol_id.Dir1sw) ~nodes ~cache_bytes ~assoc
    ~block_size ~costs () =
  let blk_shift =
    let rec log2 n acc = if n <= 1 then acc else log2 (n lsr 1) (acc + 1) in
    log2 block_size 0
  in
  {
    backend;
    n_nodes = nodes;
    blk_size = block_size;
    blk_shift;
    caches =
      Array.init nodes (fun _ ->
          Cache.create ~size_bytes:cache_bytes ~assoc ~block_size);
    dir = Directory.create ~nodes;
    cost = costs;
    stat = Stats.create ~nodes;
    pf = Block_table.create ();
    pf_live = 0;
    past = Block_table.create ();
    co = Block_table.create ();
    cm = Block_table.create ();
    debug_checks = false;
    delta = None;
  }

let create_b ~backend ~nodes ~cache_bytes ~assoc ~block_size ~costs =
  Obs.span "protocol.create" (fun () ->
      create_u ~backend ~nodes ~cache_bytes ~assoc ~block_size ~costs ())

let create ~nodes ~cache_bytes ~assoc ~block_size ~costs =
  create_b ~backend:Protocol_id.default ~nodes ~cache_bytes ~assoc ~block_size
    ~costs

let backend t = t.backend
let nodes t = t.n_nodes
let block_size t = t.blk_size
let stats t = t.stat
let directory t = t.dir
let cache t ~node = t.caches.(node)
let costs t = t.cost
(* [Block.of_addr] without the per-call division (block sizes are
   validated powers of two at [create]) *)
let block_of_addr t addr =
  if addr < 0 then invalid_arg "Block.of_addr: negative address";
  addr lsr t.blk_shift

(* ---- per-backend invariant oracle (debug hook) ----

   Cross-checks directory state against every per-node cache after a
   transition. The invariants depend on the backend:

   Dir1SW (and Commute, whose non-privatized state is Dir1SW):
   - directory entries are structurally well formed ([Directory.validate]);
   - an [Exclusive owner] entry means the owner caches the block in the
     Exclusive state and no other node caches it at all (single writer);
   - every cached copy of a [Shared] block is in the Shared state and is
     listed in the sharer mask (stale *extra* sharers are legal — Shared
     replacement is silent — but a cached-yet-unlisted sharer is not);
   - a cached Exclusive line is always the directory's registered owner,
     and a cached Shared line is always a registered sharer (no cached
     copy of an Idle block).

   SiSd tracks no sharers at all and only remembers the last writer:
   - directory entries are [Idle] or [Exclusive]; a [Shared] entry means
     a Dir1SW transition leaked in;
   - an [Exclusive owner] entry means the owner still caches the block
     in the Exclusive state (stale copies at *other* nodes are legal —
     that is the protocol's whole premise — and so are Exclusive lines
     whose ownership was since taken by a later writer).

   Commute additionally requires every privatized-copy mask to name real
   nodes; SiSd requires the same of the checked-out masks.

   All backends share the pending-prefetch consistency checks: the live
   counter matches the table, masks name only real nodes, and every
   pending transaction still has its line resident — a pending entry
   whose line is gone is a stuck transition that [forget_prefetch]
   should have cleared. The mask checks read the base's tables (a shard
   view's own writes are audited after [merge_shard]). *)
let check_invariants t =
  let err = ref None in
  let fail fmt = Printf.ksprintf (fun s -> if !err = None then err := Some s) fmt in
  (match Directory.validate t.dir with
  | Some (blk, reason) -> fail "directory entry for block %d: %s" blk reason
  | None -> ());
  (match t.backend with
  | Protocol_id.Dir1sw | Protocol_id.Commute ->
      List.iter
        (fun (blk, st) ->
          match st with
          | Directory.Idle -> ()
          | Directory.Exclusive owner ->
              (match Cache.find t.caches.(owner) blk with
              | Some l when l.Cache.state = Cache.Exclusive -> ()
              | Some _ ->
                  fail "block %d: directory owner %d holds a non-exclusive copy"
                    blk owner
              | None ->
                  fail "block %d: directory owner %d holds no copy" blk owner);
              for node = 0 to t.n_nodes - 1 do
                if node <> owner && Cache.find t.caches.(node) blk <> None then
                  fail "block %d: exclusive at %d but also cached at %d" blk
                    owner node
              done
          | Directory.Shared mask ->
              for node = 0 to t.n_nodes - 1 do
                match Cache.find t.caches.(node) blk with
                | None -> ()
                | Some l ->
                    if l.Cache.state <> Cache.Shared then
                      fail
                        "block %d: cached exclusive at %d under a Shared entry"
                        blk node
                    else if mask land (1 lsl node) = 0 then
                      fail "block %d: node %d caches a copy but is not a sharer"
                        blk node
              done)
        (Directory.entries t.dir);
      for node = 0 to t.n_nodes - 1 do
        Cache.iter t.caches.(node) (fun l ->
            let blk = l.Cache.block in
            match (l.Cache.state, Directory.get t.dir blk) with
            | Cache.Exclusive, Directory.Exclusive owner when owner = node -> ()
            | Cache.Exclusive, _ ->
                fail "block %d: node %d caches exclusive without directory \
                      ownership" blk node
            | Cache.Shared, Directory.Shared mask
              when mask land (1 lsl node) <> 0 ->
                ()
            | Cache.Shared, _ ->
                fail "block %d: node %d caches a shared copy the directory \
                      does not list" blk node)
      done
  | Protocol_id.Sisd ->
      List.iter
        (fun (blk, st) ->
          match st with
          | Directory.Idle -> ()
          | Directory.Shared _ ->
              fail "block %d: SiSd directory must not track sharers" blk
          | Directory.Exclusive owner -> (
              match Cache.find t.caches.(owner) blk with
              | Some l when l.Cache.state = Cache.Exclusive -> ()
              | Some _ ->
                  fail "block %d: SiSd last writer %d holds a non-exclusive \
                        copy" blk owner
              | None -> fail "block %d: SiSd last writer %d holds no copy" blk
                          owner))
        (Directory.entries t.dir));
  let mask_check what tbl =
    let node_mask = (1 lsl t.n_nodes) - 1 in
    Block_table.iter tbl (fun blk mask ->
        if mask land lnot node_mask <> 0 then
          fail "block %d: %s mask %#x names nodes out of range" blk what mask)
  in
  mask_check "checked-out" t.co;
  mask_check "privatized-copy" t.cm;
  mask_check "pending-prefetch" t.pf;
  let pending = ref 0 in
  Block_table.iter t.pf (fun blk mask ->
      for node = 0 to t.n_nodes - 1 do
        if mask land (1 lsl node) <> 0 then begin
          incr pending;
          if Cache.probe t.caches.(node) blk < 0 then
            fail
              "stuck pending prefetch: block %d no longer resident at node %d"
              blk node
        end
      done);
  if t.delta = None && !pending <> t.pf_live then
    fail "pending-prefetch counter %d disagrees with table size %d" t.pf_live
      !pending;
  !err

let set_debug_checks t on = t.debug_checks <- on
let debug_checks t = t.debug_checks

(* Every public transition funnels its result through [guard]. *)
let guard t v =
  if t.debug_checks then begin
    match check_invariants t with
    | None -> ()
    | Some msg -> raise (Invariant_violation msg)
  end;
  v

(* ---- per-block masks ----
   On a base protocol ([delta = None]) each lookup is one read of a flat
   table. On a shard view the pending-prefetch set is (base minus
   [d_pf_del]) plus [d_pf], and a block's other masks are the view's own
   if written, else the base's. *)

(* A view's own write of a block's mask, else the base's. *)
let view_find dtbl tbl blk =
  match Hashtbl.find_opt dtbl blk with
  | Some mask -> mask
  | None -> Block_table.get tbl blk

let ps_find t blk =
  match t.delta with
  | None -> Block_table.get t.past blk
  | Some d -> view_find d.d_past t.past blk

let co_find t blk =
  match t.delta with
  | None -> Block_table.get t.co blk
  | Some d -> view_find d.d_co t.co blk

let cm_find t blk =
  match t.delta with
  | None -> Block_table.get t.cm blk
  | Some d -> view_find d.d_cm t.cm blk

let co_set t blk mask =
  match t.delta with
  | None -> Block_table.set t.co blk mask
  | Some d -> Hashtbl.replace d.d_co blk mask

let cm_set t blk mask =
  match t.delta with
  | None -> Block_table.set t.cm blk mask
  | Some d -> Hashtbl.replace d.d_cm blk mask

(* OR [mask] into [blk]'s past holders. *)
let note_past_mask t blk mask =
  let mask = ps_find t blk lor mask in
  match t.delta with
  | None -> Block_table.set t.past blk mask
  | Some d -> Hashtbl.replace d.d_past blk mask

let note_past_sharer t ~node ~blk = note_past_mask t blk (1 lsl node)

let pf_key t ~node ~blk = (blk * t.n_nodes) + node
let pf_base t ~node ~blk = Block_table.get t.pf blk land (1 lsl node) <> 0

let pf_mem t ~node ~blk =
  match t.delta with
  | None -> pf_base t ~node ~blk
  | Some d ->
      let key = pf_key t ~node ~blk in
      Hashtbl.mem d.d_pf key
      || (pf_base t ~node ~blk && not (Hashtbl.mem d.d_pf_del key))

(* Remove [node]'s pending prefetch of [blk]; true if there was one. *)
let pf_remove t ~node ~blk =
  match t.delta with
  | None ->
      let mask = Block_table.get t.pf blk and bit = 1 lsl node in
      mask land bit <> 0
      && begin
           Block_table.set t.pf blk (mask land lnot bit);
           true
         end
  | Some d ->
      let key = pf_key t ~node ~blk in
      if Hashtbl.mem d.d_pf key then begin
        Hashtbl.remove d.d_pf key;
        true
      end
      else if pf_base t ~node ~blk && not (Hashtbl.mem d.d_pf_del key)
      then begin
        Hashtbl.add d.d_pf_del key ();
        true
      end
      else false

let pf_add t ~node ~blk =
  if not (pf_mem t ~node ~blk) then begin
    (match t.delta with
    | None ->
        Block_table.set t.pf blk (Block_table.get t.pf blk lor (1 lsl node))
    | Some d -> Hashtbl.replace d.d_pf (pf_key t ~node ~blk) ());
    t.pf_live <- t.pf_live + 1
  end

let forget_prefetch t ~node ~blk =
  if t.pf_live > 0 && pf_remove t ~node ~blk then t.pf_live <- t.pf_live - 1

(* Account a prefetched block that is touched for the first time. *)
let note_prefetch_hit t ~node ~blk =
  if t.pf_live > 0 && pf_remove t ~node ~blk then begin
    t.pf_live <- t.pf_live - 1;
    t.stat.useful_prefetches <- t.stat.useful_prefetches + 1
  end

(* Install a block in [node]'s cache, handling the victim's protocol
   actions. A Shared victim is dropped silently (stale directory entry); an
   Exclusive victim releases the directory and writes back if dirty. *)
let install t ~node ~blk ~state ~dirty ~ready_at =
  match Cache.insert t.caches.(node) ~block:blk ~state ~dirty ~ready_at with
  | None -> ()
  | Some (victim, vstate, vdirty) ->
      t.stat.evictions <- t.stat.evictions + 1;
      forget_prefetch t ~node ~blk:victim;
      note_past_sharer t ~node ~blk:victim;
      (match t.backend with
      | Protocol_id.Sisd ->
          (* Capacity eviction breaks an outstanding check-out. *)
          let m = co_find t victim in
          if m land (1 lsl node) <> 0 then
            co_set t victim (m land lnot (1 lsl node))
      | _ -> ());
      (match vstate with
      | Cache.Exclusive ->
          if vdirty then begin
            t.stat.writebacks <- t.stat.writebacks + 1;
            t.stat.messages <- t.stat.messages + 1
          end;
          (match t.backend with
          | Protocol_id.Sisd -> (
              (* Stale Exclusive copies are legal under SiSd: only the
                 registered last writer releases the entry. *)
              match Directory.get t.dir victim with
              | Directory.Exclusive owner when owner = node ->
                  Directory.set t.dir victim Directory.Idle
              | _ -> ())
          | _ -> Directory.set t.dir victim Directory.Idle)
      | Cache.Shared -> ())

(* Remove [blk] from every cache in [mask] except [node]; returns the
   number of invalidation messages sent (one per directory sharer, stale or
   not, since Dir1SW software trusts its sharer list). *)
let invalidate_sharers t ~blk ~except:node mask =
  let count = ref 0 in
  for victim = 0 to t.n_nodes - 1 do
    if victim <> node && mask land (1 lsl victim) <> 0 then begin
      incr count;
      forget_prefetch t ~node:victim ~blk;
      match Cache.remove t.caches.(victim) blk with
      | Some _ -> note_past_sharer t ~node:victim ~blk
      | None -> ()
    end
  done;
  t.stat.invalidations <- t.stat.invalidations + !count;
  t.stat.messages <- t.stat.messages + (2 * !count);
  !count

(* Take the block away from its exclusive [owner] (3-hop transaction);
   returns true if a dirty copy was written back. *)
let recall_exclusive t ~blk ~owner ~downgrade_to_shared =
  forget_prefetch t ~node:owner ~blk;
  let dirty =
    let c = t.caches.(owner) in
    let i = Cache.probe c blk in
    if i < 0 then false
    else begin
      let d = Cache.dirty c i in
      if downgrade_to_shared then Cache.downgrade c i
      else begin
        ignore (Cache.remove c blk);
        note_past_sharer t ~node:owner ~blk
      end;
      d
    end
  in
  if dirty then t.stat.writebacks <- t.stat.writebacks + 1;
  t.stat.messages <- t.stat.messages + 3;
  dirty

(* Fetch a shared copy of [blk] into [node]'s cache; returns latency. *)
let fetch_shared t ~node ~blk ~now =
  match Directory.get t.dir blk with
  | Directory.Idle ->
      Directory.set t.dir blk (Directory.Shared (1 lsl node));
      t.stat.messages <- t.stat.messages + 2;
      install t ~node ~blk ~state:Cache.Shared ~dirty:false ~ready_at:now;
      t.cost.Network.miss_2hop
  | Directory.Shared mask ->
      Directory.set t.dir blk (Directory.Shared (mask lor (1 lsl node)));
      t.stat.messages <- t.stat.messages + 2;
      install t ~node ~blk ~state:Cache.Shared ~dirty:false ~ready_at:now;
      t.cost.Network.miss_2hop
  | Directory.Exclusive owner when owner = node ->
      (* Cannot normally happen: exclusive lines are never dropped
         silently. Repair defensively. *)
      Directory.set t.dir blk (Directory.Shared (1 lsl node));
      install t ~node ~blk ~state:Cache.Shared ~dirty:false ~ready_at:now;
      t.cost.Network.miss_2hop
  | Directory.Exclusive owner ->
      ignore (recall_exclusive t ~blk ~owner ~downgrade_to_shared:true);
      Directory.set t.dir blk
        (Directory.Shared ((1 lsl owner) lor (1 lsl node)));
      install t ~node ~blk ~state:Cache.Shared ~dirty:false ~ready_at:now;
      t.cost.Network.miss_3hop

(* Fetch an exclusive copy of [blk] into [node]'s cache; returns latency.
   [dirty] marks the line modified immediately (write-miss path). *)
let fetch_exclusive t ~node ~blk ~now ~dirty =
  match Directory.get t.dir blk with
  | Directory.Idle ->
      Directory.set t.dir blk (Directory.Exclusive node);
      t.stat.messages <- t.stat.messages + 2;
      install t ~node ~blk ~state:Cache.Exclusive ~dirty ~ready_at:now;
      t.cost.Network.miss_2hop
  | Directory.Shared mask ->
      (* Invalidate every listed sharer: in hardware when the directory
         can name them all, through the software trap otherwise. *)
      let n_others =
        Directory.popcount (mask land lnot (1 lsl node))
      in
      let in_hw = n_others <= t.cost.Network.dir_hw_sharers in
      if not in_hw then t.stat.sw_traps <- t.stat.sw_traps + 1;
      let n_inval = invalidate_sharers t ~blk ~except:node mask in
      Directory.set t.dir blk (Directory.Exclusive node);
      install t ~node ~blk ~state:Cache.Exclusive ~dirty ~ready_at:now;
      if in_hw then
        t.cost.Network.miss_2hop + (n_inval * t.cost.Network.inval_per_sharer)
      else t.cost.Network.sw_trap + (n_inval * t.cost.Network.inval_per_sharer)
  | Directory.Exclusive owner when owner = node ->
      Directory.set t.dir blk (Directory.Exclusive node);
      install t ~node ~blk ~state:Cache.Exclusive ~dirty ~ready_at:now;
      t.cost.Network.miss_2hop
  | Directory.Exclusive owner ->
      ignore (recall_exclusive t ~blk ~owner ~downgrade_to_shared:false);
      Directory.set t.dir blk (Directory.Exclusive node);
      install t ~node ~blk ~state:Cache.Exclusive ~dirty ~ready_at:now;
      t.cost.Network.miss_3hop

(* Shared upgrade of a resident line (write fault / eager check-out):
   invalidate the other sharers and claim the directory entry. *)
let upgrade_resident t ~node ~blk =
  match Directory.get t.dir blk with
  | Directory.Shared mask ->
      let others = mask land lnot (1 lsl node) in
      if others = 0 then begin
        Directory.set t.dir blk (Directory.Exclusive node);
        t.stat.messages <- t.stat.messages + 2;
        t.cost.Network.upgrade
      end
      else begin
        let in_hw =
          Directory.popcount others <= t.cost.Network.dir_hw_sharers
        in
        if not in_hw then t.stat.sw_traps <- t.stat.sw_traps + 1;
        let n_inval = invalidate_sharers t ~blk ~except:node others in
        Directory.set t.dir blk (Directory.Exclusive node);
        (if in_hw then t.cost.Network.upgrade
         else t.cost.Network.sw_trap)
        + (n_inval * t.cost.Network.inval_per_sharer)
      end
  | Directory.Idle | Directory.Exclusive _ ->
      (* Defensive: directory lost track of us; redo as exclusive
         fetch. *)
      Directory.set t.dir blk (Directory.Exclusive node);
      t.stat.messages <- t.stat.messages + 2;
      t.cost.Network.upgrade

(* ---- SiSd transitions ----

   Self-invalidation / self-downgrade keeps no sharer list and sends no
   invalidations or recalls: every miss is a flat 2-hop fetch from the
   home node, reads are allowed to return stale data until the next
   epoch boundary, and the directory entry only remembers the last
   writer (so writebacks have somewhere to release). The coherence work
   Dir1SW does eagerly happens lazily instead: check-ins become local
   self-downgrades, and {!epoch_boundary} self-invalidates every line
   not currently checked out. *)

let sisd_fetch_shared t ~node ~blk ~now =
  t.stat.messages <- t.stat.messages + 2;
  install t ~node ~blk ~state:Cache.Shared ~dirty:false ~ready_at:now;
  t.cost.Network.miss_2hop

let sisd_fetch_exclusive t ~node ~blk ~now ~dirty =
  t.stat.messages <- t.stat.messages + 2;
  install t ~node ~blk ~state:Cache.Exclusive ~dirty ~ready_at:now;
  Directory.set t.dir blk (Directory.Exclusive node);
  t.cost.Network.miss_2hop

(* Write back and downgrade [node]'s copy in place; the self-downgrade
   both check-in and post-store reduce to under SiSd. *)
let sisd_self_downgrade t ~node ~blk =
  let c = t.caches.(node) in
  let i = Cache.probe c blk in
  if i >= 0 then begin
    if Cache.exclusive c i then begin
      if Cache.dirty c i then begin
        t.stat.writebacks <- t.stat.writebacks + 1;
        t.stat.messages <- t.stat.messages + 1
      end;
      Cache.downgrade c i;
      match Directory.get t.dir blk with
      | Directory.Exclusive owner when owner = node ->
          Directory.set t.dir blk Directory.Idle
      | _ -> ()
    end
  end

(* Backend-dispatching fetch paths (miss handling only; hits never reach
   these). Commute's non-privatized traffic is exactly Dir1SW. *)
let fetch_shared_b t ~node ~blk ~now =
  match t.backend with
  | Protocol_id.Sisd -> sisd_fetch_shared t ~node ~blk ~now
  | _ -> fetch_shared t ~node ~blk ~now

let fetch_exclusive_b t ~node ~blk ~now ~dirty =
  match t.backend with
  | Protocol_id.Sisd -> sisd_fetch_exclusive t ~node ~blk ~now ~dirty
  | _ -> fetch_exclusive t ~node ~blk ~now ~dirty

(* ---- Commute privatization ----

   Classifier-proven RMW accumulations take an update-only privatized
   copy per node (one permission-grant message, no data movement) and
   accumulate locally; a plain access to the block — or the epoch
   boundary — forces every holder to merge its accumulator back (one
   writeback plus a request/reply pair per holder). Merge costs are
   charged to the statistics only: the merge rides the barrier (or the
   plain access's own miss), not the simulated critical path, which
   keeps replayed latencies independent of merge order. *)

let commute_merge t blk mask =
  let count = Directory.popcount mask in
  t.stat.writebacks <- t.stat.writebacks + count;
  t.stat.messages <- t.stat.messages + (2 * count);
  cm_set t blk 0

(* Merge-before-plain-access seam: every non-RMW entry point runs this
   first. One predictable branch for the other backends. *)
let commute_plain t blk =
  match t.backend with
  | Protocol_id.Commute ->
      let mask = cm_find t blk in
      if mask <> 0 then commute_merge t blk mask
  | _ -> ()

let commute_rmw_read t ~node ~addr ~now:_ =
  let blk = block_of_addr t addr in
  t.stat.shared_reads <- t.stat.shared_reads + 1;
  t.stat.read_hits <- t.stat.read_hits + 1;
  let mask = cm_find t blk in
  let bit = 1 lsl node in
  if mask land bit = 0 then begin
    (* First accumulation since the last merge: privatize. *)
    t.stat.messages <- t.stat.messages + 1;
    cm_set t blk (mask lor bit)
  end;
  pack ~latency:t.cost.Network.cache_hit ~kind:no_miss

let commute_rmw_write t ~node ~addr ~now:_ =
  let blk = block_of_addr t addr in
  t.stat.shared_writes <- t.stat.shared_writes + 1;
  t.stat.write_hits <- t.stat.write_hits + 1;
  let mask = cm_find t blk in
  let bit = 1 lsl node in
  if mask land bit = 0 then begin
    (* Defensive: a lone rmw-write (the paired read privatizes first on
       every engine path) still takes the privatized copy. *)
    t.stat.messages <- t.stat.messages + 1;
    cm_set t blk (mask lor bit)
  end;
  pack ~latency:t.cost.Network.cache_hit ~kind:no_miss

(* ---- the hot path: packed-int entry points ----
   Cache hits run option-free (index probe, in-place LRU touch) and skip
   all directory bookkeeping; only the returned int is constructed. *)

let read_p_u t ~node ~addr ~now =
  let blk = block_of_addr t addr in
  commute_plain t blk;
  t.stat.shared_reads <- t.stat.shared_reads + 1;
  let c = t.caches.(node) in
  let i = Cache.probe c blk in
  if i >= 0 then begin
    note_prefetch_hit t ~node ~blk;
    t.stat.read_hits <- t.stat.read_hits + 1;
    pack ~latency:(t.cost.Network.cache_hit + Cache.hit c i ~now) ~kind:no_miss
  end
  else begin
    t.stat.read_misses <- t.stat.read_misses + 1;
    let latency = fetch_shared_b t ~node ~blk ~now in
    pack ~latency ~kind:read_miss
  end

let write_p_u t ~node ~addr ~now =
  let blk = block_of_addr t addr in
  commute_plain t blk;
  t.stat.shared_writes <- t.stat.shared_writes + 1;
  let c = t.caches.(node) in
  let i = Cache.probe c blk in
  if i >= 0 then begin
    if Cache.exclusive c i then begin
      note_prefetch_hit t ~node ~blk;
      t.stat.write_hits <- t.stat.write_hits + 1;
      pack ~latency:(t.cost.Network.cache_hit + Cache.write_hit c i ~now)
        ~kind:no_miss
    end
    else begin
      match t.backend with
      | Protocol_id.Sisd ->
          (* SiSd has no write faults: a store to a Shared copy writes
             locally with no permission traffic; the directory just
             remembers the new last writer. *)
          note_prefetch_hit t ~node ~blk;
          Directory.set t.dir blk (Directory.Exclusive node);
          t.stat.write_hits <- t.stat.write_hits + 1;
          pack ~latency:(t.cost.Network.cache_hit + Cache.write_hit c i ~now)
            ~kind:no_miss
      | _ ->
          (* Write fault: upgrade the Shared copy. The upgrade only
             reaches other nodes' caches, so way [i] stays put. *)
          note_prefetch_hit t ~node ~blk;
          t.stat.write_faults <- t.stat.write_faults + 1;
          let latency = upgrade_resident t ~node ~blk in
          pack ~latency:(latency + Cache.write_hit c i ~now) ~kind:write_fault
    end
  end
  else begin
    t.stat.write_misses <- t.stat.write_misses + 1;
    let latency = fetch_exclusive_b t ~node ~blk ~now ~dirty:true in
    pack ~latency ~kind:write_miss
  end

let read_p t ~node ~addr ~now =
  let p = guard t (read_p_u t ~node ~addr ~now) in
  if Obs.enabled () then begin
    Obs.Counter.incr obs_reads;
    if packed_kind p <> no_miss then Obs.Counter.incr obs_read_misses
  end;
  p

let write_p t ~node ~addr ~now =
  let p = guard t (write_p_u t ~node ~addr ~now) in
  if Obs.enabled () then begin
    Obs.Counter.incr obs_writes;
    let k = packed_kind p in
    if k = write_miss then Obs.Counter.incr obs_write_misses
    else if k = write_fault then Obs.Counter.incr obs_write_faults
  end;
  p

(* RMW halves of a classifier-recognized commutative accumulation
   (A[i] = A[i] + e). Everywhere except the Commute backend these are
   the plain load and store — bit-identical costs, counters and trace
   kinds — so engines can route recognized accumulations through them
   unconditionally. Under Commute they privatize instead of fetching. *)

let read_rmw_p_u t ~node ~addr ~now =
  match t.backend with
  | Protocol_id.Commute -> commute_rmw_read t ~node ~addr ~now
  | _ -> read_p_u t ~node ~addr ~now

let write_rmw_p_u t ~node ~addr ~now =
  match t.backend with
  | Protocol_id.Commute -> commute_rmw_write t ~node ~addr ~now
  | _ -> write_p_u t ~node ~addr ~now

let read_rmw_p t ~node ~addr ~now =
  let p = guard t (read_rmw_p_u t ~node ~addr ~now) in
  if Obs.enabled () then begin
    Obs.Counter.incr obs_reads;
    if packed_kind p <> no_miss then Obs.Counter.incr obs_read_misses
  end;
  p

let write_rmw_p t ~node ~addr ~now =
  let p = guard t (write_rmw_p_u t ~node ~addr ~now) in
  if Obs.enabled () then begin
    Obs.Counter.incr obs_writes;
    let k = packed_kind p in
    if k = write_miss then Obs.Counter.incr obs_write_misses
    else if k = write_fault then Obs.Counter.incr obs_write_faults
  end;
  p

(* ---- CICO directives: latency-returning entry points (never misses) *)

(* SiSd: a check-out pins the line across epoch boundaries (it is the
   programmer's declaration of intended use, so the self-invalidation
   sweep must not drop it). *)
let sisd_note_checkout t ~node ~blk =
  if t.backend = Protocol_id.Sisd then
    co_set t blk (co_find t blk lor (1 lsl node))

let check_out_x_lat_u t ~node ~addr ~now =
  let blk = block_of_addr t addr in
  commute_plain t blk;
  t.stat.check_outs_x <- t.stat.check_outs_x + 1;
  sisd_note_checkout t ~node ~blk;
  let overhead = t.cost.Network.check_out_overhead in
  let c = t.caches.(node) in
  let i = Cache.probe c blk in
  if i >= 0 then begin
    if Cache.exclusive c i then begin
      Cache.touch_idx c i;
      overhead
    end
    else begin
      match t.backend with
      | Protocol_id.Sisd ->
          (* Local upgrade: SiSd asks nobody's permission to write. *)
          Cache.touch_idx c i;
          Cache.upgrade c i;
          Directory.set t.dir blk (Directory.Exclusive node);
          overhead
      | _ ->
          (* Upgrade now, before the read, avoiding the later write
             fault. *)
          Cache.touch_idx c i;
          let latency = upgrade_resident t ~node ~blk in
          Cache.upgrade c i;
          overhead + latency
    end
  end
  else begin
    let latency = fetch_exclusive_b t ~node ~blk ~now ~dirty:false in
    overhead + latency
  end

let check_out_x_lat t ~node ~addr ~now =
  if Obs.enabled () then Obs.Counter.incr obs_directives;
  guard t (check_out_x_lat_u t ~node ~addr ~now)

let check_out_s_lat_u t ~node ~addr ~now =
  let blk = block_of_addr t addr in
  commute_plain t blk;
  t.stat.check_outs_s <- t.stat.check_outs_s + 1;
  sisd_note_checkout t ~node ~blk;
  let overhead = t.cost.Network.check_out_overhead in
  let c = t.caches.(node) in
  let i = Cache.probe c blk in
  if i >= 0 then begin
    Cache.touch_idx c i;
    overhead
  end
  else begin
    let latency = fetch_shared_b t ~node ~blk ~now in
    overhead + latency
  end

let check_out_s_lat t ~node ~addr ~now =
  if Obs.enabled () then Obs.Counter.incr obs_directives;
  guard t (check_out_s_lat_u t ~node ~addr ~now)

let check_in_lat_u t ~node ~addr ~now:_ =
  let blk = block_of_addr t addr in
  commute_plain t blk;
  t.stat.check_ins <- t.stat.check_ins + 1;
  (match t.backend with
  | Protocol_id.Sisd ->
      (* Check-in is a self-downgrade: write the data back but keep a
         readable Shared copy (releasing the checked-out pin, so the
         next epoch boundary may self-invalidate it). *)
      let m = co_find t blk in
      if m land (1 lsl node) <> 0 then co_set t blk (m land lnot (1 lsl node));
      let c = t.caches.(node) in
      let i = Cache.probe c blk in
      if i >= 0 && Cache.exclusive c i then
        t.stat.check_in_flushes <- t.stat.check_in_flushes + 1;
      sisd_self_downgrade t ~node ~blk
  | _ -> (
      match Cache.remove t.caches.(node) blk with
      | None -> ()
      | Some (state, dirty) ->
          t.stat.check_in_flushes <- t.stat.check_in_flushes + 1;
          forget_prefetch t ~node ~blk;
          t.stat.messages <- t.stat.messages + 1;
          (match state with
          | Cache.Exclusive ->
              if dirty then t.stat.writebacks <- t.stat.writebacks + 1;
              Directory.set t.dir blk Directory.Idle
          | Cache.Shared -> Directory.remove_sharer t.dir blk ~node)));
  t.cost.Network.check_in_cost

let check_in_lat t ~node ~addr ~now =
  if Obs.enabled () then Obs.Counter.incr obs_directives;
  guard t (check_in_lat_u t ~node ~addr ~now)

let prefetch_lat_u ~exclusive t ~node ~addr ~now =
  let blk = block_of_addr t addr in
  commute_plain t blk;
  t.stat.prefetches <- t.stat.prefetches + 1;
  let c = t.caches.(node) in
  let i = Cache.probe c blk in
  let wanted =
    i >= 0 && ((not exclusive) || Cache.exclusive c i)
  in
  if wanted then t.cost.Network.prefetch_issue
  else begin
    (* Run the transaction now but charge only the issue cost; the
       transfer latency is hidden behind [ready_at]. *)
    let fetch_latency =
      if exclusive then fetch_exclusive_b t ~node ~blk ~now ~dirty:false
      else fetch_shared_b t ~node ~blk ~now
    in
    let i = Cache.probe c blk in
    if i >= 0 then Cache.set_ready_at c i (now + fetch_latency);
    pf_add t ~node ~blk;
    t.cost.Network.prefetch_issue
  end

let prefetch_lat ~exclusive t ~node ~addr ~now =
  if Obs.enabled () then Obs.Counter.incr obs_directives;
  guard t (prefetch_lat_u ~exclusive t ~node ~addr ~now)

let prefetch_x_lat t = prefetch_lat ~exclusive:true t
let prefetch_s_lat t = prefetch_lat ~exclusive:false t

let post_store_lat_u t ~node ~addr ~now =
  let blk = block_of_addr t addr in
  commute_plain t blk;
  t.stat.post_stores <- t.stat.post_stores + 1;
  match t.backend with
  | Protocol_id.Sisd ->
      (* No broadcast machinery under SiSd: a post-store degenerates to
         the same self-downgrade a check-in performs. *)
      sisd_self_downgrade t ~node ~blk;
      t.cost.Network.check_in_cost
  | _ ->
  let c = t.caches.(node) in
  let i = Cache.probe c blk in
  (if i >= 0 && Cache.exclusive c i then begin
       (* write the data back and downgrade to a shared copy *)
       if Cache.dirty c i then begin
         t.stat.writebacks <- t.stat.writebacks + 1;
         t.stat.messages <- t.stat.messages + 1
       end;
       Cache.downgrade c i;
       let mask = ref (1 lsl node) in
       (* broadcast read-only copies to every past holder *)
       let past = ps_find t blk in
       for recipient = 0 to t.n_nodes - 1 do
         if recipient <> node && past land (1 lsl recipient) <> 0 then begin
           t.stat.messages <- t.stat.messages + 1;
           install t ~node:recipient ~blk ~state:Cache.Shared ~dirty:false
             ~ready_at:(now + t.cost.Network.miss_2hop);
           mask := !mask lor (1 lsl recipient)
         end
       done;
       Directory.set t.dir blk (Directory.Shared !mask)
     end);
  t.cost.Network.check_in_cost

let post_store_lat t ~node ~addr ~now =
  if Obs.enabled () then Obs.Counter.incr obs_directives;
  guard t (post_store_lat_u t ~node ~addr ~now)

(* ---- allocating wrappers, kept for existing callers and tests ---- *)

let read t ~node ~addr ~now = outcome_of_packed (read_p t ~node ~addr ~now)
let write t ~node ~addr ~now = outcome_of_packed (write_p t ~node ~addr ~now)

let check_out_x t ~node ~addr ~now =
  { latency = check_out_x_lat t ~node ~addr ~now; miss = None }

let check_out_s t ~node ~addr ~now =
  { latency = check_out_s_lat t ~node ~addr ~now; miss = None }

let check_in t ~node ~addr ~now =
  { latency = check_in_lat t ~node ~addr ~now; miss = None }

let prefetch_x t ~node ~addr ~now =
  { latency = prefetch_x_lat t ~node ~addr ~now; miss = None }

let prefetch_s t ~node ~addr ~now =
  { latency = prefetch_s_lat t ~node ~addr ~now; miss = None }

let post_store t ~node ~addr ~now =
  { latency = post_store_lat t ~node ~addr ~now; miss = None }

let flush_node t ~node =
  let flushed = Cache.flush_all t.caches.(node) in
  List.iter
    (fun (blk, state, dirty) ->
      forget_prefetch t ~node ~blk;
      match state with
      | Cache.Exclusive ->
          if dirty then t.stat.writebacks <- t.stat.writebacks + 1;
          (match t.backend with
          | Protocol_id.Sisd -> (
              match Directory.get t.dir blk with
              | Directory.Exclusive owner when owner = node ->
                  Directory.set t.dir blk Directory.Idle
              | _ -> ())
          | _ -> Directory.set t.dir blk Directory.Idle)
      | Cache.Shared ->
          (* SiSd never registered the sharer, so there is nothing to
             remove (and the entry may track an unrelated last writer). *)
          if t.backend <> Protocol_id.Sisd then
            Directory.remove_sharer t.dir blk ~node)
    flushed;
  guard t ()

(* ---- epoch boundary (barrier-synchronized protocol work) ----

   Dir1SW does all its coherence work eagerly, so its epoch boundary is
   a no-op. SiSd self-invalidates every line not pinned by an
   outstanding check-out (writing dirty data back first); Commute merges
   every surviving privatized accumulator. Both are charged to the
   statistics only — the work rides the barrier, whose cost the
   scheduler already models. Engines call this on the base protocol
   while releasing a barrier, before any trace-mode flush. *)
let epoch_boundary t =
  if t.delta <> None then invalid_arg "Protocol.epoch_boundary: shard view";
  (match t.backend with
  | Protocol_id.Dir1sw -> ()
  | Protocol_id.Commute -> Block_table.iter t.cm (commute_merge t)
  | Protocol_id.Sisd ->
      (* Each victim's effects touch only its own block, so the sweep
         order does not matter. *)
      for node = 0 to t.n_nodes - 1 do
        let c = t.caches.(node) in
        Cache.iter_blocks c (fun blk ->
            if co_find t blk land (1 lsl node) = 0 then
              match Cache.remove c blk with
              | None -> ()
              | Some (state, dirty) -> (
                  forget_prefetch t ~node ~blk;
                  t.stat.invalidations <- t.stat.invalidations + 1;
                  match state with
                  | Cache.Exclusive -> (
                      if dirty then begin
                        t.stat.writebacks <- t.stat.writebacks + 1;
                        t.stat.messages <- t.stat.messages + 1
                      end;
                      match Directory.get t.dir blk with
                      | Directory.Exclusive owner when owner = node ->
                          Directory.set t.dir blk Directory.Idle
                      | _ -> ())
                  | Cache.Shared -> ()))
      done);
  guard t ()

let sample_occupancy t =
  if Obs.enabled () then
    Obs.Gauge.set obs_dir_occupancy (List.length (Directory.entries t.dir))

let reset t =
  for node = 0 to t.n_nodes - 1 do
    ignore (Cache.flush_all t.caches.(node))
  done;
  List.iter (fun (blk, _) -> Directory.set t.dir blk Directory.Idle)
    (Directory.entries t.dir);
  List.iter Block_table.clear [ t.pf; t.past; t.co; t.cm ];
  t.pf_live <- 0;
  Stats.reset t.stat

(* ---- shard views (parallel epoch replay) ----

   A view shares the base's cache array (the shard partition guarantees a
   shard only drives transitions whose cache effects land on its own
   nodes' caches) but gets an overlay directory, private counters, and
   private pf/past-sharer deltas. Invariant checking is forced off on
   views: [check_invariants] reads global state and the engine falls back
   to serial replay whenever [debug_checks] is set on the base. *)

(* Nodes a replayed transition on [blk] might reach: every cached copy
   (the directory lists all residents — Dir1SW's stale-extra-sharers are
   a superset, which is safe here) plus every past holder (the recipient
   set of a post-store, and the only nodes an install can broadcast to).
   Eviction side-effects stay inside this mask too: a victim block's
   directory entry names its holder, so any shard touching the victim is
   coupled to the evictor. *)
let couple_mask t blk =
  let d =
    match Directory.get t.dir blk with
    | Directory.Idle -> 0
    | Directory.Shared mask -> mask
    | Directory.Exclusive owner -> 1 lsl owner
  in
  (* Check-out pins (SiSd) and privatized accumulators (Commute) are
     shared per-block masks merged by replacement: couple every holder so
     the planner serializes any cross-shard contention on them. *)
  d lor ps_find t blk lor co_find t blk lor cm_find t blk

let shard_view t =
  if t.delta <> None then invalid_arg "Protocol.shard_view: already a view";
  {
    t with
    dir = Directory.overlay t.dir;
    stat = Stats.create ~nodes:t.n_nodes;
    debug_checks = false;
    delta =
      Some
        {
          base = t;
          d_pf = Hashtbl.create 16;
          d_pf_del = Hashtbl.create 16;
          d_past = Hashtbl.create 16;
          d_co = Hashtbl.create 16;
          d_cm = Hashtbl.create 16;
        };
  }

let merge_shard base view =
  let d =
    match view.delta with
    | Some d when d.base == base -> d
    | _ -> invalid_arg "Protocol.merge_shard: not a view of this protocol"
  in
  Directory.commit view.dir;
  Stats.add base.stat view.stat;
  Hashtbl.iter (fun blk mask -> note_past_mask base blk mask) d.d_past;
  let node_blk key = (key mod base.n_nodes, key / base.n_nodes) in
  Hashtbl.iter
    (fun key () ->
      let node, blk = node_blk key in
      if pf_remove base ~node ~blk then base.pf_live <- base.pf_live - 1)
    d.d_pf_del;
  Hashtbl.iter
    (fun key () ->
      let node, blk = node_blk key in
      pf_add base ~node ~blk)
    d.d_pf;
  (* co/cm masks merge by replacement: the planner coupled every holder
     (see [couple_mask]), so at most one shard rewrote a given block's
     mask. A zero written on the view means "cleared" on the base. *)
  Hashtbl.iter (fun blk mask -> co_set base blk mask) d.d_co;
  Hashtbl.iter (fun blk mask -> cm_set base blk mask) d.d_cm;
  List.iter Hashtbl.reset [ d.d_past; d.d_co; d.d_cm ];
  Hashtbl.reset d.d_pf_del;
  Hashtbl.reset d.d_pf

(* ---- snapshot / restore / canonical digest (epoch memoization) ---- *)

type snapshot = {
  sn_caches : Cache.snapshot array;
  sn_dir : (int * Directory.state) list;
  sn_pf : int array;
  sn_pf_live : int;
  sn_past : int array;
  sn_co : int array;
  sn_cm : int array;
}

let snapshot t =
  if t.delta <> None then invalid_arg "Protocol.snapshot: shard view";
  {
    sn_caches = Array.map Cache.snapshot t.caches;
    sn_dir = Directory.entries t.dir;
    sn_pf = Block_table.copy t.pf;
    sn_pf_live = t.pf_live;
    sn_past = Block_table.copy t.past;
    sn_co = Block_table.copy t.co;
    sn_cm = Block_table.copy t.cm;
  }

(* Restore state captured at virtual time T at a new virtual time
   T + [time_offset]; absolute [ready_at] stamps shift accordingly
   (see [Cache.restore]). Stats are deliberately untouched: the memo
   applies them as a {!Stats.diff} delta. *)
let restore t s ~time_offset =
  if t.delta <> None then invalid_arg "Protocol.restore: shard view";
  Array.iteri
    (fun i c -> Cache.restore c s.sn_caches.(i) ~time_offset)
    t.caches;
  List.iter
    (fun (blk, _) -> Directory.set t.dir blk Directory.Idle)
    (Directory.entries t.dir);
  List.iter (fun (blk, st) -> Directory.set t.dir blk st) s.sn_dir;
  Block_table.restore t.pf s.sn_pf;
  t.pf_live <- s.sn_pf_live;
  Block_table.restore t.past s.sn_past;
  Block_table.restore t.co s.sn_co;
  Block_table.restore t.cm s.sn_cm

(* FNV-1a over the canonical machine state, relative to virtual time
   [now] so two states reachable at different absolute times hash alike.
   Two independent accumulators (different offset bases) drive the
   collision probability for the epoch memo's key comparison well below
   concern; the memo additionally compares the full event streams, so a
   digest collision can only alias *incoming* protocol states. The
   per-block masks contribute in ascending block order (pending
   prefetches as [blk * nodes + node], ascending node within a block). *)
let state_digest t ~now =
  if t.delta <> None then invalid_arg "Protocol.state_digest: shard view";
  let h1 = ref 0x4bf29ce484222325 and h2 = ref 0x04222325cbf29ce4 in
  let prime = 0x100000001b3 in
  let put v =
    h1 := (!h1 lxor v) * prime;
    h2 := (!h2 lxor (v + 0x9e3779b9)) * prime
  in
  put t.n_nodes;
  put (Protocol_id.to_int t.backend);
  Array.iter (fun c -> Cache.fold_state c ~now ~init:() (fun () v -> put v))
    t.caches;
  Directory.fold_state t.dir ~init:() (fun () v -> put v);
  Block_table.iter t.past (fun blk mask -> put blk; put mask);
  Block_table.iter t.pf (fun blk mask ->
      for node = 0 to t.n_nodes - 1 do
        if mask land (1 lsl node) <> 0 then put (pf_key t ~node ~blk)
      done);
  put t.pf_live;
  Block_table.iter t.co (fun blk mask -> put (blk lxor 0x105d); put mask);
  Block_table.iter t.cm (fun blk mask -> put (blk lxor 0x2c4e); put mask);
  (!h1 land max_int, !h2 land max_int)
