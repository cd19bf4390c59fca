(* Quantum-synchronized parallel engine: one simulation, many domains,
   bit-identical results.

   The sequential engines interleave all simulated nodes on one core
   through [Sched]'s event loop. Following the conservative-window PDES
   discipline of the real Wisconsin Wind Tunnel, this engine exploits the
   barrier structure of the programs instead: between two global barriers
   no node can observe another node's memory-system activity except
   through shared data itself, so a whole barrier epoch can serve as the
   synchronization window.

   Each epoch runs in two phases:

   {b Phase A (parallel recording).} Every node's compiled closures run
   in {e recording mode} ([rt.reco = Some _], [rt.quantum = 0]) on a
   fixed worker domain. Instead of performing scheduler effects and
   protocol calls, the hot-path seams in {!Compile} append compact events
   (see {!Record}) to a per-node stream: local-op charges are
   delta-encoded, shared accesses carry their pc/address (and stored
   value), annotations their site id and element range. Nodes suspend at
   the barrier via their effect handler. Shared reads during this phase
   return whatever is in memory — possibly stale under a race — so every
   touched element is also tagged with per-node read/write/rmw marks.

   {b Conflict classification.} After the round, the marks are merged: if
   any element was read by one node and written (or rmw-accumulated) by
   another in the same epoch, the recorded streams cannot be trusted and
   the whole run falls back to the sequential compiled engine (as it does
   for locks and other unsupported constructs). Write-write and rmw-rmw
   sharing is fine: replay re-applies those effects in the true order.
   Soundness: for Phase A to diverge from the sequential execution at
   all, some node must read a value another node wrote within the epoch —
   and exactly that pattern is what the classifier rejects. "Classified
   safe" therefore implies the recorded streams are exact. The classifier
   additionally grades each safe epoch {e clean} when no element was
   written (or rmw'd) by more than one node: in a clean epoch the
   provisional memory left by recording is already the exact final
   memory, which unlocks the pipelined and memoized paths below.

   {b Phase B (replay).} The recorded streams replay through the real
   {!Memsys.Protocol}, mirroring [Sched.run]'s scheduling exactly: same
   initial order, same priority queue with FIFO ties, same advance
   fast-path semantics, same barrier-release rule — so every observable
   of the outcome (time, statistics, packed trace, output, memory) is
   bit-identical to [Compile.run]. Three optimisations stack on top, all
   outcome-preserving:

   - {e Pipelining.} When an epoch is clean and every node parked at the
     barrier, its replay cannot touch shared program memory (recording
     already left the exact values) and is guaranteed to end in a
     barrier release — so the next epoch's recording is launched on the
     worker domains {e before} replaying this one, overlapping the two
     phases. A two-slot buffer in {!Record} ([Record.flip]) keeps the
     replayed epoch's streams stable while workers record into the other
     slot; the round handshake provides the memory-publication fences.

   - {e Sharded replay.} The epoch's touched blocks (conflict marks plus
     recorded annotation ranges) are partitioned by ownership
     ({!Shard.plan}): nodes whose transitions cannot reach each other's
     protocol state — couplings given by {!Memsys.Protocol.couple_mask}
     against the pre-epoch state — replay on separate domains against
     {!Memsys.Protocol.shard_view} overlays, computing every protocol
     call's latency in parallel. The views merge deterministically
     ({!Memsys.Protocol.merge_shard}), and a serial {e ordering pass}
     re-runs the scheduler loop consuming the precomputed latencies, so
     trace order, printed output, memory effects and virtual time are
     produced exactly as the serial replay would. Any block touched by
     two nodes in one epoch forces the serial path for that epoch.

   - {e Epoch memoization.} A clean or dirty epoch whose replay ran to a
     barrier is remembered under (event streams, incoming coherence
     state): the key holds the raw stream bytes, recorded values/prints,
     the epoch's queue order, rmw incoming values and a canonical digest
     of the protocol state ({!Memsys.Protocol.state_digest}); the entry
     holds the protocol snapshot at epoch end, the statistics delta, the
     trace/output/memory effects and the barrier arrival order. A later
     identical epoch — a repeat run of the same program — applies the
     recorded deltas and skips phase B entirely. Entries are only
     materialised the second time a key is seen, so one-shot runs pay
     just the digest. *)

open Lang

exception Fallback of string
(* Internal: abandon the parallel attempt, rerun sequentially. *)

(* ---- tuning knobs ----
   Optional arguments take precedence; environment variables set the
   defaults so the CLIs and benchmarks can steer the engine without
   API changes. A value outside a knob's accepted set is refused with
   [Invalid_argument], never replaced by the default. *)

let env_flag name default =
  match Sys.getenv_opt name with
  | Some ("0" | "false" | "no" | "off") -> false
  | Some ("1" | "true" | "yes" | "on") -> true
  | Some _ ->
      invalid_arg
        (Printf.sprintf "%s must be one of 0, false, no, off, 1, true, yes, on"
           name)
  | None -> default

let env_count name default =
  match Sys.getenv_opt name with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some v when v >= 0 -> v
      | Some _ | None ->
          invalid_arg (Printf.sprintf "%s must be a non-negative integer" name))
  | None -> default

let default_pipeline () = env_flag "CACHIER_PAR_PIPELINE" true
let default_shards () = env_count "CACHIER_REPLAY_SHARDS" 0
let default_memo () = env_count "CACHIER_REPLAY_MEMO" 64

(* Observability: classifier fallbacks, cumulative worker wait time, and
   the per-epoch routing decisions of the replay engine. All updates are
   gated on [Obs.enabled] / a zero [Obs.start] stamp, so disabled runs
   pay one branch per round and allocate nothing. *)
let obs_fallbacks = Obs.Registry.counter "par.fallbacks"
let obs_worker_idle = Obs.Registry.counter "par.worker_idle_ns"
let obs_memo_hits = Obs.Registry.counter "par.memo_hits"
let obs_memo_misses = Obs.Registry.counter "par.memo_misses"
let obs_shard_epochs = Obs.Registry.counter "par.shard_epochs"
let obs_serial_epochs = Obs.Registry.counter "par.serial_epochs"
let obs_pipelined_epochs = Obs.Registry.counter "par.pipelined_epochs"

(* ---- epoch memoization pool ----

   Keyed by everything the replay of one epoch depends on; shared across
   runs under a mutex, scoped by a digest of the (machine, program) pair
   so unrelated workloads never alias. *)
module Memo = struct
  type data = {
    d_snap : Memsys.Protocol.snapshot;  (* coherence state at epoch end *)
    d_stats : Memsys.Stats.t;  (* counter delta over the epoch *)
    d_misses : (int * int * int * int) array;  (* node, pc, addr, kind *)
    d_arrivals : (int * int) array;  (* barrier arrival order: node, pc *)
    d_writes : (int * bool * Value.t) array;  (* elem, is_add, value *)
    d_output : string array;  (* printed lines, in order *)
    d_advance : int;  (* epoch duration: vt_end - vt0 *)
    d_end : int;  (* absolute vt_end when stored, for rebasing *)
    d_clean : bool;  (* memory effects already in place on a hit *)
  }

  type key = {
    k_dig : int * int;  (* Protocol.state_digest at epoch start *)
    k_order : int array;  (* scheduler queue order at epoch start *)
    k_rmw : (int * Value.t) array;  (* rmw elements and incoming values *)
    k_streams : string array;  (* per-node raw stream bytes *)
    k_vals : Value.t array array;
    k_strs : string array array;
  }

  type entry = {
    e_key : key;
    mutable e_data : data option;  (* [None]: stub, seen once *)
    mutable e_stamp : int;  (* LRU clock *)
  }

  let mu = Mutex.create ()
  let tbl : (string, entry) Hashtbl.t = Hashtbl.create 64
  let tick = ref 0

  let clear () =
    Mutex.lock mu;
    Hashtbl.reset tbl;
    Mutex.unlock mu

  (* Current-epoch materials, referencing the recorder shadow slots
     directly so lookups copy nothing. *)
  type materials = {
    m_dig : int * int;
    m_order : int array;
    m_rmw : (int * Value.t) array;
    m_streams : (Bytes.t * int) array;  (* buffer, length *)
    m_vals : (Value.t array * int) array;
    m_strs : (string array * int) array;
  }

  let hash ~scope m =
    let b = Buffer.create 1024 in
    Buffer.add_string b scope;
    let d1, d2 = m.m_dig in
    Buffer.add_string b (string_of_int d1);
    Buffer.add_char b ',';
    Buffer.add_string b (string_of_int d2);
    Array.iter
      (fun n ->
        Buffer.add_char b ';';
        Buffer.add_string b (string_of_int n))
      m.m_order;
    Array.iter
      (fun (e, v) ->
        Buffer.add_char b '|';
        Buffer.add_string b (string_of_int e);
        Buffer.add_char b ':';
        Buffer.add_string b (string_of_int (Hashtbl.hash v)))
      m.m_rmw;
    Array.iter
      (fun (buf, len) ->
        Buffer.add_char b '#';
        Buffer.add_string b (string_of_int len);
        Buffer.add_subbytes b buf 0 len)
      m.m_streams;
    Array.iter
      (fun (vals, n) ->
        Buffer.add_char b '$';
        for i = 0 to n - 1 do
          Buffer.add_string b (string_of_int (Hashtbl.hash vals.(i)));
          Buffer.add_char b ','
        done)
      m.m_vals;
    Array.iter
      (fun (strs, n) ->
        Buffer.add_char b '@';
        for i = 0 to n - 1 do
          Buffer.add_string b (string_of_int (String.length strs.(i)));
          Buffer.add_char b ':';
          Buffer.add_string b strs.(i)
        done)
      m.m_strs;
    Digest.string (Buffer.contents b)

  let stream_eq s (buf, len) =
    String.length s = len
    &&
    let rec go i =
      i = len || (String.unsafe_get s i = Bytes.unsafe_get buf i && go (i + 1))
    in
    go 0

  let side_eq stored (arr, n) =
    Array.length stored = n
    &&
    let rec go i = i = n || (stored.(i) = arr.(i) && go (i + 1)) in
    go 0

  let key_matches k m =
    k.k_dig = m.m_dig && k.k_order = m.m_order && k.k_rmw = m.m_rmw
    && Array.length k.k_streams = Array.length m.m_streams
    && (let ok = ref true in
        Array.iteri
          (fun i s -> if not (stream_eq s m.m_streams.(i)) then ok := false)
          k.k_streams;
        !ok)
    && (let ok = ref true in
        Array.iteri
          (fun i v -> if not (side_eq v m.m_vals.(i)) then ok := false)
          k.k_vals;
        !ok)
    &&
    let ok = ref true in
    Array.iteri
      (fun i s -> if not (side_eq s m.m_strs.(i)) then ok := false)
      k.k_strs;
    !ok

  let freeze m =
    {
      k_dig = m.m_dig;
      k_order = Array.copy m.m_order;
      k_rmw = Array.copy m.m_rmw;
      k_streams =
        Array.map (fun (buf, len) -> Bytes.sub_string buf 0 len) m.m_streams;
      k_vals = Array.map (fun (vals, n) -> Array.sub vals 0 n) m.m_vals;
      k_strs = Array.map (fun (strs, n) -> Array.sub strs 0 n) m.m_strs;
    }

  let evict_to cap =
    while Hashtbl.length tbl > cap do
      let worst = ref None in
      Hashtbl.iter
        (fun h e ->
          match !worst with
          | Some (_, s) when s <= e.e_stamp -> ()
          | _ -> worst := Some (h, e.e_stamp))
        tbl;
      match !worst with Some (h, _) -> Hashtbl.remove tbl h | None -> ()
    done

  (* One probe per epoch: a hit returns the stored deltas; a first
     sighting inserts a key-only stub; a second sighting asks the caller
     to capture this epoch's replay and [promote] it. *)
  let query ~cap ~scope m =
    let h = hash ~scope m in
    Mutex.lock mu;
    incr tick;
    let r =
      match Hashtbl.find_opt tbl h with
      | Some e when key_matches e.e_key m -> (
          e.e_stamp <- !tick;
          match e.e_data with
          | Some d -> `Hit d
          | None -> `Promote h)
      | Some _ -> `Fresh  (* digest collision: leave the incumbent *)
      | None ->
          if cap > 0 then begin
            Hashtbl.replace tbl h
              { e_key = freeze m; e_data = None; e_stamp = !tick };
            evict_to cap
          end;
          `Fresh
    in
    Mutex.unlock mu;
    r

  let promote h data =
    Mutex.lock mu;
    (match Hashtbl.find_opt tbl h with
    | Some e -> e.e_data <- Some data
    | None -> ());
    Mutex.unlock mu
end

let memo_clear = Memo.clear

type node_state = {
  rc : Record.t;
  rt : Compile.rt;
  frame : Compile.frame;
  mutable cont : (unit, unit) Effect.Deep.continuation option;
  mutable started : bool;
  (* replay cursors into [rc]'s shadow stream and side arrays *)
  mutable pos : int;
  mutable vpos : int;
  mutable spos : int;
}

let default_domains ~nodes = max 1 (min (Jobs.default_jobs ()) nodes)

let run ?poll ?domains ?pipeline ?shards ?memo ~machine program =
  let nodes = machine.Machine.nodes in
  let ndomains =
    match domains with
    | Some 0 | None -> default_domains ~nodes
    | Some d ->
        if d < 0 then invalid_arg "Par.run: domains must be non-negative";
        min d (max 1 nodes)
  in
  let debug = machine.Machine.debug_protocol in
  let pipeline =
    (match pipeline with Some b -> b | None -> default_pipeline ())
    && ndomains > 1 && not debug
  in
  let shards_eff =
    if debug then 1
    else
      match (match shards with Some s -> s | None -> default_shards ()) with
      | 0 -> ndomains
      | s -> max 1 s
  in
  let memo_cap =
    if debug then 0 else max 0 (match memo with Some m -> m | None -> default_memo ())
  in
  (* Cross-run scope for the memo pool: replay depends on the machine
     (costs, geometry, trace mode) and the program (annotation directive
     closures are resolved by site id). Unmarshalable values — there are
     none today — simply disable memoization. *)
  let memo_scope =
    if memo_cap <= 0 then None
    else
      try Some (Digest.string (Marshal.to_string (machine, program) []))
      with _ -> None
  in
  let info, layout, env = Compile.compile ~machine program in
  let proto =
    Memsys.Protocol.create_b ~backend:machine.Machine.protocol ~nodes
      ~cache_bytes:machine.Machine.cache_bytes ~assoc:machine.Machine.assoc
      ~block_size:machine.Machine.block_size ~costs:machine.Machine.costs
  in
  if debug then Memsys.Protocol.set_debug_checks proto true;
  let total_elems =
    (Label.total_bytes layout + machine.Machine.elem_size - 1)
    / machine.Machine.elem_size
  in
  let g =
    {
      Compile.machine;
      layout;
      proto;
      shared = Array.make (max 1 total_elems) Value.zero;
      elem_shift = Compile.elem_shift_of machine.Machine.elem_size;
      trace_buf = Trace.Buf.create ();
      output_buf = ref [];
    }
  in
  if machine.Machine.collect_trace then
    List.iter
      (fun (name, lo, hi) -> Trace.Buf.add_label g.Compile.trace_buf ~name ~lo ~hi)
      (Label.to_label_records layout);
  let stats = Memsys.Protocol.stats proto in
  let main =
    match Compile.main_proc env with
    | Some cp -> cp
    | None -> raise (Interp.Runtime_error "program has no main procedure")
  in
  let annots = Compile.annot_table env in
  let blk_shift =
    let rec log2 n acc = if n <= 1 then acc else log2 (n lsr 1) (acc + 1) in
    log2 machine.Machine.block_size 0
  in
  let sts =
    Array.init nodes (fun node ->
        let rc = Record.create ~node ~elems:total_elems ~poll in
        let rt =
          {
            Compile.node;
            privates =
              Array.of_list
                (List.map
                   (fun (_, elems) -> Array.make elems Value.zero)
                   info.Sema.privates);
            lop = machine.Machine.costs.Memsys.Network.local_op;
            quantum = 0;  (* recording: every yield check emits an event *)
            pending = 0;
            base_now = 0;
            held_locks = [];
            held_id = Trace.Buf.empty_held;
            reco = Some rc;
          }
        in
        {
          rc;
          rt;
          frame = Compile.make_frame main.Compile.nslots;
          cont = None;
          started = false;
          pos = 0;
          vpos = 0;
          spos = 0;
        })
  in

  (* ---- Phase A: recording fibers ---- *)

  let handler st : (unit, unit) Effect.Deep.handler =
    let rc = st.rc in
    {
      Effect.Deep.retc =
        (fun () ->
          (* the body's trailing [flush_pending] already emitted FLUSH *)
          Record.finish rc st.rt.Compile.pending;
          st.rt.Compile.pending <- 0);
      exnc =
        (fun e ->
          match e with
          | Record.Unsupported msg -> rc.Record.fallback <- Some msg
          | e -> Record.error rc e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Sched.Barrier_sync _ ->
              (* BARRIER was emitted by the compiled [Sbarrier] seam; park
                 until the next epoch's recording round resumes us *)
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  st.cont <- Some k)
          | Sched.Now | Sched.Advance _ | Sched.Lock_acquire _
          | Sched.Lock_release _ ->
              (* the recording seams never perform these; if one slips
                 through, surface it as a whole-run fallback *)
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  Effect.Deep.discontinue k
                    (Record.Unsupported "scheduler effect in recording mode"))
          | _ -> None);
    }
  in
  (* The active stream slot was cleared by [Record.flip] (or is fresh),
     so recording appends from the start; replay cursors are untouched —
     they walk the shadow slot, possibly concurrently. *)
  let record_round node =
    let st = sts.(node) in
    if not st.started then begin
      st.started <- true;
      Effect.Deep.match_with
        (fun () ->
          (try main.Compile.cbody g st.rt st.frame
           with Compile.Returning _ -> ());
          Compile.flush_pending st.rt)
        () (handler st)
    end
    else
      match st.cont with
      | Some k ->
          st.cont <- None;
          Effect.Deep.continue k ()
      | None -> ()  (* finished in an earlier epoch: empty stream *)
  in

  (* Worker team: one persistent domain per member beyond the
     orchestrator, each owning a fixed node subset so a parked
     continuation is always resumed on the domain that created it. In
     pipelined mode the orchestrator records nothing — it replays epoch e
     while the workers record epoch e+1 — so all nodes land on the
     spawned members; otherwise member 0 (the orchestrator) records its
     own share as before. Round handshake over a mutex/condition pair;
     the mutex transfer also publishes stream and shared-memory writes
     between phases. *)
  let nworkers = ndomains - 1 in
  let owner_of n = if pipeline then 1 + (n mod nworkers) else n mod ndomains in
  let record_share member =
    for node = 0 to nodes - 1 do
      if owner_of node = member then record_round node
    done
  in
  let mtx = Mutex.create () in
  let cv = Condition.create () in
  let round_no = ref 0 in
  let done_w = ref 0 in
  let stop = ref false in
  let fatal : exn option ref = ref None in
  let worker member =
    let seen = ref 0 in
    let running = ref true in
    while !running do
      Mutex.lock mtx;
      (* Stamp idle time lazily, only if this member actually waits: in
         pipelined rounds the signal usually precedes the worker's
         arrival, and an instant wakeup must not count as idleness. *)
      let idle_t0 = ref 0 in
      while (not !stop) && !round_no = !seen do
        if !idle_t0 = 0 then idle_t0 := Obs.start ();
        Condition.wait cv mtx
      done;
      if !idle_t0 <> 0 then
        Obs.Counter.add obs_worker_idle (Obs.now_ns () - !idle_t0);
      if !stop then begin
        Mutex.unlock mtx;
        running := false
      end
      else begin
        seen := !round_no;
        Mutex.unlock mtx;
        (try record_share member
         with e -> (
           Mutex.lock mtx;
           (match !fatal with None -> fatal := Some e | Some _ -> ());
           Mutex.unlock mtx));
        Mutex.lock mtx;
        incr done_w;
        if !done_w = nworkers then Condition.broadcast cv;
        Mutex.unlock mtx
      end
    done
  in
  let team =
    Array.init nworkers (fun i -> Domain.spawn (fun () -> worker (i + 1)))
  in
  let shutdown () =
    Mutex.lock mtx;
    stop := true;
    Condition.broadcast cv;
    Mutex.unlock mtx;
    Array.iter Domain.join team
  in
  let launch_round () =
    if nworkers = 0 then record_share 0
    else begin
      Mutex.lock mtx;
      incr round_no;
      done_w := 0;
      Condition.broadcast cv;
      Mutex.unlock mtx;
      if not pipeline then record_share 0
    end
  in
  let wait_round () =
    if nworkers > 0 then begin
      Mutex.lock mtx;
      while !done_w < nworkers do
        Condition.wait cv mtx
      done;
      let f = !fatal in
      Mutex.unlock mtx;
      match f with Some e -> raise e | None -> ()
    end
  in

  (* ---- conflict classification ---- *)

  let snap = Array.make (Array.length g.Compile.shared) Value.zero in
  (* merged per-element marks for the current round: Record's read/write/
     rmw bits plus bit 3 = touched by more than one node *)
  let m_multi = 8 in
  let agg = Bytes.make (max 1 total_elems) '\000' in
  let owner = Array.make (max 1 total_elems) (-1) in
  let tag = Array.make (max 1 total_elems) 0 in
  let rmw_tag = Array.make (max 1 total_elems) 0 in
  let round_id = ref 0 in
  (* Per-epoch plan inputs, rebuilt by [classify]. *)
  let blk_touched : int list array = Array.make nodes [] in
  let rmw_key = ref [||] in
  let plan_blocks_cap = 1 lsl 20 in
  (* [classify] returns [clean]: no element written or rmw'd by more
     than one node, i.e. the provisional memory recording left behind is
     already exact and replay may skip all memory effects. *)
  let classify () =
    incr round_id;
    let round = !round_id in
    let want_plan = shards_eff > 1 in
    let want_memo = memo_scope <> None in
    Array.iter
      (fun st ->
        let rc = st.rc in
        for j = 0 to rc.Record.ntouched - 1 do
          let e = rc.Record.touched.(j) in
          let m = Char.code (Bytes.unsafe_get rc.Record.marks e) in
          if tag.(e) <> round then begin
            tag.(e) <- round;
            owner.(e) <- rc.Record.node;
            Bytes.unsafe_set agg e (Char.unsafe_chr m)
          end
          else begin
            let a = Char.code (Bytes.unsafe_get agg e) in
            let a =
              a lor m lor (if owner.(e) <> rc.Record.node then m_multi else 0)
            in
            Bytes.unsafe_set agg e (Char.unsafe_chr a)
          end
        done)
      sts;
    let unsafe = ref false in
    let clean = ref true in
    let rmws = ref [] in
    let planned = ref 0 in
    Array.iter
      (fun st ->
        let rc = st.rc in
        let node = rc.Record.node in
        let blks = ref [] in
        let last_blk = ref (-1) in
        for j = 0 to rc.Record.ntouched - 1 do
          let e = rc.Record.touched.(j) in
          let a = Char.code (Bytes.unsafe_get agg e) in
          if a land m_multi <> 0 then begin
            if
              a land Record.m_read <> 0
              && a land (Record.m_write lor Record.m_rmw) <> 0
            then unsafe := true;
            if a land (Record.m_write lor Record.m_rmw) <> 0 then
              clean := false
          end;
          if a land Record.m_rmw <> 0 then begin
            (* rmw elements were provisionally accumulated during
               recording; their incoming values key the epoch memo, and
               dirty epochs rewind them (below) so replay can re-apply
               the increments in true schedule order *)
            if want_memo && rmw_tag.(e) <> round then begin
              rmw_tag.(e) <- round;
              rmws := (e, snap.(e)) :: !rmws
            end
          end;
          if want_plan then begin
            let blk = (e lsl g.Compile.elem_shift) lsr blk_shift in
            if blk <> !last_blk then begin
              last_blk := blk;
              blks := blk :: !blks;
              incr planned
            end
          end
        done;
        if want_plan then begin
          (* annotation directives touch whole block ranges that never
             appear in the element marks *)
          for j = 0 to rc.Record.naranges - 1 do
            let id = rc.Record.aranges.(3 * j) in
            let lo = rc.Record.aranges.((3 * j) + 1) in
            let hi = rc.Record.aranges.((3 * j) + 2) in
            let entry = annots.(id).Compile.a_entry in
            let elem_size = entry.Label.elem_size in
            let lo_b = (entry.Label.base + (lo * elem_size)) lsr blk_shift in
            let hi_b =
              (entry.Label.base + (hi * elem_size) + elem_size - 1)
              lsr blk_shift
            in
            planned := !planned + (hi_b - lo_b + 1);
            if !planned <= plan_blocks_cap then
              for blk = lo_b to hi_b do
                blks := blk :: !blks
              done
          done;
          blk_touched.(node) <- !blks
        end)
      sts;
    (* Dirty epochs rewind rmw elements to the epoch snapshot; clean
       epochs must not — the recorded value is final, and the pipelined
       path may already be racing a new recording over this memory. *)
    if not !clean then
      Array.iter
        (fun st ->
          let rc = st.rc in
          for j = 0 to rc.Record.ntouched - 1 do
            let e = rc.Record.touched.(j) in
            if
              Char.code (Bytes.unsafe_get agg e) land Record.m_rmw <> 0
              && tag.(e) = round
            then begin
              tag.(e) <- -round;  (* rewind once across overlapping lists *)
              g.Compile.shared.(e) <- snap.(e)
            end
          done)
        sts;
    Array.iter (fun st -> Record.clear_marks st.rc) sts;
    rmw_key :=
      Array.of_list (List.sort (fun (a, _) (b, _) -> compare a b) !rmws);
    if !unsafe then raise (Fallback "cross-node read/write conflict");
    let plan_ok = shards_eff > 1 && !planned <= plan_blocks_cap in
    (!clean, plan_ok)
  in

  (* ---- Phase B: replay, mirroring Sched.run ---- *)

  let quantum = machine.Machine.quantum in
  let clock = Array.make nodes 0 in
  let pend = Array.make nodes 0 in
  let q : int Pqueue.t = Pqueue.create () in
  let finished = ref 0 in
  let waiters : (int * int) list ref = ref [] in
  let round_over = ref false in
  (* per-epoch replay routing, set before each [drain] *)
  let lat_buf = Array.make nodes [||] in
  let lat_len = Array.make nodes 0 in
  let lat_pos = Array.make nodes 0 in
  let use_lats = ref false in
  let skip_mem = ref false in
  (* epoch capture for memo promotion (active on second key sighting) *)
  let cap_on = ref false in
  let cap_miss : (int * int * int * int) list ref = ref [] in
  let cap_wr : (int * bool * Value.t) list ref = ref [] in
  let cap_out : string list ref = ref [] in
  let cap_arr : (int * int) array ref = ref [||] in
  let release_barrier () =
    let ws = List.rev !waiters in
    waiters := [];
    let vt =
      machine.Machine.costs.Memsys.Network.barrier
      + Array.fold_left max 0 clock
    in
    Array.fill clock 0 nodes vt;
    let arrivals = List.sort compare ws in
    stats.Memsys.Stats.barriers <- stats.Memsys.Stats.barriers + 1;
    Memsys.Protocol.epoch_boundary proto;
    if machine.Machine.flush_at_barrier then
      for node = 0 to nodes - 1 do
        Memsys.Protocol.flush_node proto ~node
      done;
    Memsys.Protocol.sample_occupancy proto;
    if machine.Machine.collect_trace then
      List.iter
        (fun (node, bpc) ->
          Trace.Buf.add_barrier g.Compile.trace_buf ~node ~pc:bpc ~vt)
        arrivals;
    List.iter (fun (n, _) -> Pqueue.push q ~prio:vt n) ws;
    if !cap_on then cap_arr := Array.of_list ws;
    (* the next events for the released nodes live in the next epoch's
       streams: hand control back to the orchestrator to record them *)
    round_over := true
  in
  let get_byte st =
    let b = Char.code (Bytes.unsafe_get st.rc.Record.sbuf st.pos) in
    st.pos <- st.pos + 1;
    b
  in
  let get_varint st =
    let rec go shift acc =
      let b = get_byte st in
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if b < 0x80 then acc else go (shift + 7) acc
    in
    go 0 0
  in
  let record_replay_miss node ~pc ~addr packed =
    let kind = Memsys.Protocol.packed_kind packed in
    if kind <> Memsys.Protocol.no_miss && machine.Machine.collect_trace
    then begin
      let bkind =
        if kind = Memsys.Protocol.read_miss then Trace.Buf.kind_read
        else if kind = Memsys.Protocol.write_miss then Trace.Buf.kind_write
        else Trace.Buf.kind_fault
      in
      Trace.Buf.add_miss g.Compile.trace_buf ~node ~pc ~addr ~kind:bkind
        ~held:Trace.Buf.empty_held;
      if !cap_on then cap_miss := (node, pc, addr, bkind) :: !cap_miss
    end;
    pend.(node) <- pend.(node) + Memsys.Protocol.packed_latency packed
  in
  (* Next precomputed latency (sharded mode): the shard simulation pushed
     one entry per protocol call in stream order. *)
  let next_lat node =
    let i = lat_pos.(node) in
    assert (i < lat_len.(node));
    lat_pos.(node) <- i + 1;
    lat_buf.(node).(i)
  in
  (* Advance the node's clock by its pending cycles. Mirrors Sched's
     [Advance] handler: park (and yield to the queue) only when another
     runnable node is at or before the new time — equal priorities must
     round-trip through the queue to keep FIFO order. Sched's bounded
     fast-path depth needs no mirror: a forced park there pushes the
     unique strict minimum, which pops straight back with no side
     effects, so it cannot reorder anything. *)
  let advance_parks node =
    clock.(node) <- clock.(node) + pend.(node);
    pend.(node) <- 0;
    match Pqueue.peek_prio q with
    | Some p -> p <= clock.(node)
    | None -> false
  in
  let step node =
    let st = sts.(node) in
    let rc = st.rc in
    let rec loop () =
      let t = get_byte st in
      let d = get_varint st in
      pend.(node) <- pend.(node) + d;
      if t = Record.t_ycheck then begin
        if pend.(node) >= quantum && pend.(node) > 0 then begin
          if advance_parks node then Pqueue.push q ~prio:clock.(node) node
          else loop ()
        end
        else loop ()
      end
      else if t = Record.t_flush then begin
        if pend.(node) > 0 then begin
          if advance_parks node then Pqueue.push q ~prio:clock.(node) node
          else loop ()
        end
        else loop ()
      end
      else if t = Record.t_read || t = Record.t_rmw_rd then begin
        let pc = get_varint st in
        let addr = get_varint st in
        let p =
          if !use_lats then next_lat node
          else if t = Record.t_rmw_rd then
            Memsys.Protocol.read_rmw_p proto ~node ~addr
              ~now:(clock.(node) + pend.(node))
          else
            Memsys.Protocol.read_p proto ~node ~addr
              ~now:(clock.(node) + pend.(node))
        in
        record_replay_miss node ~pc ~addr p;
        loop ()
      end
      else if t = Record.t_write || t = Record.t_rmw_wr then begin
        let pc = get_varint st in
        let addr = get_varint st in
        let p =
          if !use_lats then next_lat node
          else if t = Record.t_rmw_wr then
            Memsys.Protocol.write_rmw_p proto ~node ~addr
              ~now:(clock.(node) + pend.(node))
          else
            Memsys.Protocol.write_p proto ~node ~addr
              ~now:(clock.(node) + pend.(node))
        in
        record_replay_miss node ~pc ~addr p;
        let v = rc.Record.svals.(st.vpos) in
        st.vpos <- st.vpos + 1;
        if not !skip_mem then begin
          let e = Compile.elem_index g addr in
          let is_add = t = Record.t_rmw_wr in
          if is_add then
            g.Compile.shared.(e) <- Value.add g.Compile.shared.(e) v
          else g.Compile.shared.(e) <- v;
          if !cap_on then cap_wr := (e, is_add, v) :: !cap_wr
        end;
        loop ()
      end
      else if t = Record.t_annot then begin
        let id = get_varint st in
        let lo = get_varint st in
        let hi = get_varint st in
        let desc = annots.(id) in
        let entry = desc.Compile.a_entry in
        let elem_size = entry.Label.elem_size in
        let block_size = machine.Machine.block_size in
        let lo_addr = entry.Label.base + (lo * elem_size) in
        let hi_addr = entry.Label.base + (hi * elem_size) + elem_size - 1 in
        List.iter
          (fun blk ->
            let addr = Memsys.Block.base_addr ~block_size blk in
            let lat =
              if !use_lats then next_lat node
              else
                desc.Compile.a_directive proto ~node ~addr
                  ~now:(clock.(node) + pend.(node))
            in
            pend.(node) <- pend.(node) + lat)
          (Memsys.Block.blocks_of_range ~block_size ~lo:lo_addr ~hi:hi_addr);
        loop ()
      end
      else if t = Record.t_print then begin
        let s = rc.Record.sstrs.(st.spos) in
        st.spos <- st.spos + 1;
        g.Compile.output_buf := s :: !(g.Compile.output_buf);
        if !cap_on then cap_out := s :: !cap_out;
        loop ()
      end
      else if t = Record.t_barrier then begin
        let pc = get_varint st in
        waiters := (node, pc) :: !waiters;
        if List.length !waiters = nodes then release_barrier ()
      end
      else if t = Record.t_finish then incr finished
      else if t = Record.t_error then (
        match rc.Record.serror with
        | Some e -> raise e
        | None -> assert false)
      else assert false
    in
    loop ()
  in
  let poll_countdown = ref 256 in
  let rec drain () =
    if !round_over then ()
    else
      match Pqueue.pop q with
      | Some (_, node) ->
          (match poll with
          | Some p ->
              decr poll_countdown;
              if !poll_countdown <= 0 then begin
                poll_countdown := 256;
                p ()
              end
          | None -> ());
          step node;
          drain ()
      | None -> ()
  in

  (* ---- sharded latency precomputation ----

     Each shard replays its nodes' streams against a protocol view,
     recording every protocol call's result (packed outcome, or raw
     latency for directives) in stream order. Within a shard the same
     queue discipline as the serial replay is used; because shards are
     decoupled — no transition of one shard's node can touch another
     shard's protocol state — the shard-local pop order is exactly the
     restriction of the global order, and each node's [now] values are
     self-contained (clocks only equalise at barriers), so every
     computed latency equals the serial replay's. *)
  let shard_pass order0 vt0 view shard_nodes =
    let mine = Array.make nodes false in
    Array.iter (fun n -> mine.(n) <- true) shard_nodes;
    let cl = Array.make nodes vt0 in
    let pd = Array.make nodes 0 in
    let pos = Array.make nodes 0 in
    let lq : int Pqueue.t = Pqueue.create () in
    Array.iter (fun n -> if mine.(n) then Pqueue.push lq ~prio:vt0 n) order0;
    let push_lat n v =
      let a = lat_buf.(n) in
      let len = lat_len.(n) in
      if len = Array.length a then begin
        let b = Array.make (max 64 (2 * len)) 0 in
        Array.blit a 0 b 0 len;
        lat_buf.(n) <- b
      end;
      lat_buf.(n).(len) <- v;
      lat_len.(n) <- len + 1
    in
    let byte n =
      let st = sts.(n) in
      let b = Char.code (Bytes.unsafe_get st.rc.Record.sbuf pos.(n)) in
      pos.(n) <- pos.(n) + 1;
      b
    in
    let varint n =
      let rec go shift acc =
        let b = byte n in
        let acc = acc lor ((b land 0x7f) lsl shift) in
        if b < 0x80 then acc else go (shift + 7) acc
      in
      go 0 0
    in
    let parks n =
      cl.(n) <- cl.(n) + pd.(n);
      pd.(n) <- 0;
      match Pqueue.peek_prio lq with Some p -> p <= cl.(n) | None -> false
    in
    let sim n =
      let rec loop () =
        let t = byte n in
        let d = varint n in
        pd.(n) <- pd.(n) + d;
        if t = Record.t_ycheck then begin
          if pd.(n) >= quantum && pd.(n) > 0 then begin
            if parks n then Pqueue.push lq ~prio:cl.(n) n else loop ()
          end
          else loop ()
        end
        else if t = Record.t_flush then begin
          if pd.(n) > 0 then begin
            if parks n then Pqueue.push lq ~prio:cl.(n) n else loop ()
          end
          else loop ()
        end
        else if t = Record.t_read || t = Record.t_rmw_rd then begin
          let _pc = varint n in
          let addr = varint n in
          let p =
            if t = Record.t_rmw_rd then
              Memsys.Protocol.read_rmw_p view ~node:n ~addr
                ~now:(cl.(n) + pd.(n))
            else
              Memsys.Protocol.read_p view ~node:n ~addr ~now:(cl.(n) + pd.(n))
          in
          push_lat n p;
          pd.(n) <- pd.(n) + Memsys.Protocol.packed_latency p;
          loop ()
        end
        else if t = Record.t_write || t = Record.t_rmw_wr then begin
          let _pc = varint n in
          let addr = varint n in
          let p =
            if t = Record.t_rmw_wr then
              Memsys.Protocol.write_rmw_p view ~node:n ~addr
                ~now:(cl.(n) + pd.(n))
            else
              Memsys.Protocol.write_p view ~node:n ~addr ~now:(cl.(n) + pd.(n))
          in
          push_lat n p;
          pd.(n) <- pd.(n) + Memsys.Protocol.packed_latency p;
          loop ()
        end
        else if t = Record.t_annot then begin
          let id = varint n in
          let lo = varint n in
          let hi = varint n in
          let desc = annots.(id) in
          let entry = desc.Compile.a_entry in
          let elem_size = entry.Label.elem_size in
          let block_size = machine.Machine.block_size in
          let lo_addr = entry.Label.base + (lo * elem_size) in
          let hi_addr = entry.Label.base + (hi * elem_size) + elem_size - 1 in
          List.iter
            (fun blk ->
              let addr = Memsys.Block.base_addr ~block_size blk in
              let lat =
                desc.Compile.a_directive view ~node:n ~addr
                  ~now:(cl.(n) + pd.(n))
              in
              push_lat n lat;
              pd.(n) <- pd.(n) + lat)
            (Memsys.Block.blocks_of_range ~block_size ~lo:lo_addr ~hi:hi_addr);
          loop ()
        end
        else if t = Record.t_print then loop ()
        else if t = Record.t_barrier then ignore (varint n)
        else if t = Record.t_finish then ()
        else if t = Record.t_error then ()
          (* stop here: the ordering pass raises at this event before it
             could need another latency from this node *)
        else assert false
      in
      loop ()
    in
    let rec go () =
      match Pqueue.pop lq with
      | Some (_, n) ->
          sim n;
          go ()
      | None -> ()
    in
    go ()
  in

  (* ---- epochs ---- *)

  let order0 = Array.make nodes 0 in
  let capture_order vt0 =
    (* the queue holds every node at prio [vt0]; popping and re-pushing
       in pop order preserves the FIFO tie-break *)
    for i = 0 to nodes - 1 do
      match Pqueue.pop q with
      | Some (_, n) -> order0.(i) <- n
      | None -> assert false
    done;
    Array.iter (fun n -> Pqueue.push q ~prio:vt0 n) order0
  in
  let memo_materials () =
    {
      Memo.m_dig = Memsys.Protocol.state_digest proto ~now:clock.(0);
      m_order = order0;
      m_rmw = !rmw_key;
      m_streams =
        Array.map (fun st -> (st.rc.Record.sbuf, st.rc.Record.slen)) sts;
      m_vals =
        Array.map (fun st -> (st.rc.Record.svals, st.rc.Record.snvals)) sts;
      m_strs =
        Array.map (fun st -> (st.rc.Record.sstrs, st.rc.Record.snstrs)) sts;
    }
  in
  let apply_memo_hit (d : Memo.data) vt0 =
    let vt_end = vt0 + d.Memo.d_advance in
    if machine.Machine.collect_trace then
      Array.iter
        (fun (node, pc, addr, kind) ->
          Trace.Buf.add_miss g.Compile.trace_buf ~node ~pc ~addr ~kind
            ~held:Trace.Buf.empty_held)
        d.Memo.d_misses;
    Array.iter
      (fun s -> g.Compile.output_buf := s :: !(g.Compile.output_buf))
      d.Memo.d_output;
    if not d.Memo.d_clean then
      Array.iter
        (fun (e, is_add, v) ->
          if is_add then
            g.Compile.shared.(e) <- Value.add g.Compile.shared.(e) v
          else g.Compile.shared.(e) <- v)
        d.Memo.d_writes;
    Memsys.Protocol.restore proto d.Memo.d_snap
      ~time_offset:(vt_end - d.Memo.d_end);
    Memsys.Stats.add stats d.Memo.d_stats;
    Array.fill clock 0 nodes vt_end;
    if machine.Machine.collect_trace then
      Array.iter
        (fun (node, pc) ->
          Trace.Buf.add_barrier g.Compile.trace_buf ~node ~pc ~vt:vt_end)
        (let a = Array.copy d.Memo.d_arrivals in
         Array.sort compare a;
         a);
    Memsys.Protocol.sample_occupancy proto;
    for _ = 1 to nodes do
      ignore (Pqueue.pop q)
    done;
    Array.iter (fun (n, _) -> Pqueue.push q ~prio:vt_end n) d.Memo.d_arrivals;
    round_over := true
  in
  (* Replay one epoch (phase B). [plan_ok] allows the sharded path;
     [clean] allows skipping memory effects; [promote] asks for capture
     so the epoch can be memoized afterwards. *)
  let replay_epoch ~clean ~plan_ok ~promote vt0 =
    skip_mem := clean;
    cap_on := promote;
    if promote then begin
      cap_miss := [];
      cap_wr := [];
      cap_out := [];
      cap_arr := [||]
    end;
    use_lats := false;
    (if plan_ok then
       match
         Shard.plan ~nodes ~touched:blk_touched
           ~couple_mask:(Memsys.Protocol.couple_mask proto)
       with
       | Shard.Conflict _ -> ()
       | Shard.Groups gs when Array.length gs >= 2 ->
           let shards, _ =
             Shard.pack ~nodes ~max_shards:shards_eff
               ~weight:(fun n -> sts.(n).rc.Record.slen)
               gs
           in
           if Array.length shards >= 2 then begin
             let t0 = Obs.start () in
             Array.iteri
               (fun n _ ->
                 lat_buf.(n) <- (if Array.length lat_buf.(n) = 0 then
                                   Array.make 64 0
                                 else lat_buf.(n));
                 lat_len.(n) <- 0;
                 lat_pos.(n) <- 0)
               lat_buf;
             let views =
               Array.map (fun _ -> Memsys.Protocol.shard_view proto) shards
             in
             let order = Array.copy order0 in
             let jobs =
               List.map2
                 (fun view snodes () -> shard_pass order vt0 view snodes)
                 (Array.to_list views) (Array.to_list shards)
             in
             ignore
               (Jobs.map ~jobs:(Array.length shards) (fun f -> f ()) jobs);
             Array.iter (Memsys.Protocol.merge_shard proto) views;
             Obs.finish "par.shard_sim" t0;
             use_lats := true;
             if Obs.enabled () then Obs.Counter.incr obs_shard_epochs
           end
       | Shard.Groups _ -> ());
    if (not !use_lats) && Obs.enabled () then
      Obs.Counter.incr obs_serial_epochs;
    drain ()
  in

  let attempt () =
    for node = 0 to nodes - 1 do
      Pqueue.push q ~prio:0 node
    done;
    (* record epoch 0 *)
    Array.blit g.Compile.shared 0 snap 0 (Array.length snap);
    let t0 = Obs.start () in
    launch_round ();
    Obs.finish "par.phase_a" t0;
    let running = ref true in
    while !running do
      let t0 = Obs.start () in
      wait_round ();
      Obs.finish "par.phase_a" t0;
      Array.iter
        (fun st ->
          match st.rc.Record.fallback with
          | Some msg -> raise (Fallback msg)
          | None -> ())
        sts;
      let all_barrier =
        Array.for_all (fun st -> st.cont <> None) sts
      in
      let clean, plan_ok = classify () in
      Array.iter
        (fun st ->
          Record.flip st.rc;
          st.pos <- 0;
          st.vpos <- 0;
          st.spos <- 0)
        sts;
      let vt0 = clock.(0) in
      capture_order vt0;
      (* Pipelined launch: replaying a clean all-at-barrier epoch cannot
         touch program memory and is certain to release the barrier, so
         the next epoch's recording can start now, on the workers, while
         the orchestrator replays this one. *)
      let overlapped =
        if pipeline && clean && all_barrier then begin
          Array.blit g.Compile.shared 0 snap 0 (Array.length snap);
          launch_round ();
          if Obs.enabled () then Obs.Counter.incr obs_pipelined_epochs;
          true
        end
        else false
      in
      round_over := false;
      let phase_b_t0 = Obs.start () in
      (match memo_scope with
      | Some scope when all_barrier -> (
          let m = memo_materials () in
          match Memo.query ~cap:memo_cap ~scope m with
          | `Hit d ->
              if Obs.enabled () then Obs.Counter.incr obs_memo_hits;
              apply_memo_hit d vt0
          | `Promote h ->
              if Obs.enabled () then Obs.Counter.incr obs_memo_misses;
              let stats_before = Memsys.Stats.copy stats in
              replay_epoch ~clean ~plan_ok ~promote:true vt0;
              if !round_over then
                Memo.promote h
                  {
                    Memo.d_snap = Memsys.Protocol.snapshot proto;
                    d_stats = Memsys.Stats.diff stats stats_before;
                    d_misses = Array.of_list (List.rev !cap_miss);
                    d_arrivals = !cap_arr;
                    d_writes = Array.of_list (List.rev !cap_wr);
                    d_output = Array.of_list (List.rev !cap_out);
                    d_advance = clock.(0) - vt0;
                    d_end = clock.(0);
                    d_clean = clean;
                  };
              cap_on := false
          | `Fresh ->
              if Obs.enabled () then Obs.Counter.incr obs_memo_misses;
              replay_epoch ~clean ~plan_ok ~promote:false vt0)
      | _ -> replay_epoch ~clean ~plan_ok ~promote:false vt0);
      Obs.finish "par.phase_b" phase_b_t0;
      if !round_over then begin
        if not overlapped then begin
          Array.blit g.Compile.shared 0 snap 0 (Array.length snap);
          let t0 = Obs.start () in
          launch_round ();
          Obs.finish "par.phase_a" t0
        end
      end
      else begin
        (* queue empty: every node has finished or is parked at a
           barrier that can no longer release — exactly Sched's end.
           An overlapped launch is impossible here: it requires every
           node parked at the barrier, which guarantees a release. *)
        assert (not overlapped);
        running := false;
        if !finished < nodes then begin
          let parked = List.length !waiters in
          raise
            (Sched.Deadlock
               (Printf.sprintf
                  "%d of %d nodes finished; %d parked at a barrier, %d \
                   waiting on locks"
                  !finished nodes parked 0))
        end
      end
    done;
    Array.iter
      (fun st ->
        stats.Memsys.Stats.private_reads <-
          stats.Memsys.Stats.private_reads + st.rc.Record.priv_reads;
        stats.Memsys.Stats.private_writes <-
          stats.Memsys.Stats.private_writes + st.rc.Record.priv_writes)
      sts;
    {
      Interp.time = Array.fold_left max 0 clock;
      stats;
      trace = Trace.Buf.to_records g.Compile.trace_buf;
      output = List.rev !(g.Compile.output_buf);
      shared = g.Compile.shared;
      layout;
      info;
    }
  in
  let engine_t0 = Obs.start () in
  match Fun.protect ~finally:shutdown attempt with
  | outcome ->
      Obs.finish "engine.par" engine_t0;
      outcome
  | exception Fallback _ ->
      (* locks, unclassifiable sharing or an over-long stream: rerun the
         whole simulation sequentially from scratch (fresh protocol,
         memory and trace), which supports everything *)
      Obs.finish "engine.par" engine_t0;
      if Obs.enabled () then Obs.Counter.incr obs_fallbacks;
      Compile.run ?poll ~machine program
