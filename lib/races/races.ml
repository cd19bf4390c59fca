(* Streaming race detection over the miss-record list.

   One fold over the records. Per-address state is stamped with the
   epoch it belongs to: a barrier group is the clock join, and instead
   of scanning tables at each barrier we reset a state lazily the next
   time its address is touched in a later epoch. Within an epoch a state
   starts on the single-owner fast path (one node, conflict checks
   impossible) and promotes to the full shape list only when a second
   node arrives — the SmartTrack ordering of cheap cases first.
   Lock-sets are interned by value in a per-call table, so shapes
   compare lock-sets as ids and disjointness is memoised per id pair
   instead of re-walking lock lists on every access.

   [naive] is the deliberately boring reference: split into epochs with
   [Trace.Epoch.split], compare every access pair per address. The two
   implementations share the report type and nothing else; the fuzzer's
   sixth oracle holds them equal. *)

module Hooks = struct
  let break_lock_intersection = ref false
  let break_epoch_boundary = ref false
end

type access = { a_node : int; a_pc : int; a_write : bool; a_locks : int list }

type race = { r_addr : int; r_epoch : int; r_first : access; r_second : access }

type report = {
  nodes : int;
  epochs : int;
  accesses : int;
  distinct_addrs : int;
  promoted : int;
  racy_addrs : int list;
  races : race list;
}

let racy r = r.races <> []

(* Everything except [promoted], which is fast-path telemetry the naive
   reference reproduces only approximately (it keeps counting after an
   address is proven racy; the streaming detector stops early). *)
let verdict_equal a b =
  a.nodes = b.nodes && a.epochs = b.epochs && a.accesses = b.accesses
  && a.distinct_addrs = b.distinct_addrs
  && a.racy_addrs = b.racy_addrs && a.races = b.races

(* A shape is one distinct way an address was touched this epoch:
   (node, write?, interned lock-set id), pc of the first such access and
   the lock-set itself for the report. Kept in first-occurrence order so
   the first conflicting shape found is the chronologically first racing
   partner — the naive reference finds the same pair by scanning raw
   accesses in order. *)
type shape = {
  s_node : int;
  s_write : bool;
  s_held : int;
  s_locks : int list;
  s_pc : int;
}

let shape ~node ~write ~held ~locks ~pc =
  { s_node = node; s_write = write; s_held = held; s_locks = locks; s_pc = pc }

type state = {
  mutable st_epoch : int;
  mutable owner : int;  (* sole node this epoch, or -1 once promoted *)
  mutable shapes : shape list;  (* first-occurrence order *)
  mutable last_node : int;  (* O(1) same-shape repeat filter *)
  mutable last_write : bool;
  mutable last_held : int;
  mutable raced : bool;  (* sticky across epochs: first race reported *)
}

let detect ~nodes records =
  if nodes <= 0 then invalid_arg "Races.detect: nodes must be positive";
  let states : (int, state) Hashtbl.t = Hashtbl.create 256 in
  (* lock-sets interned by value; id 0 is the empty set *)
  let held_ids : (int list, int) Hashtbl.t = Hashtbl.create 16 in
  let intern = function
    | [] -> 0
    | locks -> (
        match Hashtbl.find_opt held_ids locks with
        | Some id -> id
        | None ->
            let id = Hashtbl.length held_ids + 1 in
            Hashtbl.add held_ids locks id;
            id)
  in
  (* lock-set disjointness memo, keyed on the interned id pair *)
  let disjoint_memo : (int, bool) Hashtbl.t = Hashtbl.create 64 in
  let break_locks = !Hooks.break_lock_intersection in
  let break_epochs = !Hooks.break_epoch_boundary in
  let disjoint (s : shape) ~held ~locks =
    if break_locks then true
    else if s.s_held = 0 || held = 0 then true
    else if s.s_held = held then false
    else
      let key = (s.s_held lsl 30) lor held in
      match Hashtbl.find_opt disjoint_memo key with
      | Some d -> d
      | None ->
          let d = not (List.exists (fun l -> List.mem l locks) s.s_locks) in
          Hashtbl.add disjoint_memo key d;
          d
  in
  let cur_epoch = ref 0 in
  let epochs_closed = ref 0 in
  let misses_since_flush = ref false in
  let accesses = ref 0 in
  let promoted = ref 0 in
  let races_rev = ref [] in
  (* barrier-group accumulator, mirroring Trace.Epoch.split's checks *)
  let pending = ref 0 in
  let pending_vt = ref 0 in
  let pending_bpc = ref 0 in
  let pending_bad = ref false in
  let require_no_partial_group () =
    if !pending <> 0 then
      failwith
        (Printf.sprintf "trace: barrier group has %d records, expected %d"
           !pending nodes)
  in
  let on_barrier ~pc ~vt =
    if !pending = 0 then begin
      pending_vt := vt;
      pending_bpc := pc;
      pending_bad := false
    end
    else if vt <> !pending_vt || pc <> !pending_bpc then pending_bad := true;
    incr pending;
    if !pending = nodes then begin
      if !pending_bad then failwith "trace: inconsistent barrier group";
      pending := 0;
      if not break_epochs then begin
        incr epochs_closed;
        incr cur_epoch;
        misses_since_flush := false
      end
    end
  in
  let conflict (s : shape) ~node ~write ~held ~locks =
    s.s_node <> node && (s.s_write || write) && disjoint s ~held ~locks
  in
  let on_miss { Trace.Event.node; pc; addr; kind; held = locks } =
    require_no_partial_group ();
    if node < 0 || node >= nodes then
      failwith (Printf.sprintf "trace: node %d out of range" node);
    incr accesses;
    misses_since_flush := true;
    let write = kind <> Trace.Event.Read_miss in
    let held = intern locks in
    let st =
      match Hashtbl.find_opt states addr with
      | Some st -> st
      | None ->
          let st =
            {
              st_epoch = -1;
              owner = node;
              shapes = [];
              last_node = -1;
              last_write = false;
              last_held = -1;
              raced = false;
            }
          in
          Hashtbl.add states addr st;
          st
    in
    if st.st_epoch <> !cur_epoch then begin
      (* clock join: the previous epoch's history is barrier-ordered
         before us, so the state restarts on the fast path *)
      st.st_epoch <- !cur_epoch;
      st.owner <- node;
      st.shapes <- [ shape ~node ~write ~held ~locks ~pc ];
      st.last_node <- node;
      st.last_write <- write;
      st.last_held <- held
    end
    else if st.raced then ()
    else if node = st.last_node && write = st.last_write && held = st.last_held
    then () (* same node repeating the same shape: the common tight loop *)
    else begin
      st.last_node <- node;
      st.last_write <- write;
      st.last_held <- held;
      if st.owner <> node && st.owner >= 0 then begin
        st.owner <- -1;
        incr promoted
      end;
      let rec check = function
        | [] -> st.shapes <- st.shapes @ [ shape ~node ~write ~held ~locks ~pc ]
        | s :: rest ->
            if conflict s ~node ~write ~held ~locks then begin
              st.raced <- true;
              races_rev :=
                {
                  r_addr = addr;
                  r_epoch = !cur_epoch;
                  r_first =
                    {
                      a_node = s.s_node;
                      a_pc = s.s_pc;
                      a_write = s.s_write;
                      a_locks = s.s_locks;
                    };
                  r_second =
                    {
                      a_node = node;
                      a_pc = pc;
                      a_write = write;
                      a_locks = locks;
                    };
                }
                :: !races_rev
            end
            else if s.s_node = node && s.s_write = write && s.s_held = held then
              () (* shape already recorded *)
            else check rest
      in
      if st.owner = node then begin
        (* single owner: no conflict possible, just record the shape *)
        if
          not
            (List.exists
               (fun s -> s.s_node = node && s.s_write = write && s.s_held = held)
               st.shapes)
        then st.shapes <- st.shapes @ [ shape ~node ~write ~held ~locks ~pc ]
      end
      else check st.shapes
    end
  in
  List.iter
    (function
      | Trace.Event.Miss m -> on_miss m
      | Trace.Event.Barrier b -> on_barrier ~pc:b.bpc ~vt:b.vt
      | Trace.Event.Label _ -> ())
    records;
  require_no_partial_group ();
  if !misses_since_flush then incr epochs_closed;
  let races = List.rev !races_rev in
  {
    nodes;
    epochs = !epochs_closed;
    accesses = !accesses;
    distinct_addrs = Hashtbl.length states;
    promoted = !promoted;
    racy_addrs = List.sort compare (List.map (fun r -> r.r_addr) races);
    races;
  }

(* ------------------------------------------------------------------ *)
(* Naive reference: Trace.Epoch.split, then pairwise per address. *)

let naive_disjoint l1 l2 = not (List.exists (fun l -> List.mem l l2) l1)

let naive ~nodes records =
  if nodes <= 0 then invalid_arg "Races.naive: nodes must be positive";
  let epochs, _labels = Trace.Epoch.split ~nodes records in
  let racy : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let all_addrs : (int, unit) Hashtbl.t = Hashtbl.create 256 in
  let accesses = ref 0 in
  let promoted = ref 0 in
  let races_rev = ref [] in
  List.iter
    (fun (e : Trace.Epoch.t) ->
      (* per-address access history within this epoch, oldest first *)
      let seen : (int, access list) Hashtbl.t = Hashtbl.create 64 in
      List.iter
        (fun (m : Trace.Event.miss) ->
          incr accesses;
          Hashtbl.replace all_addrs m.addr ();
          let a =
            {
              a_node = m.node;
              a_pc = m.pc;
              a_write = m.kind <> Trace.Event.Read_miss;
              a_locks = m.held;
            }
          in
          let prev =
            Option.value ~default:[] (Hashtbl.find_opt seen m.addr)
          in
          if not (Hashtbl.mem racy m.addr) then begin
            let conflicting =
              List.find_opt
                (fun p ->
                  p.a_node <> a.a_node
                  && (p.a_write || a.a_write)
                  && naive_disjoint p.a_locks a.a_locks)
                (List.rev prev)
            in
            match conflicting with
            | Some first ->
                Hashtbl.replace racy m.addr ();
                races_rev :=
                  {
                    r_addr = m.addr;
                    r_epoch = e.Trace.Epoch.index;
                    r_first = first;
                    r_second = a;
                  }
                  :: !races_rev
            | None -> ()
          end;
          Hashtbl.replace seen m.addr (a :: prev))
        e.Trace.Epoch.misses;
      (* promotion telemetry: addresses touched by >= 2 nodes this epoch *)
      Hashtbl.iter
        (fun _addr accs ->
          let nodes_mask =
            List.fold_left (fun m a -> m lor (1 lsl a.a_node)) 0 accs
          in
          if Memsys.Directory.popcount nodes_mask >= 2 then incr promoted)
        seen)
    epochs;
  let races = List.rev !races_rev in
  {
    nodes;
    epochs = List.length epochs;
    accesses = !accesses;
    distinct_addrs = Hashtbl.length all_addrs;
    promoted = !promoted;
    racy_addrs = List.sort compare (List.map (fun r -> r.r_addr) races);
    races;
  }

(* ------------------------------------------------------------------ *)
(* Rendering — one canonical form shared by every surface. *)

let verdict_line r =
  if racy r then "race verdict: racy" else "race verdict: race-free"

let locks_to_string = function
  | [] -> "{}"
  | ls -> "{" ^ String.concat "," (List.map string_of_int ls) ^ "}"

let access_to_string a =
  Printf.sprintf "node %d pc %d %s locks %s" a.a_node a.a_pc
    (if a.a_write then "write" else "read")
    (locks_to_string a.a_locks)

let to_human r =
  let buf = Buffer.create 256 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "%s\n" (verdict_line r);
  pr "nodes: %d  epochs: %d  accesses: %d  addrs: %d  promoted: %d\n" r.nodes
    r.epochs r.accesses r.distinct_addrs r.promoted;
  (match r.races with
  | [] -> ()
  | first :: _ ->
      pr "racy addresses (%d):%s\n"
        (List.length r.racy_addrs)
        (String.concat ""
           (List.map (fun a -> Printf.sprintf " %d" a) r.racy_addrs));
      pr "first race: addr %d epoch %d\n" first.r_addr first.r_epoch;
      pr "  %s\n" (access_to_string first.r_first);
      pr "  %s\n" (access_to_string first.r_second));
  Buffer.contents buf

let json_access a =
  Printf.sprintf {|{"node":%d,"pc":%d,"write":%b,"locks":[%s]}|} a.a_node
    a.a_pc a.a_write
    (String.concat "," (List.map string_of_int a.a_locks))

let to_json r =
  let first_race =
    match r.races with
    | [] -> "null"
    | f :: _ ->
        Printf.sprintf {|{"addr":%d,"epoch":%d,"first":%s,"second":%s}|}
          f.r_addr f.r_epoch (json_access f.r_first) (json_access f.r_second)
  in
  Printf.sprintf
    {|{"verdict":"%s","nodes":%d,"epochs":%d,"accesses":%d,"distinct_addrs":%d,"promoted":%d,"racy_addrs":[%s],"first_race":%s}|}
    (if racy r then "racy" else "race-free")
    r.nodes r.epochs r.accesses r.distinct_addrs r.promoted
    (String.concat "," (List.map string_of_int r.racy_addrs))
    first_race
  ^ "\n"

let render r = to_human r ^ to_json r
