(* Streaming race detection over the miss-record list.

   One fold over the records keeps a plain record per address: the epoch
   it was last touched in, the node that alone has touched it this epoch,
   its distinct accesses this epoch in first-occurrence order, and
   whether it has raced. A barrier group is the clock join: instead of
   clearing every record at a barrier, a record stamped with an earlier
   epoch restarts the next time its address is touched. Each access is
   checked against the address's distinct accesses in order, so the
   first conflict found is the chronologically first racing partner.

   [naive] is the deliberately boring reference: split into epochs with
   [Trace.Epoch.split], compare every access pair per address. The two
   implementations share the report type and nothing else; the tests and
   the fuzzer's sixth oracle hold their reports equal. *)

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

type entry = {
  mutable epoch : int;
  mutable owner : int;  (* the node that alone touched it, or -1 *)
  mutable seen : access list;  (* one per (node, write, locks), first pc *)
  mutable raced : bool;  (* only an address's first race is reported *)
}

let detect ~nodes records =
  if nodes <= 0 then invalid_arg "Races.detect: nodes must be positive";
  let entries : (int, entry) Hashtbl.t = Hashtbl.create 256 in
  let epoch = ref 0 and open_epoch = ref false in
  let accesses = ref 0 and promoted = ref 0 and races = ref [] in
  let group = ref [] in (* this barrier group's (pc, vt) arrivals *)
  let no_partial_group () =
    if not (List.is_empty !group) then
      failwith
        (Printf.sprintf "trace: barrier group has %d records, expected %d"
           (List.length !group) nodes)
  in
  let on_barrier { Trace.Event.bpc; vt; _ } =
    group := (bpc, vt) :: !group;
    if List.length !group = nodes then begin
      if List.exists (( <> ) (bpc, vt)) !group then
        failwith "trace: inconsistent barrier group";
      group := [];
      if not !Hooks.break_epoch_boundary then (incr epoch; open_epoch := false)
    end
  in
  let conflict s a =
    s.a_node <> a.a_node && (s.a_write || a.a_write)
    && (!Hooks.break_lock_intersection
       || not (List.exists (fun l -> List.mem l a.a_locks) s.a_locks))
  in
  let same s a =
    s.a_node = a.a_node && s.a_write = a.a_write
    && List.equal Int.equal s.a_locks a.a_locks
  in
  let on_miss { Trace.Event.node; pc; addr; kind; held } =
    no_partial_group ();
    if node < 0 || node >= nodes then
      failwith (Printf.sprintf "trace: node %d out of range" node);
    incr accesses;
    open_epoch := true;
    let write = kind <> Trace.Event.Read_miss in
    let a = { a_node = node; a_pc = pc; a_write = write; a_locks = held } in
    match Hashtbl.find_opt entries addr with
    | Some e when e.raced -> ()
    | Some e when e.epoch = !epoch ->
        if e.owner <> node && e.owner >= 0 then (e.owner <- -1; incr promoted);
        let rec scan = function
          | [] -> e.seen <- e.seen @ [ a ]
          | s :: _ when conflict s a ->
              e.raced <- true;
              races :=
                { r_addr = addr; r_epoch = !epoch; r_first = s; r_second = a }
                :: !races
          | s :: rest -> if not (same s a) then scan rest
        in
        scan e.seen
    | Some e ->
        (* first touch this epoch: the lazy epoch join restarts it *)
        e.epoch <- !epoch;
        e.owner <- node;
        e.seen <- [ a ]
    | None ->
        Hashtbl.add entries addr
          { epoch = !epoch; owner = node; seen = [ a ]; raced = false }
  in
  List.iter
    (function
      | Trace.Event.Miss m -> on_miss m
      | Trace.Event.Barrier b -> on_barrier b
      | Trace.Event.Label _ -> ())
    records;
  no_partial_group ();
  let races = List.rev !races in
  {
    nodes;
    epochs = !epoch + Bool.to_int !open_epoch;
    accesses = !accesses;
    distinct_addrs = Hashtbl.length entries;
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
  (* racy address -> the epoch of its first race *)
  let racy : (int, int) Hashtbl.t = Hashtbl.create 16 in
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
                Hashtbl.replace racy m.addr e.Trace.Epoch.index;
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
      (* promoted: addresses two nodes touched this epoch, unless they
         raced in an earlier one *)
      Hashtbl.iter
        (fun addr accs ->
          let shared =
            List.exists (fun a -> a.a_node <> (List.hd accs).a_node) accs
          in
          let raced_before =
            match Hashtbl.find_opt racy addr with
            | Some first -> first < e.Trace.Epoch.index
            | None -> false
          in
          if shared && not raced_before then incr promoted)
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
