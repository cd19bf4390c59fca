(* The per-epoch miss index against the scans it replaced. Each property
   keeps the old per-address / per-node / per-pc scan as a reference and
   checks the indexed answer equal on random traces. *)

module Iset = Trace.Epoch.Iset

(* ---- random traces ---- *)

(* A miss: node, pc, address, kind, lockset. Half the locksets are
   empty, so the lock-free DRFS path and the lockset path both run. *)
let miss_gen ~nodes ~addrs =
  QCheck.Gen.(
    map
      (fun (node, pc, addr, (kind, held)) ->
        {
          Trace.Event.node;
          pc;
          addr;
          kind =
            (match kind with
            | 0 -> Trace.Event.Read_miss
            | 1 -> Trace.Event.Write_miss
            | _ -> Trace.Event.Write_fault);
          held;
        })
      (quad (int_bound (nodes - 1)) (int_bound 11) (int_bound addrs)
         (pair (int_bound 2)
            (frequency
               [ (1, return []); (1, list_size (int_range 1 2) (int_range 1 3)) ]))))

(* Epochs of up to 200 misses, closed by full barrier groups.
   Addresses are small so addresses, blocks and pcs collide. *)
let trace_gen =
  QCheck.Gen.(
    int_range 1 4 >>= fun nodes ->
    oneofl [ 64; 300; 4096 ] >>= fun addrs ->
    list_size (int_range 1 4) (list_size (int_range 0 200) (miss_gen ~nodes ~addrs))
    >|= fun epochs -> (nodes, epochs))

let records_of (nodes, epochs) =
  List.concat
    (List.mapi
       (fun i ms ->
         List.map (fun m -> Trace.Event.Miss m) ms
         @ List.init nodes (fun b ->
               Trace.Event.Barrier { bnode = b; bpc = 100 + i; vt = i }))
       epochs)

let print_trace (nodes, epochs) =
  Printf.sprintf "%d nodes, epochs of %s misses" nodes
    (String.concat "," (List.map (fun e -> string_of_int (List.length e)) epochs))

let arb_trace = QCheck.make ~print:print_trace trace_gen

let with_info tr f =
  let nodes, _ = tr in
  let info = Cachier.Epoch_info.build ~nodes ~block_size:32 (records_of tr) in
  List.for_all (f info) (List.init (Cachier.Epoch_info.n_epochs info) Fun.id)

let misses_of info e = info.Cachier.Epoch_info.epochs.(e).Trace.Epoch.misses

(* ---- references: the old scans ---- *)

let ref_pcs_of misses addr =
  List.filter_map
    (fun (m : Trace.Event.miss) -> if m.addr = addr then Some m.pc else None)
    misses
  |> List.sort_uniq compare

let ref_sw_others info ~epoch ~node =
  let acc = ref Iset.empty in
  Array.iteri
    (fun n (ns : Cachier.Epoch_info.node_sets) ->
      if n <> node then acc := Iset.union !acc ns.Cachier.Epoch_info.sw)
    info.Cachier.Epoch_info.sets.(epoch);
  !acc

(* The hash-table, all-pairs DRFS analysis the index replaced. *)
let ref_drfs ~block_size misses =
  let per_addr = Hashtbl.create 64 in
  List.iter
    (fun (m : Trace.Event.miss) ->
      let nodes, writers, accesses =
        Option.value ~default:(0, 0, []) (Hashtbl.find_opt per_addr m.addr)
      in
      let is_write = m.kind <> Trace.Event.Read_miss in
      Hashtbl.replace per_addr m.addr
        ( nodes lor (1 lsl m.node),
          (if is_write then writers lor (1 lsl m.node) else writers),
          (m.node, is_write, m.held) :: accesses ))
    misses;
  let pair_races (n1, w1, l1) (n2, w2, l2) =
    n1 <> n2 && (w1 || w2) && not (List.exists (fun l -> List.mem l l2) l1)
  in
  let rec any = function
    | [] -> false
    | a :: rest -> List.exists (pair_races a) rest || any rest
  in
  let popcount = Memsys.Directory.popcount in
  let races =
    Hashtbl.fold
      (fun addr (nodes, writers, accesses) acc ->
        if writers <> 0 && popcount nodes >= 2 && any accesses
        then Iset.add addr acc
        else acc)
      per_addr Iset.empty
  in
  let conflict writers accessors =
    writers <> 0
    && (popcount writers >= 2
       || accessors land lnot writers <> 0
       || popcount accessors >= 2)
  in
  let per_block = Hashtbl.create 64 in
  Hashtbl.iter
    (fun addr info ->
      let blk = addr / block_size in
      Hashtbl.replace per_block blk
        ((addr, info) :: Option.value ~default:[] (Hashtbl.find_opt per_block blk)))
    per_addr;
  let fs =
    Hashtbl.fold
      (fun _ members acc ->
        List.fold_left
          (fun acc (a, (na, wa, _)) ->
            if
              List.exists
                (fun (b, (nb, wb, _)) ->
                  b <> a && (conflict wa nb || conflict wb na))
                members
            then Iset.add a acc
            else acc)
          acc members)
      per_block Iset.empty
  in
  (races, fs)

(* ---- properties ---- *)

let prop_pcs_of_addr =
  QCheck.Test.make ~count:200 ~name:"indexed pcs per address = filter over misses"
    arb_trace (fun tr ->
      with_info tr (fun info e ->
          let misses = misses_of info e in
          List.for_all
            (fun (m : Trace.Event.miss) ->
              Cachier.Epoch_info.pcs_of_addr info ~epoch:e m.addr
              = ref_pcs_of misses m.addr
              && Cachier.Epoch_info.pcs_of_addr info ~epoch:e (m.addr + 1)
                 = ref_pcs_of misses (m.addr + 1))
            misses))

let prop_sw_others =
  QCheck.Test.make ~count:200 ~name:"other-nodes SW unions = per-node fold"
    arb_trace (fun tr ->
      let nodes, _ = tr in
      with_info tr (fun info e ->
          List.for_all
            (fun node ->
              Iset.equal
                (Cachier.Epoch_info.sw_others info ~epoch:e ~node)
                (ref_sw_others info ~epoch:e ~node))
            (List.init nodes Fun.id)))

let prop_drfs =
  QCheck.Test.make ~count:300
    ~name:"lock-free DRFS verdict = pairwise lockset check" arb_trace
    (fun tr ->
      with_info tr (fun info e ->
          let misses = misses_of info e in
          let races, fs = ref_drfs ~block_size:32 misses in
          let d =
            Cachier.Drfs.analyze_sorted ~block_size:32
              (Trace.Epoch.by_address misses)
          in
          Iset.equal races (Cachier.Drfs.race d)
          && Iset.equal fs (Cachier.Drfs.false_shared d)
          && Iset.equal (Iset.union races fs)
               (Cachier.Drfs.drfs_set info.Cachier.Epoch_info.drfs.(e))))

(* Counts per pc of the misses with an address in [lo, hi]. *)
let pc_counts visit =
  let t = Hashtbl.create 16 in
  visit (fun (m : Trace.Event.miss) ->
      Hashtbl.replace t m.pc (1 + Option.value ~default:0 (Hashtbl.find_opt t m.pc)));
  List.sort compare (Hashtbl.fold (fun pc c acc -> (pc, c) :: acc) t [])

let prop_slices =
  QCheck.Test.make ~count:200
    ~name:"array slices and per-pc counts = full-list counts"
    (QCheck.pair arb_trace (QCheck.pair QCheck.small_nat QCheck.small_nat))
    (fun (tr, (a, b)) ->
      let lo = min a b * 7 and hi = max a b * 7 in
      with_info tr (fun info e ->
          let misses = misses_of info e in
          let inside (m : Trace.Event.miss) = m.addr >= lo && m.addr <= hi in
          let sliced = ref [] in
          Cachier.Epoch_info.iter_range info ~epoch:e ~lo ~hi (fun m ->
              sliced := m :: !sliced);
          let sliced = List.rev !sliced in
          let addrs = List.map (fun (m : Trace.Event.miss) -> m.addr) sliced in
          (* the slice is exactly the range's misses, in address order,
             trace order kept within an address *)
          addrs = List.sort compare addrs
          && sliced
             = List.stable_sort
                 (fun (x : Trace.Event.miss) y -> compare x.addr y.addr)
                 (List.filter inside misses)
          && pc_counts (fun f -> List.iter f sliced)
             = pc_counts (fun f -> List.iter (fun m -> if inside m then f m) misses)))

(* ---- the address order and the per-node sets over the whole int range ---- *)

(* Addresses that collide (a small range), far apart ones (the whole int
   range) and the extremes. *)
let wide_addr =
  QCheck.Gen.(
    frequency
      [
        (3, int_range (-16) 16);
        (3, int);
        (1, oneofl [ min_int; max_int; min_int + 1; max_int - 1 ]);
      ])

let wide_epochs_gen =
  QCheck.Gen.(
    int_range 1 4 >>= fun nodes ->
    list_size (int_range 1 3)
      (list_size (int_range 0 300)
         (map
            (fun (node, pc, addr, kind) ->
              {
                Trace.Event.node;
                pc;
                addr;
                kind =
                  (match kind with
                  | 0 -> Trace.Event.Read_miss
                  | 1 -> Trace.Event.Write_miss
                  | _ -> Trace.Event.Write_fault);
                held = [];
              })
            (quad (int_bound (nodes - 1)) (int_bound 11) wide_addr
               (int_bound 2))))
    >|= fun epochs -> (nodes, epochs))

let arb_wide = QCheck.make ~print:print_trace wide_epochs_gen

let prop_by_address_wide =
  QCheck.Test.make ~count:300
    ~name:"address order over the whole int range = List.stable_sort"
    arb_wide (fun (_, epochs) ->
      List.for_all
        (fun misses ->
          Array.to_list (Trace.Epoch.by_address misses)
          = List.stable_sort
              (fun (x : Trace.Event.miss) y -> compare x.addr y.addr)
              misses)
        epochs)

(* The derivation the sorted pass replaced: a list per (node, kind)
   bucket, each made a set by [of_list]. *)
let ref_per_node ~nodes misses =
  let reads = Array.make nodes []
  and writes = Array.make nodes []
  and faults = Array.make nodes [] in
  List.iter
    (fun (m : Trace.Event.miss) ->
      let bucket =
        match m.kind with
        | Trace.Event.Read_miss -> reads
        | Trace.Event.Write_miss -> writes
        | Trace.Event.Write_fault -> faults
      in
      bucket.(m.node) <- m.addr :: bucket.(m.node))
    misses;
  Array.init nodes (fun n ->
      {
        Trace.Epoch.reads = Iset.of_list reads.(n);
        writes = Iset.of_list writes.(n);
        faults = Iset.of_list faults.(n);
      })

let prop_per_node_wide =
  QCheck.Test.make ~count:300
    ~name:"per-node reads, writes and faults = a list per bucket"
    arb_wide (fun tr ->
      let nodes, _ = tr in
      let epochs, _ = Trace.Epoch.split ~nodes (records_of tr) in
      List.for_all
        (fun (e : Trace.Epoch.t) ->
          e.Trace.Epoch.per_node = ref_per_node ~nodes e.Trace.Epoch.misses
          && e.Trace.Epoch.by_addr
             = Trace.Epoch.by_address e.Trace.Epoch.misses)
        epochs)

let suite =
  List.map Qc.qtest
    [
      prop_pcs_of_addr;
      prop_sw_others;
      prop_drfs;
      prop_slices;
      prop_by_address_wide;
      prop_per_node_wide;
    ]
