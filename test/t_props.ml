(* Property-based tests (qcheck) on core data structures and invariants. *)

module Iset = Trace.Epoch.Iset

let qtest = Qc.qtest

(* ---- cache invariants ----

   Every cache/protocol property runs over several geometries, including
   a 3-way 768-byte one: 8 sets (power of two, as Cache.create demands)
   but 24 blocks total — a non-power-of-two capacity that catches
   masking-based indexing mistakes 2-way/4-way configurations hide. *)

let geometries = [ (512, 2, 32); (768, 3, 32); (2048, 4, 64); (256, 1, 32) ]

let gname (size, assoc, block) = Printf.sprintf "%dB/%d-way/%dB" size assoc block

let for_all_geometries f = List.for_all (fun g -> f g) geometries

let cache_ops_gen =
  QCheck.(list_of_size (Gen.int_range 0 300) (pair (int_range 0 63) bool))

let prop_cache_occupancy =
  QCheck.Test.make ~count:300 ~name:"cache occupancy bounded and consistent"
    cache_ops_gen (fun ops ->
      for_all_geometries (fun (size_bytes, assoc, block_size) ->
          let c = Memsys.Cache.create ~size_bytes ~assoc ~block_size in
          List.iter
            (fun (blk, insert) ->
              if insert then
                ignore
                  (Memsys.Cache.insert c ~block:blk ~state:Memsys.Cache.Shared
                     ~dirty:false ~ready_at:0)
              else ignore (Memsys.Cache.remove c blk))
            ops;
          let counted = ref 0 in
          Memsys.Cache.iter c (fun _ -> incr counted);
          !counted = Memsys.Cache.occupancy c
          && Memsys.Cache.occupancy c <= Memsys.Cache.capacity_blocks c))

let prop_cache_no_duplicates =
  QCheck.Test.make ~count:300 ~name:"cache never holds a block twice"
    cache_ops_gen (fun ops ->
      for_all_geometries (fun (size_bytes, assoc, block_size) ->
          let c = Memsys.Cache.create ~size_bytes ~assoc ~block_size in
          List.iter
            (fun (blk, insert) ->
              if insert then
                ignore
                  (Memsys.Cache.insert c ~block:blk ~state:Memsys.Cache.Exclusive
                     ~dirty:true ~ready_at:0)
              else Memsys.Cache.touch c blk)
            ops;
          let seen = Hashtbl.create 16 in
          let dup = ref false in
          Memsys.Cache.iter c (fun l ->
              if Hashtbl.mem seen l.Memsys.Cache.block then dup := true;
              Hashtbl.add seen l.Memsys.Cache.block ());
          not !dup))

(* ---- protocol invariants ----

   Each case drives one backend, drawn from [Protocol_id.all] as part of
   the case so a shrunk counterexample keeps its backend. Three quarters
   of the addresses fall in 16 hot blocks, so nodes contend for them; the
   rest spread over [far_bytes], which takes block indices eight times
   past the flat tables' initial size (at the 32-byte block size) and
   makes them grow mid-run. *)

let far_bytes = 8 * Memsys.Block_table.initial_blocks * 32

let addr_arb =
  QCheck.make ~print:string_of_int ~shrink:QCheck.Shrink.int
    QCheck.Gen.(
      frequency [ (3, int_range 0 511); (1, int_range 0 (far_bytes - 1)) ])

let access_gen_of backends =
  QCheck.(
    pair
      (oneofl ~print:Memsys.Protocol_id.to_string backends)
      (list_of_size (Gen.int_range 1 400)
         (triple (int_range 0 3) addr_arb (int_range 0 10))))

let access_gen = access_gen_of Memsys.Protocol_id.all

let run_protocol ?(geometry = (512, 2, 32)) ~backend ops =
  let cache_bytes, assoc, block_size = geometry in
  let p =
    Memsys.Protocol.create_b ~backend ~nodes:4 ~cache_bytes ~assoc ~block_size
      ~costs:Memsys.Network.default
  in
  List.iteri
    (fun i (node, addr, op) ->
      let now = i * 10 in
      match op with
      | 0 -> ignore (Memsys.Protocol.read p ~node ~addr ~now)
      | 1 -> ignore (Memsys.Protocol.write p ~node ~addr ~now)
      | 2 -> ignore (Memsys.Protocol.check_out_x p ~node ~addr ~now)
      | 3 -> ignore (Memsys.Protocol.check_in p ~node ~addr ~now)
      | 4 -> ignore (Memsys.Protocol.prefetch_s p ~node ~addr ~now)
      | 5 -> ignore (Memsys.Protocol.check_out_s p ~node ~addr ~now)
      | 6 -> ignore (Memsys.Protocol.post_store p ~node ~addr ~now)
      | 7 -> ignore (Memsys.Protocol.read_rmw_p p ~node ~addr ~now)
      | 8 -> ignore (Memsys.Protocol.write_rmw_p p ~node ~addr ~now)
      | 9 -> ignore (Memsys.Protocol.prefetch_x p ~node ~addr ~now)
      | _ -> Memsys.Protocol.epoch_boundary p)
    ops;
  p

(* The same audit the fuzzer's protocol oracle runs after every
   transition, here driven by raw directive sequences no program would
   produce. *)
let prop_protocol_invariants_hold =
  QCheck.Test.make ~count:150
    ~name:"raw access sequences never break the protocol audit" access_gen
    (fun (backend, ops) ->
      for_all_geometries (fun geometry ->
          let p = run_protocol ~geometry ~backend ops in
          match Memsys.Protocol.check_invariants p with
          | None -> true
          | Some m ->
              QCheck.Test.fail_reportf "%s audit failed on %s: %s"
                (Memsys.Protocol_id.to_string backend)
                (gname geometry) m))

(* Dir1SW's single-writer discipline, so the backends whose directory is
   Dir1SW's. SiSd leaves stale copies beside the last writer by design;
   its directory rules are audited by [check_invariants] above. *)
let prop_directory_consistent_with_caches =
  QCheck.Test.make ~count:150
    ~name:"directory exclusive implies sole cached copy"
    (access_gen_of Memsys.Protocol_id.[ Dir1sw; Commute ])
    (fun (backend, ops) ->
      let p = run_protocol ~backend ops in
      let dir = Memsys.Protocol.directory p in
      List.for_all
        (fun (blk, state) ->
          match state with
          | Memsys.Directory.Exclusive owner ->
              (* the owner holds it exclusive; nobody else holds it *)
              (match Memsys.Cache.find (Memsys.Protocol.cache p ~node:owner) blk with
              | Some l -> l.Memsys.Cache.state = Memsys.Cache.Exclusive
              | None -> false)
              && List.for_all
                   (fun node ->
                     node = owner
                     || Memsys.Cache.find (Memsys.Protocol.cache p ~node) blk = None)
                   [ 0; 1; 2; 3 ]
          | Memsys.Directory.Shared _ ->
              (* every *cached* copy is in the Shared state and is listed
                 (stale directory entries for silently evicted copies are
                 allowed) *)
              List.for_all
                (fun node ->
                  match Memsys.Cache.find (Memsys.Protocol.cache p ~node) blk with
                  | Some l ->
                      l.Memsys.Cache.state = Memsys.Cache.Shared
                      && Memsys.Directory.is_sharer dir blk ~node
                  | None -> true)
                [ 0; 1; 2; 3 ]
          | Memsys.Directory.Idle -> true)
        (Memsys.Directory.entries dir))

let prop_latencies_positive =
  QCheck.Test.make ~count:150 ~name:"every access has positive latency"
    access_gen (fun (backend, ops) ->
      for_all_geometries (fun (cache_bytes, assoc, block_size) ->
          let p =
            Memsys.Protocol.create_b ~backend ~nodes:4 ~cache_bytes ~assoc
              ~block_size ~costs:Memsys.Network.default
          in
          List.for_all
            (fun (node, addr, op) ->
              let o =
                match op mod 2 with
                | 0 -> Memsys.Protocol.read p ~node ~addr ~now:0
                | _ -> Memsys.Protocol.write p ~node ~addr ~now:0
              in
              o.Memsys.Protocol.latency > 0)
            ops))

(* ---- equation invariants ---- *)

let trace_gen =
  QCheck.(
    list_of_size (Gen.int_range 0 120)
      (triple (int_range 0 2) (int_range 0 15) (int_range 0 2)))

let records_of_ops ops =
  (* split operations into 3 epochs over 3 nodes, addresses block-spaced *)
  let n = List.length ops in
  let records = ref [] in
  List.iteri
    (fun i (node, slot, kind) ->
      let addr = slot * 8 in
      let kind =
        match kind with
        | 0 -> Trace.Event.Read_miss
        | 1 -> Trace.Event.Write_miss
        | _ -> Trace.Event.Write_fault
      in
      records := Trace.Event.Miss { node; pc = i; addr; kind; held = [] } :: !records;
      if (i + 1) mod (max 1 (n / 3)) = 0 then
        for b = 0 to 2 do
          records := Trace.Event.Barrier { bnode = b; bpc = 999; vt = i } :: !records
        done)
    ops;
  List.rev !records

let with_info ops f =
  match Cachier.Epoch_info.build ~nodes:3 ~block_size:32 (records_of_ops ops) with
  | info -> f info
  | exception Failure _ -> true (* malformed barrier grouping: skip *)

let prop_cox_subset_sw =
  QCheck.Test.make ~count:250 ~name:"Programmer co_x ⊆ SW" trace_gen (fun ops ->
      with_info ops (fun info ->
          let all = Cachier.Equations.all Cachier.Equations.Programmer info in
          Array.to_list all
          |> List.for_all (fun per_node ->
                 Array.to_list per_node
                 |> List.for_all (fun (a : Cachier.Equations.annots) ->
                        Iset.subset a.Cachier.Equations.co_x
                          (Iset.union
                             (Array.fold_left
                                (fun acc row ->
                                  Array.fold_left
                                    (fun acc (ns : Cachier.Epoch_info.node_sets) ->
                                      Iset.union acc ns.Cachier.Epoch_info.sw)
                                    acc row)
                                Iset.empty info.Cachier.Epoch_info.sets)
                             Iset.empty)))))

let prop_perf_cox_subset_faults =
  QCheck.Test.make ~count:250 ~name:"Performance co_x ⊆ write faults" trace_gen
    (fun ops ->
      with_info ops (fun info ->
          let faults =
            Array.fold_left
              (fun acc row ->
                Array.fold_left
                  (fun acc (ns : Cachier.Epoch_info.node_sets) ->
                    Iset.union acc ns.Cachier.Epoch_info.wf)
                  acc row)
              Iset.empty info.Cachier.Epoch_info.sets
          in
          let all = Cachier.Equations.all Cachier.Equations.Performance info in
          Array.for_all
            (fun per_node ->
              Array.for_all
                (fun (a : Cachier.Equations.annots) ->
                  Iset.subset a.Cachier.Equations.co_x faults)
                per_node)
            all))

let prop_perf_cos_empty =
  QCheck.Test.make ~count:250 ~name:"Performance co_s = ∅" trace_gen (fun ops ->
      with_info ops (fun info ->
          let all = Cachier.Equations.all Cachier.Equations.Performance info in
          Array.for_all
            (fun per_node ->
              Array.for_all
                (fun (a : Cachier.Equations.annots) ->
                  Iset.is_empty a.Cachier.Equations.co_s)
                per_node)
            all))

let prop_ci_subset_s =
  QCheck.Test.make ~count:250 ~name:"Programmer ci ⊆ S of the epoch" trace_gen
    (fun ops ->
      with_info ops (fun info ->
          let all = Cachier.Equations.all Cachier.Equations.Programmer info in
          let ok = ref true in
          Array.iteri
            (fun e per_node ->
              Array.iteri
                (fun n (a : Cachier.Equations.annots) ->
                  let s =
                    Cachier.Epoch_info.s_of
                      (Cachier.Epoch_info.sets_at info ~epoch:e ~node:n)
                  in
                  if not (Iset.subset a.Cachier.Equations.ci s) then ok := false)
                per_node)
            all;
          !ok))

(* ---- presentation properties ---- *)

let prop_coalesce_preserves =
  QCheck.Test.make ~count:400 ~name:"coalesce preserves the element set"
    QCheck.(list_of_size (Gen.int_range 0 50) (int_range 0 100))
    (fun xs ->
      let ranges = Cachier.Presentation.coalesce xs in
      let expanded =
        List.concat_map (fun (lo, hi) -> List.init (hi - lo + 1) (fun i -> lo + i)) ranges
      in
      expanded = List.sort_uniq compare xs)

let prop_coalesce_maximal =
  QCheck.Test.make ~count:400 ~name:"coalesced ranges are maximal and sorted"
    QCheck.(list_of_size (Gen.int_range 0 50) (int_range 0 100))
    (fun xs ->
      let ranges = Cachier.Presentation.coalesce xs in
      let rec ok = function
        | (lo1, hi1) :: ((lo2, _) :: _ as rest) ->
            lo1 <= hi1 && lo2 > hi1 + 1 && ok rest
        | [ (lo, hi) ] -> lo <= hi
        | [] -> true
      in
      ok ranges)

let prop_block_align_covers =
  QCheck.Test.make ~count:400 ~name:"block alignment only widens coverage"
    QCheck.(list_of_size (Gen.int_range 0 20) (pair (int_range 0 50) (int_range 0 10)))
    (fun pairs ->
      let ranges = List.map (fun (lo, len) -> (lo, lo + len)) pairs in
      let aligned =
        Cachier.Presentation.block_align_ranges ~elems_per_block:4 ranges
      in
      let covered (lo, hi) =
        List.exists (fun (alo, ahi) -> alo <= lo && hi <= ahi) aligned
      in
      List.for_all covered ranges)

(* ---- trace round trip ---- *)

let record_gen =
  QCheck.Gen.(
    frequency
      [
        ( 6,
          map
            (fun (node, pc, addr, k) ->
              Trace.Event.Miss
                {
                  node;
                  pc;
                  addr;
                  kind =
                    (match k mod 3 with
                    | 0 -> Trace.Event.Read_miss
                    | 1 -> Trace.Event.Write_miss
                    | _ -> Trace.Event.Write_fault);
                  held = (if k mod 5 = 0 then [ k mod 7 ] else []);
                })
            (quad (int_range 0 31) (int_range 0 1000) (int_range 0 100000) int) );
        ( 2,
          map
            (fun (n, pc, vt) -> Trace.Event.Barrier { bnode = n; bpc = pc; vt })
            (triple (int_range 0 31) (int_range 0 1000) (int_range 0 1000000)) );
        ( 1,
          map
            (fun (lo, len) -> Trace.Event.Label { name = "arr"; lo; hi = lo + len })
            (pair (int_range 0 1000) (int_range 0 1000)) );
      ])

let prop_trace_round_trip =
  QCheck.Test.make ~count:250 ~name:"trace file round trip"
    (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.int_range 0 60) record_gen))
    (fun records ->
      Trace.Trace_file.of_string (Trace.Trace_file.to_string records) = records)

(* ---- packed buffer ---- *)

let prop_buf_round_trip =
  QCheck.Test.make ~count:250 ~name:"packed buffer of_records round trip"
    (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.int_range 0 60) record_gen))
    (fun records ->
      Trace.Buf.to_records (Trace.Buf.of_records records) = records)

(* iter_packed must present exactly the records of the buffer, in order,
   with held ids that decode to the original lock lists — the contract
   the streaming race detector folds over. *)
let prop_iter_packed_agrees =
  QCheck.Test.make ~count:250 ~name:"iter_packed sees exactly to_records"
    (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.int_range 0 60) record_gen))
    (fun records ->
      let buf = Trace.Buf.of_records records in
      let out = ref [] in
      Trace.Buf.iter_packed buf
        ~miss:(fun ~node ~pc ~addr ~kind ~held ->
          let kind =
            if kind = Trace.Buf.kind_read then Trace.Event.Read_miss
            else if kind = Trace.Buf.kind_write then Trace.Event.Write_miss
            else Trace.Event.Write_fault
          in
          out :=
            Trace.Event.Miss
              { node; pc; addr; kind; held = Trace.Buf.held_list buf held }
            :: !out)
        ~barrier:(fun ~node ~pc ~vt ->
          out := Trace.Event.Barrier { bnode = node; bpc = pc; vt } :: !out)
        ~label:(fun ~name ~lo ~hi ->
          out := Trace.Event.Label { name; lo; hi } :: !out);
      List.rev !out = records)

(* ---- pqueue ---- *)

let prop_pqueue_sorted =
  QCheck.Test.make ~count:400 ~name:"pqueue drains in priority order"
    QCheck.(list_of_size (Gen.int_range 0 100) small_int)
    (fun prios ->
      let q = Wwt.Pqueue.create () in
      List.iter (fun p -> Wwt.Pqueue.push q ~prio:p p) prios;
      let rec drain acc =
        match Wwt.Pqueue.pop q with
        | Some (p, _) -> drain (p :: acc)
        | None -> List.rev acc
      in
      let out = drain [] in
      out = List.sort compare prios)

let suite =
  List.map qtest
    [
      prop_cache_occupancy;
      prop_cache_no_duplicates;
      prop_protocol_invariants_hold;
      prop_directory_consistent_with_caches;
      prop_latencies_positive;
      prop_cox_subset_sw;
      prop_perf_cox_subset_faults;
      prop_perf_cos_empty;
      prop_ci_subset_s;
      prop_coalesce_preserves;
      prop_coalesce_maximal;
      prop_block_align_covers;
      prop_trace_round_trip;
      prop_buf_round_trip;
      prop_iter_packed_agrees;
      prop_pqueue_sorted;
    ]
