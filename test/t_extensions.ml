(* Tests for the extensions beyond the paper's core: the KSR-1 post-store
   directive, lock-aware race detection, and the Section 4.5 training-set
   annotation mode. *)

open Memsys

let costs = Network.default

let mk_protocol () =
  Protocol.create ~nodes:4 ~cache_bytes:1024 ~assoc:2 ~block_size:32 ~costs

(* ---- post-store, protocol level ---- *)

let test_post_store_pushes_to_past_holders () =
  let p = mk_protocol () in
  (* nodes 1 and 2 read the block, then node 0 claims it exclusive
     (invalidating them), writes, and post-stores *)
  ignore (Protocol.read p ~node:1 ~addr:0 ~now:0);
  ignore (Protocol.read p ~node:2 ~addr:0 ~now:0);
  ignore (Protocol.write p ~node:0 ~addr:0 ~now:10);
  let o = Protocol.post_store p ~node:0 ~addr:0 ~now:20 in
  Alcotest.(check int) "issue cost" costs.Network.check_in_cost o.Protocol.latency;
  Alcotest.(check int) "counted" 1 (Protocol.stats p).Stats.post_stores;
  (* the producer keeps a shared copy; past readers got fresh copies *)
  (match Cache.find (Protocol.cache p ~node:0) 0 with
  | Some l -> Alcotest.(check bool) "producer shared" true (l.Cache.state = Cache.Shared)
  | None -> Alcotest.fail "producer lost its copy");
  List.iter
    (fun node ->
      match Cache.find (Protocol.cache p ~node) 0 with
      | Some l ->
          Alcotest.(check bool) "recipient shared" true
            (l.Cache.state = Cache.Shared);
          Alcotest.(check bool) "data arrives with a delay" true
            (l.Cache.ready_at > 20)
      | None -> Alcotest.fail "past reader did not receive a copy")
    [ 1; 2 ];
  (* node 3 never held it and must not receive one *)
  Alcotest.(check bool) "non-holder untouched" true
    (Cache.find (Protocol.cache p ~node:3) 0 = None);
  (* the recipients' next reads are hits *)
  let r = Protocol.read p ~node:1 ~addr:0 ~now:1000 in
  Alcotest.(check bool) "recipient read hits" true (r.Protocol.miss = None)

let test_post_store_writes_back () =
  let p = mk_protocol () in
  ignore (Protocol.read p ~node:1 ~addr:0 ~now:0);
  ignore (Protocol.write p ~node:0 ~addr:0 ~now:1);
  let before = (Protocol.stats p).Stats.writebacks in
  ignore (Protocol.post_store p ~node:0 ~addr:0 ~now:10);
  Alcotest.(check int) "dirty data written back" (before + 1)
    (Protocol.stats p).Stats.writebacks;
  (* directory now lists producer + past holder as sharers *)
  Alcotest.(check (list int)) "sharers" [ 0; 1 ]
    (Directory.sharers (Protocol.directory p) 0)

let test_post_store_requires_exclusive () =
  let p = mk_protocol () in
  ignore (Protocol.read p ~node:0 ~addr:0 ~now:0);
  let o = Protocol.post_store p ~node:0 ~addr:0 ~now:10 in
  Alcotest.(check int) "cost only" costs.Network.check_in_cost o.Protocol.latency;
  (* shared copy stays shared, nothing broadcast *)
  Alcotest.(check (list int)) "sharers unchanged" [ 0 ]
    (Directory.sharers (Protocol.directory p) 0)

(* ---- post-store, language level ---- *)

let machine = { Wwt.Machine.default with Wwt.Machine.nodes = 4 }

let test_post_store_parses_and_runs () =
  let src =
    "shared A[8]; proc main() { if (pid == 0) { A[0] = 1.0; post_store A[0]; } \
     barrier; x = A[0]; }"
  in
  let prog = Lang.Parser.parse src in
  (* round-trips through the pretty printer *)
  ignore (Lang.Parser.parse (Lang.Pretty.program_to_string prog));
  let m = Wwt.Machine.perf_mode ~annotations:true ~prefetch:false machine in
  let o = Wwt.Interp.run ~machine:m prog in
  Alcotest.(check int) "executed" 1 o.Wwt.Interp.stats.Memsys.Stats.post_stores

let test_ocean_post_store_variant () =
  let base =
    Wwt.Run.source_measure ~machine ~annotations:false ~prefetch:false
      (Benchmarks.Ocean.source ~n:16 ~t:3 ~nodes:4 ())
  in
  let ps =
    Wwt.Run.source_measure ~machine ~annotations:true ~prefetch:false
      (Benchmarks.Ocean.post_store_source ~n:16 ~t:3 ~nodes:4 ())
  in
  Alcotest.(check bool) "post-store variant runs and helps" true
    (ps.Wwt.Interp.time < base.Wwt.Interp.time);
  Alcotest.(check bool) "post-stores issued" true
    (ps.Wwt.Interp.stats.Memsys.Stats.post_stores > 0);
  (* semantics preserved *)
  Alcotest.(check bool) "same result" true
    (base.Wwt.Interp.shared = ps.Wwt.Interp.shared)

(* ---- lock-aware race detection ---- *)

let miss ?(held = []) node pc addr kind =
  Trace.Event.Miss { node; pc; addr; kind; held }

let epoch_of records =
  match Trace.Epoch.split ~nodes:4 records with
  | [ e ], _ -> e
  | _ -> Alcotest.fail "expected one epoch"

let analyze records =
  Cachier.Drfs.analyze_sorted ~block_size:32
    (Trace.Epoch.by_address (epoch_of records).Trace.Epoch.misses)

let test_common_lock_suppresses_race () =
  let d =
    analyze
      [
        miss ~held:[ 7 ] 0 1 0 Trace.Event.Write_miss;
        miss ~held:[ 7 ] 1 2 0 Trace.Event.Write_miss;
      ]
  in
  Alcotest.(check bool) "no race under a common lock" true
    (Trace.Epoch.Iset.is_empty (Cachier.Drfs.race d))

let test_different_locks_still_race () =
  let d =
    analyze
      [
        miss ~held:[ 7 ] 0 1 0 Trace.Event.Write_miss;
        miss ~held:[ 8 ] 1 2 0 Trace.Event.Write_miss;
      ]
  in
  Alcotest.(check bool) "different locks do not protect" false
    (Trace.Epoch.Iset.is_empty (Cachier.Drfs.race d))

let test_one_unlocked_access_races () =
  let d =
    analyze
      [
        miss ~held:[ 7 ] 0 1 0 Trace.Event.Write_miss;
        miss 1 2 0 Trace.Event.Read_miss;
      ]
  in
  Alcotest.(check bool) "unlocked reader races with locked writer" false
    (Trace.Epoch.Iset.is_empty (Cachier.Drfs.race d))

let test_false_sharing_not_suppressed_by_locks () =
  let d =
    analyze
      [
        miss ~held:[ 7 ] 0 1 0 Trace.Event.Write_miss;
        miss ~held:[ 7 ] 1 2 8 Trace.Event.Read_miss;
      ]
  in
  Alcotest.(check bool) "locks do not stop block ping-pong" false
    (Trace.Epoch.Iset.is_empty (Cachier.Drfs.false_shared d))

let test_interp_records_held_locks () =
  let src =
    "shared A[4]; proc main() { lock(3); A[0] = A[0] + 1; unlock(3); barrier; }"
  in
  let o = Wwt.Run.source_trace ~machine src in
  let locked_misses =
    List.filter_map
      (function
        | Trace.Event.Miss m when m.Trace.Event.held = [ 3 ] -> Some m
        | _ -> None)
      o.Wwt.Interp.trace
  in
  Alcotest.(check bool) "misses carry the held lock" true (locked_misses <> []);
  (* and the lock-protected counter update is not reported as a race *)
  let einfo = Cachier.Epoch_info.build ~nodes:4 ~block_size:32 o.Wwt.Interp.trace in
  Array.iter
    (fun d ->
      Alcotest.(check bool) "no race reported" true
        (Trace.Epoch.Iset.is_empty (Cachier.Drfs.race d)))
    einfo.Cachier.Epoch_info.drfs

let test_restructured_matmul_race_free_report () =
  (* the Section 5 merge is lock-protected: with the lockset refinement the
     report must be race-free *)
  let prog = Lang.Parser.parse (Benchmarks.Matmul.restructured_source ~n:16 ~nodes:4 ()) in
  let r =
    Cachier.Annotate.annotate_program ~machine
      ~options:Cachier.Placement.default_options prog
  in
  Alcotest.(check (list string)) "no races" []
    (List.map (fun i -> i.Cachier.Report.arr)
       (Cachier.Report.races r.Cachier.Annotate.report))

let test_locks_serialise_in_trace () =
  let records =
    [ miss ~held:[ 1; 2 ] 0 5 64 Trace.Event.Write_fault;
      miss 1 6 0 Trace.Event.Read_miss ]
  in
  let parsed = Trace.Trace_file.of_string (Trace.Trace_file.to_string records) in
  Alcotest.(check bool) "locks survive the round trip" true (parsed = records)

(* ---- training-set annotation (Section 4.5) ---- *)

let test_training_set_union () =
  let prog = Lang.Parser.parse (Benchmarks.Mp3d.source ~particles:64 ~cells:16 ~t:2 ~nodes:4 ()) in
  let trace_of seed =
    (Wwt.Run.collect_trace ~machine (Benchmarks.Suite.reseed prog seed))
      .Wwt.Interp.trace
  in
  let single =
    Cachier.Annotate.annotate_with_traces ~machine
      ~options:Cachier.Placement.default_options prog
      [ trace_of 1 ]
  in
  let multi =
    Cachier.Annotate.annotate_with_traces ~machine
      ~options:Cachier.Placement.default_options prog
      [ trace_of 1; trace_of 2; trace_of 3 ]
  in
  Alcotest.(check bool) "training set yields annotations" true
    (multi.Cachier.Annotate.n_edits > 0);
  (* the training set can insert fewer annotations than a single trace:
     sets that vary across inputs fail the stationarity test and are
     dropped rather than over-generalised *)
  ignore single;
  (* still improves on an input none of the traces saw *)
  let fresh = Benchmarks.Suite.reseed prog 9 in
  let base = Wwt.Run.measure ~machine ~annotations:false ~prefetch:false fresh in
  let ann =
    Wwt.Run.measure ~machine ~annotations:true ~prefetch:false
      (Benchmarks.Suite.reseed multi.Cachier.Annotate.annotated 9)
  in
  Alcotest.(check bool) "generalises to unseen input" true
    (ann.Wwt.Interp.time < base.Wwt.Interp.time)

let test_annotate_training_wrapper () =
  let prog = Lang.Parser.parse (Benchmarks.Mp3d.source ~particles:64 ~cells:16 ~t:2 ~nodes:4 ()) in
  let r =
    Cachier.Annotate.annotate_training ~machine
      ~options:Cachier.Placement.default_options ~seed_const:"SEED"
      ~seeds:[ 1; 2 ] prog
  in
  Alcotest.(check bool) "wrapper produces annotations" true
    (r.Cachier.Annotate.n_edits > 0)

let test_empty_traces_rejected () =
  let prog = Lang.Parser.parse "shared A[4]; proc main() { A[0] = 1; }" in
  Alcotest.check_raises "empty list"
    (Invalid_argument "Annotate.annotate_with_traces: no traces") (fun () ->
      ignore
        (Cachier.Annotate.annotate_with_traces ~machine
           ~options:Cachier.Placement.default_options prog []))

let suite =
  [
    Alcotest.test_case "post-store pushes to past holders" `Quick
      test_post_store_pushes_to_past_holders;
    Alcotest.test_case "post-store writes back" `Quick test_post_store_writes_back;
    Alcotest.test_case "post-store needs exclusive" `Quick
      test_post_store_requires_exclusive;
    Alcotest.test_case "post-store in the language" `Quick
      test_post_store_parses_and_runs;
    Alcotest.test_case "ocean post-store variant" `Slow test_ocean_post_store_variant;
    Alcotest.test_case "common lock suppresses race" `Quick
      test_common_lock_suppresses_race;
    Alcotest.test_case "different locks still race" `Quick
      test_different_locks_still_race;
    Alcotest.test_case "unlocked access races" `Quick test_one_unlocked_access_races;
    Alcotest.test_case "locks do not stop false sharing" `Quick
      test_false_sharing_not_suppressed_by_locks;
    Alcotest.test_case "interp records held locks" `Quick
      test_interp_records_held_locks;
    Alcotest.test_case "restructured matmul reports no race" `Slow
      test_restructured_matmul_race_free_report;
    Alcotest.test_case "locks in trace round trip" `Quick test_locks_serialise_in_trace;
    Alcotest.test_case "training-set union" `Slow test_training_set_union;
    Alcotest.test_case "annotate_training wrapper" `Slow test_annotate_training_wrapper;
    Alcotest.test_case "empty trace list rejected" `Quick test_empty_traces_rejected;
  ]
