(* The race-detection battery.

   Four layers of evidence that the streaming detector is sound:

   - a labelled corpus under test/corpus_races/ — each program carries a
     "// races: racy|race-free" header and the detector must reproduce
     every verdict (and report exactly what the naive reference does);
   - hand-built traces hitting the detector's edges directly (empty
     trace, lock-set intersection, epoch boundaries, trailing misses);
   - agreement with the paper's per-epoch DRFS predicate (Cachier.Drfs)
     on the corpus and the Figure 6 programs;
   - mutation tests: with a detector deliberately broken through
     Races.Hooks, a short fuzzing campaign must find and shrink a
     counterexample — proving the sixth oracle actually guards the
     detector rather than vacuously passing. *)

let nodes = 4
let machine = { Wwt.Machine.default with Wwt.Machine.nodes }
let corpus_dir = "corpus_races"

let corpus_files =
  Sys.readdir corpus_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".sm")
  |> List.sort compare

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The labelled verdict from the "// races: ..." header line. *)
let label_of source =
  let line = String.trim (List.hd (String.split_on_char '\n' source)) in
  match line with
  | "// races: racy" -> true
  | "// races: race-free" -> false
  | _ -> Alcotest.failf "bad corpus header %S" line

let trace_of source =
  let prog = Lang.Parser.parse source in
  (Wwt.Run.collect_trace ~machine prog).Wwt.Interp.trace

let corpus_nonempty () =
  Alcotest.(check bool)
    "at least 12 labelled programs" true
    (List.length corpus_files >= 12)

(* One corpus program: detector verdict matches the label, the streaming
   report equals the naive reference's, the CI-greppable verdict line says
   the same thing, and the trace read back from its file form gives the
   same report, [promoted] included. A loaded trace's lock lists are
   fresh allocations, where an engine's misses share each node's list. *)
let check_corpus_file file () =
  let source = read_file (Filename.concat corpus_dir file) in
  let expected = label_of source in
  let records = trace_of source in
  let streaming = Races.detect ~nodes records in
  let reference = Races.naive ~nodes records in
  Alcotest.(check bool)
    (file ^ ": streaming verdict matches label")
    expected (Races.racy streaming);
  Alcotest.(check bool)
    (file ^ ": streaming report = naive report")
    true (streaming = reference);
  Alcotest.(check string)
    (file ^ ": verdict line")
    (if expected then "race verdict: racy" else "race verdict: race-free")
    (Races.verdict_line streaming);
  let loaded =
    Trace.Trace_file.of_string (Trace.Trace_file.to_string records)
  in
  Alcotest.(check bool)
    (file ^ ": loaded trace gives the same report")
    true
    (Races.detect ~nodes loaded = streaming)

(* --- hand-built traces ------------------------------------------------- *)

let miss ?(held = []) node pc addr kind =
  Trace.Event.Miss { node; pc; addr; kind; held }

let barrier bnode bpc vt = Trace.Event.Barrier { bnode; bpc; vt }
let full_barrier bpc vt = List.init nodes (fun n -> barrier n bpc vt)

let both_impls records =
  (Races.detect ~nodes records, Races.naive ~nodes records)

let check_agree name records =
  let s, n = both_impls records in
  Alcotest.(check bool) (name ^ ": streaming = naive") true (s = n);
  s

let empty_trace () =
  let r = check_agree "empty" [] in
  Alcotest.(check bool) "race-free" false (Races.racy r);
  Alcotest.(check int) "no epochs" 0 r.Races.epochs;
  Alcotest.(check int) "no accesses" 0 r.Races.accesses

let ww_two_nodes () =
  let r =
    check_agree "ww"
      [
        miss 0 10 64 Trace.Event.Write_miss;
        miss 1 20 64 Trace.Event.Write_miss;
      ]
  in
  Alcotest.(check bool) "racy" true (Races.racy r);
  Alcotest.(check (list int)) "one racy addr" [ 64 ] r.Races.racy_addrs;
  match r.Races.races with
  | [ race ] ->
      Alcotest.(check int) "epoch 0" 0 race.Races.r_epoch;
      Alcotest.(check int) "first is node 0" 0 race.Races.r_first.Races.a_node;
      Alcotest.(check int) "second is node 1" 1
        race.Races.r_second.Races.a_node;
      Alcotest.(check int) "first pc" 10 race.Races.r_first.Races.a_pc;
      Alcotest.(check bool) "both writes" true
        (race.Races.r_first.Races.a_write && race.Races.r_second.Races.a_write)
  | rs -> Alcotest.failf "expected one race, got %d" (List.length rs)

let reads_never_race () =
  let r =
    check_agree "rr"
      [
        miss 0 10 64 Trace.Event.Read_miss;
        miss 1 20 64 Trace.Event.Read_miss;
        miss 2 30 64 Trace.Event.Read_miss;
      ]
  in
  Alcotest.(check bool) "race-free" false (Races.racy r)

let common_lock_protects () =
  let r =
    check_agree "locked"
      [
        miss ~held:[ 1; 3 ] 0 10 64 Trace.Event.Write_miss;
        miss ~held:[ 2; 3 ] 1 20 64 Trace.Event.Write_miss;
      ]
  in
  Alcotest.(check bool) "common lock 3: race-free" false (Races.racy r);
  let r2 =
    check_agree "disjoint-locks"
      [
        miss ~held:[ 1 ] 0 10 64 Trace.Event.Write_miss;
        miss ~held:[ 2 ] 1 20 64 Trace.Event.Write_miss;
      ]
  in
  Alcotest.(check bool) "disjoint locks: racy" true (Races.racy r2)

let barrier_separates () =
  let r =
    check_agree "across-epochs"
      ([ miss 0 10 64 Trace.Event.Write_miss ]
      @ full_barrier 20 100
      @ [ miss 1 30 64 Trace.Event.Write_miss ])
  in
  Alcotest.(check bool) "race-free" false (Races.racy r);
  Alcotest.(check int) "two epochs" 2 r.Races.epochs

let empty_epochs_between () =
  (* back-to-back barrier groups: write phase, two empty epochs, read
     phase — the PR 3 Epoch.split bug shape, streamed *)
  let r =
    check_agree "empty-epochs"
      ([ miss 0 10 64 Trace.Event.Write_miss ]
      @ full_barrier 20 100 @ full_barrier 21 200 @ full_barrier 22 300
      @ [ miss 1 30 64 Trace.Event.Read_miss ])
  in
  Alcotest.(check bool) "race-free" false (Races.racy r);
  Alcotest.(check int) "four epochs" 4 r.Races.epochs

let write_fault_is_write () =
  let r =
    check_agree "fault"
      [
        miss 0 10 64 Trace.Event.Read_miss;
        miss 1 20 64 Trace.Event.Write_fault;
      ]
  in
  Alcotest.(check bool) "read vs write-fault races" true (Races.racy r)

let racy_addrs_sorted () =
  let r =
    check_agree "sorted"
      [
        miss 0 10 512 Trace.Event.Write_miss;
        miss 1 11 512 Trace.Event.Write_miss;
        miss 0 12 64 Trace.Event.Write_miss;
        miss 1 13 64 Trace.Event.Write_miss;
        miss 2 14 256 Trace.Event.Write_miss;
        miss 3 15 256 Trace.Event.Write_miss;
      ]
  in
  Alcotest.(check (list int)) "sorted ascending" [ 64; 256; 512 ]
    r.Races.racy_addrs;
  (* stream discovery order: 512 raced first *)
  (match r.Races.races with
  | first :: _ -> Alcotest.(check int) "first race addr" 512 first.Races.r_addr
  | [] -> Alcotest.fail "expected races");
  Alcotest.(check int) "one race per racy addr" 3 (List.length r.Races.races)

(* [promoted] counts an address once in an epoch when a second node
   reaches it there, unless the address raced in an earlier epoch. *)
let check_promoted name records want =
  let r = check_agree name records in
  Alcotest.(check int) (name ^ ": promoted") want r.Races.promoted

let promoted_second_node () =
  check_promoted "second node"
    [
      miss 0 10 64 Trace.Event.Read_miss;
      miss 1 20 64 Trace.Event.Read_miss;
      miss 2 30 64 Trace.Event.Read_miss;
      miss 1 40 64 Trace.Event.Read_miss;
    ]
    1

let promoted_each_epoch () =
  check_promoted "shared again"
    ([ miss 0 10 64 Trace.Event.Read_miss; miss 1 20 64 Trace.Event.Read_miss ]
    @ full_barrier 30 100
    @ [ miss 2 40 64 Trace.Event.Read_miss; miss 3 50 64 Trace.Event.Read_miss ]
    )
    2

let promoted_not_after_race () =
  check_promoted "raced earlier"
    ([
       miss 0 10 64 Trace.Event.Write_miss; miss 1 20 64 Trace.Event.Write_miss;
     ]
    @ full_barrier 30 100
    @ [ miss 0 40 64 Trace.Event.Read_miss; miss 1 50 64 Trace.Event.Read_miss ]
    )
    1

let promoted_not_sole_node () =
  check_promoted "sole node"
    [
      miss 0 10 64 Trace.Event.Read_miss;
      miss 0 11 64 Trace.Event.Write_miss;
      miss ~held:[ 1 ] 0 12 64 Trace.Event.Write_miss;
      miss 0 13 64 Trace.Event.Read_miss;
      miss 0 14 64 Trace.Event.Write_miss;
    ]
    0

let partial_barrier_rejected () =
  Alcotest.check_raises "short group at end"
    (Failure "trace: barrier group has 2 records, expected 4") (fun () ->
      ignore
        (Races.detect ~nodes [ barrier 0 20 100; barrier 1 20 100 ]))

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let render_shape () =
  let records =
    [
      miss ~held:[ 2 ] 0 10 64 Trace.Event.Write_miss;
      miss 1 20 64 Trace.Event.Read_miss;
    ]
  in
  let r = Races.detect ~nodes records in
  let rendered = Races.render r in
  Alcotest.(check bool) "verdict line present" true
    (contains ~sub:"race verdict: racy" rendered);
  Alcotest.(check bool) "json tail present" true
    (contains ~sub:"\"verdict\":\"racy\"" rendered);
  Alcotest.(check bool) "newline-terminated" true
    (String.length rendered > 0 && rendered.[String.length rendered - 1] = '\n')

(* --- agreement with the paper's DRFS predicate ------------------------- *)

(* The sixth oracle's two-way check of Drfs against the streaming
   detector, on one trace. *)
let check_drfs_agrees name ~nodes records =
  let einfo =
    Cachier.Epoch_info.build ~nodes
      ~block_size:Wwt.Machine.default.Wwt.Machine.block_size records
  in
  Alcotest.(check (option string))
    (name ^ ": Drfs agrees with the detector")
    None
    (Fuzz.Oracle.drfs_mismatch einfo (Races.detect ~nodes records))

let drfs_agreement () =
  List.iter
    (fun file ->
      check_drfs_agrees file ~nodes
        (trace_of (read_file (Filename.concat corpus_dir file))))
    corpus_files;
  List.iter
    (fun nodes ->
      let machine = { Wwt.Machine.default with Wwt.Machine.nodes } in
      List.iter
        (fun name ->
          let b = Benchmarks.Suite.find ~nodes name in
          let prog = Lang.Parser.parse b.Benchmarks.Suite.source in
          check_drfs_agrees
            (Printf.sprintf "%s-%d" name nodes)
            ~nodes (Wwt.Run.collect_trace ~machine prog).Wwt.Interp.trace)
        Benchmarks.Suite.names)
    [ 8; 16 ]

(* --- mutation tests ---------------------------------------------------- *)

(* With a hook-broken detector, a short deterministic campaign must find
   a races-oracle counterexample and shrink it small. The campaign seed
   and program cap are fixed, so this is a deterministic test, not a
   statistical one. *)
let mutated_campaign hook name () =
  Fun.protect
    ~finally:(fun () -> hook := false)
    (fun () ->
      hook := true;
      let cfg =
        {
          Fuzz.Runner.default with
          Fuzz.Runner.seed = 20260808;
          budget_s = 60.0;
          max_programs = 24;
          nodes;
          per_program_budget_s = 2.0;
        }
      in
      let stats = Fuzz.Runner.run cfg in
      let races_failures =
        List.filter
          (fun f -> f.Fuzz.Runner.oracle = "races")
          stats.Fuzz.Runner.failures
      in
      Alcotest.(check bool)
        (name ^ ": campaign finds a races counterexample")
        true
        (races_failures <> []);
      List.iter
        (fun f ->
          let size = Fuzz.Gen.size_program f.Fuzz.Runner.program in
          if size > 12 then
            Alcotest.failf "%s: counterexample not minimised: %d AST nodes\n%s"
              name size
              (Lang.Pretty.program_to_string f.Fuzz.Runner.program))
        [ List.hd races_failures ])

(* The hooks must also flip verdicts on the labelled corpus directly:
   lock_protected misreports as racy when intersection is broken, and
   merging epochs misreports rw_across_epochs. *)
let hook_flips_verdict hook file () =
  let source = read_file (Filename.concat corpus_dir file) in
  let records = trace_of source in
  Fun.protect
    ~finally:(fun () -> hook := false)
    (fun () ->
      hook := true;
      let streaming = Races.detect ~nodes records in
      let reference = Races.naive ~nodes records in
      Alcotest.(check bool)
        (file ^ ": broken detector disagrees with naive")
        false (streaming = reference))

(* --- properties -------------------------------------------------------- *)

(* streaming == naive on generated programs, racy and DRF alike — the
   in-tree slice of what the fuzzer's sixth oracle checks at scale. *)
let prop_streaming_eq_naive =
  Qc.qtest
    (QCheck.Test.make ~count:60 ~name:"streaming detector == naive reference"
       (QCheck.make (fun st ->
            let racy = Random.State.bool st in
            let config = { Fuzz.Gen.default_config with Fuzz.Gen.racy } in
            Fuzz.Gen.spmd ~config st))
       (fun prog ->
         let records = (Wwt.Run.collect_trace ~machine prog).Wwt.Interp.trace in
         Races.detect ~nodes records = Races.naive ~nodes records))

let suite =
  [
    Alcotest.test_case "corpus_races directory is wired in" `Quick
      corpus_nonempty;
  ]
  @ List.map
      (fun file ->
        Alcotest.test_case ("corpus " ^ file) `Quick (check_corpus_file file))
      corpus_files
  @ [
      Alcotest.test_case "empty trace" `Quick empty_trace;
      Alcotest.test_case "write-write race" `Quick ww_two_nodes;
      Alcotest.test_case "reads never race" `Quick reads_never_race;
      Alcotest.test_case "lock-set intersection" `Quick common_lock_protects;
      Alcotest.test_case "barrier separates epochs" `Quick barrier_separates;
      Alcotest.test_case "empty epochs between barriers" `Quick
        empty_epochs_between;
      Alcotest.test_case "write fault counts as write" `Quick
        write_fault_is_write;
      Alcotest.test_case "racy addrs sorted, races in stream order" `Quick
        racy_addrs_sorted;
      Alcotest.test_case "promoted: a second node counts once" `Quick
        promoted_second_node;
      Alcotest.test_case "promoted: counts again in a later epoch" `Quick
        promoted_each_epoch;
      Alcotest.test_case "promoted: not after an earlier race" `Quick
        promoted_not_after_race;
      Alcotest.test_case "promoted: a sole node counts nothing" `Quick
        promoted_not_sole_node;
      Alcotest.test_case "partial barrier group rejected" `Quick
        partial_barrier_rejected;
      Alcotest.test_case "render shape" `Quick render_shape;
      Alcotest.test_case "Drfs and the detector agree both ways" `Quick
        drfs_agreement;
      Alcotest.test_case "broken lock intersection flips lock_protected"
        `Quick
        (hook_flips_verdict Races.Hooks.break_lock_intersection
           "lock_protected.sm");
      Alcotest.test_case "broken epoch boundary flips rw_across_epochs" `Quick
        (hook_flips_verdict Races.Hooks.break_epoch_boundary
           "rw_across_epochs.sm");
      Alcotest.test_case "mutation: broken lock intersection is caught" `Slow
        (mutated_campaign Races.Hooks.break_lock_intersection "lock-mutation");
      Alcotest.test_case "mutation: broken epoch boundary is caught" `Slow
        (mutated_campaign Races.Hooks.break_epoch_boundary "epoch-mutation");
      prop_streaming_eq_naive;
    ]
