(* Three-way engine equivalence for the parallel engine: Wwt.Par must
   produce outcomes bit-identical to the sequential engines (which are
   themselves differentially tested against each other in t_engines) for
   every suite benchmark at 1, 2 and 4 domains, for the replayed fuzz
   corpus, and for the quantum edge cases the record/replay design has
   to get right: a quantum longer than a whole epoch, nodes finishing
   mid-quantum (with and without a deadlock), and zero-miss epochs (the
   PR 3 barrier-merge regression, now under the parallel engine). *)

let nodes = 4
let machine = { Wwt.Machine.default with Wwt.Machine.nodes }
let domain_counts = [ 1; 2; 4 ]

let check_same name (a : Wwt.Interp.outcome) (b : Wwt.Interp.outcome) =
  Alcotest.(check int) (name ^ ": time") a.Wwt.Interp.time b.Wwt.Interp.time;
  Alcotest.(check bool) (name ^ ": stats") true
    (a.Wwt.Interp.stats = b.Wwt.Interp.stats);
  Alcotest.(check bool) (name ^ ": trace") true
    (a.Wwt.Interp.trace = b.Wwt.Interp.trace);
  Alcotest.(check bool) (name ^ ": output") true
    (a.Wwt.Interp.output = b.Wwt.Interp.output);
  Alcotest.(check bool) (name ^ ": memory") true
    (a.Wwt.Interp.shared = b.Wwt.Interp.shared)

let suite_equivalence () =
  List.iter
    (fun (b : Benchmarks.Suite.t) ->
      let prog = Lang.Parser.parse b.Benchmarks.Suite.source in
      let name = b.Benchmarks.Suite.name in
      let seq_trace = Wwt.Run.collect_trace ~engine:Wwt.Run.Compiled ~machine prog in
      let seq_perf =
        Wwt.Run.measure ~engine:Wwt.Run.Compiled ~machine ~annotations:false
          ~prefetch:false prog
      in
      List.iter
        (fun d ->
          let tag = Printf.sprintf "%s@%dd" name d in
          check_same (tag ^ "/trace") seq_trace
            (Wwt.Run.collect_trace ~engine:(Wwt.Run.Par d) ~machine prog);
          check_same (tag ^ "/perf") seq_perf
            (Wwt.Run.measure ~engine:(Wwt.Run.Par d) ~machine
               ~annotations:false ~prefetch:false prog))
        domain_counts)
    (Benchmarks.Suite.all ~scale:1.0 ~nodes ())

(* Annotated variants exercise the ANNOT record/replay path: directive
   latencies depend on protocol state, so replay must charge them at the
   true schedule position, not the recording one. *)
let annotated_suite_equivalence () =
  List.iter
    (fun (b : Benchmarks.Suite.t) ->
      let prog = Lang.Parser.parse b.Benchmarks.Suite.source in
      let name = b.Benchmarks.Suite.name in
      let trace = (Wwt.Run.collect_trace ~machine prog).Wwt.Interp.trace in
      List.iter
        (fun (mname, mode, prefetch) ->
          let options =
            { Cachier.Placement.default_options with
              Cachier.Placement.mode; prefetch }
          in
          let annotated =
            (Cachier.Annotate.annotate_with_trace ~machine ~options prog trace)
              .Cachier.Annotate.annotated
          in
          let seq =
            Wwt.Run.measure ~engine:Wwt.Run.Compiled ~machine
              ~annotations:true ~prefetch annotated
          in
          List.iter
            (fun d ->
              check_same
                (Printf.sprintf "%s/%s annotated@%dd" name mname d)
                seq
                (Wwt.Run.measure ~engine:(Wwt.Run.Par d) ~machine
                   ~annotations:true ~prefetch annotated))
            domain_counts)
        [
          ("performance", Cachier.Equations.Performance, true);
          ("programmer", Cachier.Equations.Programmer, false);
        ])
    (Benchmarks.Suite.all ~scale:1.0 ~nodes ())

(* Corpus programs are shrunk fuzzer finds — lock users among them, which
   must transparently fall back to the sequential engine and still match.
   Programs may legitimately raise; then both engines must raise alike. *)
let run_catch f = match f () with o -> Ok o | exception e -> Error e

let corpus_equivalence () =
  List.iter
    (fun (path, (e : Fuzz.Corpus.entry)) ->
      let prog = Lang.Parser.parse e.Fuzz.Corpus.source in
      let machine =
        { Wwt.Machine.default with Wwt.Machine.nodes = e.Fuzz.Corpus.nodes }
      in
      let name = Filename.basename path in
      List.iter
        (fun (mode, seq_run, par_run) ->
          match (run_catch seq_run, run_catch (fun () -> par_run 2)) with
          | Ok a, Ok b -> check_same (name ^ "/" ^ mode) a b
          | Error a, Error b ->
              Alcotest.(check string)
                (name ^ "/" ^ mode ^ ": same exception")
                (Printexc.to_string a) (Printexc.to_string b)
          | Ok _, Error e ->
              Alcotest.failf "%s/%s: only par raised: %s" name mode
                (Printexc.to_string e)
          | Error e, Ok _ ->
              Alcotest.failf "%s/%s: only sequential raised: %s" name mode
                (Printexc.to_string e))
        [
          ( "trace",
            (fun () ->
              Wwt.Run.collect_trace ~engine:Wwt.Run.Compiled ~machine prog),
            fun d ->
              Wwt.Run.collect_trace ~engine:(Wwt.Run.Par d) ~machine prog );
          ( "perf",
            (fun () ->
              Wwt.Run.measure ~engine:Wwt.Run.Compiled ~machine
                ~annotations:false ~prefetch:false prog),
            fun d ->
              Wwt.Run.measure ~engine:(Wwt.Run.Par d) ~machine
                ~annotations:false ~prefetch:false prog );
        ])
    (Fuzz.Corpus.load_dir "corpus")

(* ---- replay-mode matrix ----

   The engine's three replay paths — classic serial, sharded, and
   pipelined+sharded — must each be bit-identical to the sequential
   engine, independent of the environment defaults. Forced via the
   explicit knobs so this holds even when CACHIER_PAR_PIPELINE /
   CACHIER_REPLAY_SHARDS are set in the ambient environment. Memo is
   off here; the dedicated memo test below covers warm replays. *)
let par_modes =
  [
    ("serial", false, 1);
    ("sharded", false, 4);
    ("pipelined+sharded", true, 4);
  ]

let mode_matrix_equivalence () =
  List.iter
    (fun (b : Benchmarks.Suite.t) ->
      let prog = Lang.Parser.parse b.Benchmarks.Suite.source in
      let name = b.Benchmarks.Suite.name in
      let pmachine = Wwt.Machine.perf_mode ~annotations:false ~prefetch:false machine in
      let seq = Wwt.Run.measure ~engine:Wwt.Run.Compiled ~machine ~annotations:false ~prefetch:false prog in
      List.iter
        (fun (mode, pipeline, shards) ->
          check_same
            (Printf.sprintf "%s/%s" name mode)
            seq
            (Wwt.Par.run ~domains:4 ~pipeline ~shards ~memo:0
               ~machine:pmachine prog))
        par_modes)
    (Benchmarks.Suite.all ~scale:1.0 ~nodes ())

let annotated_mode_matrix () =
  List.iter
    (fun (b : Benchmarks.Suite.t) ->
      let prog = Lang.Parser.parse b.Benchmarks.Suite.source in
      let name = b.Benchmarks.Suite.name in
      let trace = (Wwt.Run.collect_trace ~machine prog).Wwt.Interp.trace in
      let annotated =
        (Cachier.Annotate.annotate_with_trace ~machine
           ~options:Cachier.Placement.default_options prog trace)
          .Cachier.Annotate.annotated
      in
      let pmachine = Wwt.Machine.perf_mode ~annotations:true ~prefetch:false machine in
      let seq =
        Wwt.Run.measure ~engine:Wwt.Run.Compiled ~machine ~annotations:true
          ~prefetch:false annotated
      in
      List.iter
        (fun (mode, pipeline, shards) ->
          check_same
            (Printf.sprintf "%s/annotated/%s" name mode)
            seq
            (Wwt.Par.run ~domains:4 ~pipeline ~shards ~memo:0
               ~machine:pmachine annotated))
        par_modes)
    (Benchmarks.Suite.all ~scale:1.0 ~nodes ())

let corpus_mode_matrix () =
  List.iter
    (fun (path, (e : Fuzz.Corpus.entry)) ->
      let prog = Lang.Parser.parse e.Fuzz.Corpus.source in
      let machine =
        { Wwt.Machine.default with Wwt.Machine.nodes = e.Fuzz.Corpus.nodes }
      in
      let pmachine = Wwt.Machine.perf_mode ~annotations:false ~prefetch:false machine in
      let name = Filename.basename path in
      let seq =
        run_catch (fun () ->
            Wwt.Run.measure ~engine:Wwt.Run.Compiled ~machine
              ~annotations:false ~prefetch:false prog)
      in
      List.iter
        (fun (mode, pipeline, shards) ->
          match
            ( seq,
              run_catch (fun () ->
                  Wwt.Par.run ~domains:2 ~pipeline ~shards ~memo:0
                    ~machine:pmachine prog) )
          with
          | Ok a, Ok b -> check_same (name ^ "/" ^ mode) a b
          | Error a, Error b ->
              Alcotest.(check string)
                (name ^ "/" ^ mode ^ ": same exception")
                (Printexc.to_string a) (Printexc.to_string b)
          | Ok _, Error e ->
              Alcotest.failf "%s/%s: only par raised: %s" name mode
                (Printexc.to_string e)
          | Error e, Ok _ ->
              Alcotest.failf "%s/%s: only sequential raised: %s" name mode
                (Printexc.to_string e))
        par_modes)
    (Fuzz.Corpus.load_dir "corpus")

(* ---- protocol rotation ----

   The replay-mode matrix again, under the SiSd and Commute backends:
   every replay path (classic serial, sharded, pipelined+sharded) must
   stay bit-identical to the sequential engine — same trace, stats and
   time — whatever coherence backend the machine runs. Dir1SW is the
   matrix above; scale is halved because this multiplies it by two more
   backends. *)
let protocol_mode_matrix () =
  List.iter
    (fun backend ->
      let machine = { machine with Wwt.Machine.protocol = backend } in
      let ptag = Memsys.Protocol_id.to_string backend in
      List.iter
        (fun (b : Benchmarks.Suite.t) ->
          let prog = Lang.Parser.parse b.Benchmarks.Suite.source in
          let name = b.Benchmarks.Suite.name in
          let pmachine =
            Wwt.Machine.perf_mode ~annotations:false ~prefetch:false machine
          in
          let seq =
            Wwt.Run.measure ~engine:Wwt.Run.Compiled ~machine
              ~annotations:false ~prefetch:false prog
          in
          List.iter
            (fun (mode, pipeline, shards) ->
              check_same
                (Printf.sprintf "%s/%s/%s" ptag name mode)
                seq
                (Wwt.Par.run ~domains:4 ~pipeline ~shards ~memo:0
                   ~machine:pmachine prog))
            par_modes)
        (Benchmarks.Suite.all ~scale:0.5 ~nodes ()))
    [ Memsys.Protocol_id.Sisd; Memsys.Protocol_id.Commute ]

(* ---- epoch memoization ----

   A warm replay (same machine, same program, same epoch streams) must
   hit the process-wide epoch memo and still produce outcomes
   byte-identical to both the cold parallel run and the sequential
   engine. Counter deltas prove the hits actually happened — without
   Obs the memo would be exercised but invisibly. *)
let memo_warm_replay () =
  let prev_mode = Obs.current_mode () in
  Obs.configure Obs.Summary;
  Fun.protect
    ~finally:(fun () -> Obs.configure prev_mode)
    (fun () ->
      Wwt.Par.memo_clear ();
      let counter_value name =
        Option.value ~default:0
          (List.assoc_opt name
             (Obs.Registry.counters Obs.Registry.default))
      in
      List.iter
        (fun (b : Benchmarks.Suite.t) ->
          let prog = Lang.Parser.parse b.Benchmarks.Suite.source in
          let name = b.Benchmarks.Suite.name in
          let pmachine =
            Wwt.Machine.perf_mode ~annotations:false ~prefetch:false machine
          in
          let par ?domains () =
            Wwt.Par.run ?domains ~memo:256 ~machine:pmachine prog
          in
          let seq =
            Wwt.Run.measure ~engine:Wwt.Run.Compiled ~machine
              ~annotations:false ~prefetch:false prog
          in
          let cold = par ~domains:2 () in
          let hits0 = counter_value "par.memo_hits" in
          (* warm: every barrier epoch should hit (same streams, same
             incoming state), including from a different domain count *)
          let warm = par ~domains:2 () in
          let warm_other = par ~domains:1 () in
          let hits1 = counter_value "par.memo_hits" in
          check_same (name ^ "/cold-vs-seq") seq cold;
          check_same (name ^ "/warm-vs-cold") cold warm;
          check_same (name ^ "/warm-1d-vs-cold") cold warm_other;
          if hits1 <= hits0 then
            Alcotest.failf "%s: no memo hits on the warm replays" name)
        (Benchmarks.Suite.all ~scale:1.0 ~nodes ());
      Wwt.Par.memo_clear ())

(* ---- quantum edge cases ---- *)

let check_three_way name ~machine src =
  let prog = Lang.Parser.parse src in
  let seq_trace = Wwt.Run.collect_trace ~engine:Wwt.Run.Compiled ~machine prog in
  let seq_perf =
    Wwt.Run.measure ~engine:Wwt.Run.Compiled ~machine ~annotations:false
      ~prefetch:false prog
  in
  check_same (name ^ "/interp-trace") seq_trace
    (Wwt.Run.collect_trace ~engine:Wwt.Run.Tree_walk ~machine prog);
  List.iter
    (fun d ->
      let tag = Printf.sprintf "%s@%dd" name d in
      check_same (tag ^ "/trace") seq_trace
        (Wwt.Run.collect_trace ~engine:(Wwt.Run.Par d) ~machine prog);
      check_same (tag ^ "/perf") seq_perf
        (Wwt.Run.measure ~engine:(Wwt.Run.Par d) ~machine ~annotations:false
           ~prefetch:false prog))
    domain_counts

(* An epoch whose total work is far below the quantum: no node ever
   yields mid-epoch, so replay sees only the barrier flushes. *)
let quantum_exceeds_epoch () =
  let machine = { machine with Wwt.Machine.quantum = 1_000_000 } in
  check_three_way "huge-quantum" ~machine
    {|const N = 32;
shared A[N];
proc main() {
  A[pid] = pid * 2;
  barrier;
  A[pid + 4] = A[pid] + 1;
  barrier;
}
|}

(* Unequal work with no barrier: some nodes finish while others are
   mid-quantum; the run ends when the last fiber drains. *)
let finish_mid_quantum () =
  check_three_way "finish-mid-quantum" ~machine
    {|const N = 64;
shared A[N];
private s[1];
proc main() {
  if (pid == 0) {
    for i = 0 to 39 {
      s[0] = s[0] + i;
      A[i] = s[0];
    }
  }
  if (pid == 2) {
    A[60] = 7;
  }
  print(pid, A[pid]);
}
|}

(* A node that exits while the rest wait at a barrier deadlocks the
   sequential scheduler; the parallel engine must report the identical
   diagnostic. *)
let finish_vs_barrier_deadlock () =
  let src = {|shared A[8];
proc main() {
  if (pid > 0) {
    barrier;
  }
  A[pid] = 1;
}
|} in
  let prog = Lang.Parser.parse src in
  let message engine =
    match
      Wwt.Run.measure ~engine ~machine ~annotations:false ~prefetch:false prog
    with
    | _ -> Alcotest.fail "expected a deadlock"
    | exception Wwt.Sched.Deadlock msg -> msg
  in
  let seq = message Wwt.Run.Compiled in
  List.iter
    (fun d ->
      Alcotest.(check string)
        (Printf.sprintf "deadlock message@%dd" d)
        seq
        (message (Wwt.Run.Par d)))
    domain_counts

(* Back-to-back barriers with no misses in between: the epochs are empty
   apart from their barrier records, which the packed trace must keep as
   distinct groups (the PR 3 regression), now also under Par. *)
let zero_miss_epochs () =
  check_three_way "zero-miss-epochs" ~machine
    {|const N = 16;
shared A[N];
proc main() {
  A[pid] = 1;
  barrier;
  barrier;
  barrier;
  A[pid + 8] = 2;
  barrier;
}
|}

(* Epoch-level sharing the classifier must reject: each node reads an
   element its neighbour writes in the same epoch, so the recorded
   streams cannot be trusted and the run falls back to the sequential
   engine — transparently, with identical results. *)
let conflict_fallback () =
  check_three_way "conflict-fallback" ~machine
    {|shared A[16];
proc main() {
  A[pid] = pid;
  A[8 + pid] = A[(pid + 1) % 4] + 1;
}
|}

(* Malformed replay knobs are refused, naming the variable and its
   accepted values, instead of silently becoming a default. *)
let env_run () =
  Wwt.Par.run ~domains:2 ~machine
    (Lang.Parser.parse "shared A[8]; proc main() { A[pid] = pid; barrier; }")

let refuses_pipeline () =
  Qc.refuses_env "CACHIER_PAR_PIPELINE" [ "maybe"; ""; "2" ] ~valid:"1"
    ~msg:"CACHIER_PAR_PIPELINE must be one of 0, false, no, off, 1, true, yes, on"
    env_run

let refuses_shards () =
  Qc.refuses_env "CACHIER_REPLAY_SHARDS" [ "x"; "-2" ] ~valid:"0"
    ~msg:"CACHIER_REPLAY_SHARDS must be a non-negative integer" env_run

let refuses_memo () =
  Qc.refuses_env "CACHIER_REPLAY_MEMO" [ "garbage"; "-1" ] ~valid:"64"
    ~msg:"CACHIER_REPLAY_MEMO must be a non-negative integer" env_run

let suite =
  [
    Alcotest.test_case "suite equivalence par (1/2/4 domains)" `Slow
      suite_equivalence;
    Alcotest.test_case "replay-mode matrix (serial/sharded/pipelined)" `Slow
      mode_matrix_equivalence;
    Alcotest.test_case "replay-mode matrix (annotated)" `Slow
      annotated_mode_matrix;
    Alcotest.test_case "replay-mode matrix (corpus)" `Slow corpus_mode_matrix;
    Alcotest.test_case "replay-mode matrix (sisd/commute)" `Slow
      protocol_mode_matrix;
    Alcotest.test_case "epoch memo: warm replay byte-identical" `Slow
      memo_warm_replay;
    Alcotest.test_case "cross-node conflict falls back" `Quick
      conflict_fallback;
    Alcotest.test_case "suite equivalence par (annotated)" `Slow
      annotated_suite_equivalence;
    Alcotest.test_case "corpus equivalence par" `Slow corpus_equivalence;
    Alcotest.test_case "quantum larger than epoch" `Quick quantum_exceeds_epoch;
    Alcotest.test_case "nodes finishing mid-quantum" `Quick finish_mid_quantum;
    Alcotest.test_case "finish vs barrier deadlocks identically" `Quick
      finish_vs_barrier_deadlock;
    Alcotest.test_case "zero-miss epochs" `Quick zero_miss_epochs;
    Alcotest.test_case "malformed CACHIER_PAR_PIPELINE refused" `Quick
      refuses_pipeline;
    Alcotest.test_case "malformed CACHIER_REPLAY_SHARDS refused" `Quick
      refuses_shards;
    Alcotest.test_case "malformed CACHIER_REPLAY_MEMO refused" `Quick
      refuses_memo;
  ]
