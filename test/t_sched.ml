let config ?(nodes = 2) ?(on_barrier = fun ~vt:_ ~arrivals:_ -> ()) () =
  {
    Wwt.Sched.nodes;
    barrier_cost = 10;
    lock_transfer = 5;
    on_barrier;
    on_lock_acquire = (fun ~node:_ ~lock:_ -> ());
  }

let test_advance_accumulates () =
  let final =
    Wwt.Sched.run (config ~nodes:1 ()) (fun _node ->
        Wwt.Sched.advance 5;
        Wwt.Sched.advance 7;
        Alcotest.(check int) "now reflects advances" 12 (Wwt.Sched.now ()))
  in
  Alcotest.(check int) "final time" 12 final

let test_min_time_interleaving () =
  (* Node 0 advances in steps of 1, node 1 in steps of 10; the scheduler
     must run node 0 several times before node 1's second step. *)
  let order = ref [] in
  let _ =
    Wwt.Sched.run (config ()) (fun node ->
        let step = if node = 0 then 1 else 10 in
        for _ = 1 to 3 do
          Wwt.Sched.advance step;
          order := (node, Wwt.Sched.now ()) :: !order
        done)
  in
  let events = List.rev !order in
  (* sorted by virtual time *)
  let times = List.map snd events in
  Alcotest.(check bool) "times non-decreasing" true
    (List.sort compare times = times)

let test_barrier_synchronises () =
  let vts = ref [] in
  let on_barrier ~vt ~arrivals =
    vts := vt :: !vts;
    Alcotest.(check int) "all nodes arrive" 3 (List.length arrivals)
  in
  let final =
    Wwt.Sched.run (config ~nodes:3 ~on_barrier ()) (fun node ->
        Wwt.Sched.advance (node * 100);
        Wwt.Sched.barrier_sync ~pc:42;
        (* after the barrier every clock equals max + barrier cost *)
        Alcotest.(check int) "clock synced" 210 (Wwt.Sched.now ()))
  in
  Alcotest.(check int) "one barrier" 1 (List.length !vts);
  Alcotest.(check int) "vt is max+cost" 210 (List.hd !vts);
  Alcotest.(check int) "final" 210 final

let test_barrier_arrival_pcs () =
  let seen = ref [] in
  let on_barrier ~vt:_ ~arrivals = seen := arrivals in
  let _ =
    Wwt.Sched.run (config ~on_barrier ()) (fun node ->
        Wwt.Sched.barrier_sync ~pc:(100 + node))
  in
  Alcotest.(check (list (pair int int))) "per-node pcs" [ (0, 100); (1, 101) ] !seen

let test_deadlock_detection () =
  Alcotest.check_raises "one node skips the barrier"
    (Wwt.Sched.Deadlock
       "1 of 2 nodes finished; 1 parked at a barrier, 0 waiting on locks")
    (fun () ->
      ignore
        (Wwt.Sched.run (config ()) (fun node ->
             if node = 0 then Wwt.Sched.barrier_sync ~pc:1)))

let test_lock_mutual_exclusion () =
  let in_section = ref false in
  let violations = ref 0 in
  let acquisitions = ref [] in
  let cfg =
    {
      (config ~nodes:3 ()) with
      Wwt.Sched.on_lock_acquire =
        (fun ~node ~lock:_ -> acquisitions := node :: !acquisitions);
    }
  in
  let _ =
    Wwt.Sched.run cfg (fun _node ->
        Wwt.Sched.lock_acquire 1;
        if !in_section then incr violations;
        in_section := true;
        Wwt.Sched.advance 20;
        in_section := false;
        Wwt.Sched.lock_release 1)
  in
  Alcotest.(check int) "no overlapping critical sections" 0 !violations;
  Alcotest.(check int) "three acquisitions" 3 (List.length !acquisitions)

let test_lock_release_without_hold () =
  Alcotest.check_raises "bogus release"
    (Wwt.Sched.Deadlock "node 0 releases lock 9 it does not hold") (fun () ->
      ignore
        (Wwt.Sched.run (config ~nodes:1 ()) (fun _ -> Wwt.Sched.lock_release 9)))

let test_determinism () =
  let run () =
    let log = ref [] in
    let _ =
      Wwt.Sched.run (config ~nodes:4 ()) (fun node ->
          for i = 1 to 5 do
            Wwt.Sched.advance ((node * 3) + i);
            log := (node, Wwt.Sched.now ()) :: !log
          done)
    in
    !log
  in
  Alcotest.(check bool) "two runs identical" true (run () = run ())

(* A lone fiber never finds another fiber due first, so only the bound on
   consecutive direct advances brings it back to the scheduler loop,
   where [poll] runs (sched.mli). A raising poll abandons the run and
   leaves nothing installed on the domain. *)
let test_lone_fiber_polls () =
  let steps = ref 0 in
  let body _ =
    for _ = 1 to 1_000_000 do
      incr steps;
      Wwt.Sched.advance 1
    done
  in
  let cfg = config ~nodes:1 () in
  let undisturbed = Wwt.Sched.run cfg body in
  Alcotest.(check int) "undisturbed final time" 1_000_000 undisturbed;
  let polls = ref 0 in
  ignore (Wwt.Sched.run ~poll:(fun () -> incr polls) cfg body);
  Alcotest.(check bool) "poll reached" true (!polls > 0);
  steps := 0;
  Alcotest.check_raises "a raising poll abandons the run"
    (Wwt.Sched.Cancelled "deadline") (fun () ->
      ignore
        (Wwt.Sched.run
           ~poll:(fun () -> raise (Wwt.Sched.Cancelled "deadline"))
           cfg body));
  Alcotest.(check bool) "abandoned early" true (!steps < 1_000_000);
  Alcotest.check_raises "no run left installed"
    (Invalid_argument "Sched.now: not inside Sched.run") (fun () ->
      ignore (Wwt.Sched.now ()));
  Alcotest.(check int) "a fresh run is unaffected" undisturbed
    (Wwt.Sched.run cfg body)

(* A run that ends early unwinds its parked fibers, so each frees its
   stack and runs its finalisers: a continuation that is never resumed
   would keep its stack for good. *)
let test_abandoned_fibers_unwind () =
  let unwound = ref 0 in
  let guarded f = Fun.protect ~finally:(fun () -> incr unwound) f in
  Alcotest.check_raises "cancelled" (Wwt.Sched.Cancelled "deadline")
    (fun () ->
      ignore
        (Wwt.Sched.run
           ~poll:(fun () -> raise (Wwt.Sched.Cancelled "deadline"))
           (config ~nodes:4 ())
           (fun _ ->
             guarded (fun () ->
                 while true do
                   Wwt.Sched.advance 64
                 done))));
  Alcotest.(check int) "every cancelled fiber unwound" 4 !unwound;
  unwound := 0;
  Alcotest.check_raises "deadlock"
    (Wwt.Sched.Deadlock
       "1 of 2 nodes finished; 1 parked at a barrier, 0 waiting on locks")
    (fun () ->
      ignore
        (Wwt.Sched.run (config ()) (fun node ->
             guarded (fun () ->
                 if node = 0 then Wwt.Sched.barrier_sync ~pc:1))));
  Alcotest.(check int) "the finished and the deadlocked fiber" 2 !unwound

(* The run's state is domain-local: trace runs of the five programs on
   both engines, three at a time on separate domains, must produce the
   outcomes they produce one after another. *)
let test_concurrent_runs () =
  let machine = { Wwt.Machine.default with Wwt.Machine.nodes = 8 } in
  let cases =
    List.concat_map
      (fun name ->
        let b = Benchmarks.Suite.find ~nodes:8 name in
        let p = Lang.Parser.parse b.Benchmarks.Suite.source in
        [ (name, Wwt.Run.Compiled, p); (name, Wwt.Run.Tree_walk, p) ])
      Benchmarks.Suite.names
  in
  let digest (_, engine, p) =
    T_golden.outcome_digest (Wwt.Run.collect_trace ~engine ~machine p)
  in
  let sequential = List.map digest cases in
  let concurrent = Wwt.Jobs.map ~jobs:3 digest cases in
  List.iter2
    (fun ((name, engine, _), want) got ->
      Alcotest.(check string)
        (Printf.sprintf "%s on %s" name
           (match engine with
           | Wwt.Run.Compiled -> "compiled"
           | Wwt.Run.Tree_walk -> "tree walk"))
        want got)
    (List.combine cases sequential)
    concurrent

let suite =
  [
    Alcotest.test_case "advance accumulates" `Quick test_advance_accumulates;
    Alcotest.test_case "min-time interleaving" `Quick test_min_time_interleaving;
    Alcotest.test_case "barrier synchronises clocks" `Quick test_barrier_synchronises;
    Alcotest.test_case "barrier arrival pcs" `Quick test_barrier_arrival_pcs;
    Alcotest.test_case "deadlock detection" `Quick test_deadlock_detection;
    Alcotest.test_case "lock mutual exclusion" `Quick test_lock_mutual_exclusion;
    Alcotest.test_case "release without hold" `Quick test_lock_release_without_hold;
    Alcotest.test_case "deterministic schedule" `Quick test_determinism;
    Alcotest.test_case "lone fiber reaches poll" `Quick test_lone_fiber_polls;
    Alcotest.test_case "abandoned fibers unwind" `Quick
      test_abandoned_fibers_unwind;
    Alcotest.test_case "concurrent runs match sequential" `Slow
      test_concurrent_runs;
  ]
