(* Whole-suite engine equivalence: every benchmark program in
   Benchmarks.Suite must behave identically under the tree-walking and
   the closure-compiling engine, in both trace and performance modes —
   same simulated time, statistics, printed output, final memory and
   decoded trace. This is the end-to-end guard for the packed trace
   buffer and the option-free protocol fast path, which both engines
   share.

   Also the regression test for the Sunlock held-list bug: releasing a
   reentrantly-held lock must drop only the innermost hold, so misses
   recorded after the inner unlock still carry the outer lock. *)

let nodes = 4
let machine = { Wwt.Machine.default with Wwt.Machine.nodes }

let stats_equal (a : Memsys.Stats.t) (b : Memsys.Stats.t) = a = b

let check_same name (a : Wwt.Interp.outcome) (b : Wwt.Interp.outcome) =
  Alcotest.(check int) (name ^ ": time") a.Wwt.Interp.time b.Wwt.Interp.time;
  Alcotest.(check bool) (name ^ ": stats") true
    (stats_equal a.Wwt.Interp.stats b.Wwt.Interp.stats);
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
      check_same (name ^ "/trace")
        (Wwt.Run.collect_trace ~engine:Wwt.Run.Tree_walk ~machine prog)
        (Wwt.Run.collect_trace ~engine:Wwt.Run.Compiled ~machine prog);
      check_same (name ^ "/perf")
        (Wwt.Run.measure ~engine:Wwt.Run.Tree_walk ~machine
           ~annotations:false ~prefetch:false prog)
        (Wwt.Run.measure ~engine:Wwt.Run.Compiled ~machine
           ~annotations:false ~prefetch:false prog))
    (Benchmarks.Suite.all ~scale:1.0 ~nodes ())

(* Both engines must also agree on every *annotated* variant of the
   suite: Cachier's inserted directives (Sannot ranges and per-pid
   Sannot_table statements) exercise engine paths — directive execution,
   prefetch issue — that unannotated programs never touch. *)
let annotated_suite_equivalence () =
  List.iter
    (fun (b : Benchmarks.Suite.t) ->
      let prog = Lang.Parser.parse b.Benchmarks.Suite.source in
      let name = b.Benchmarks.Suite.name in
      let trace =
        (Wwt.Run.collect_trace ~machine prog).Wwt.Interp.trace
      in
      List.iter
        (fun (mname, mode, prefetch) ->
          let options = { Cachier.Placement.mode; prefetch } in
          let annotated =
            (Cachier.Annotate.annotate_with_trace ~machine ~options prog trace)
              .Cachier.Annotate.annotated
          in
          check_same
            (Printf.sprintf "%s/%s annotated" name mname)
            (Wwt.Run.measure ~engine:Wwt.Run.Tree_walk ~machine
               ~annotations:true ~prefetch annotated)
            (Wwt.Run.measure ~engine:Wwt.Run.Compiled ~machine
               ~annotations:true ~prefetch annotated))
        [
          ("performance", Cachier.Equations.Performance, true);
          ("programmer", Cachier.Equations.Programmer, false);
        ])
    (Benchmarks.Suite.all ~scale:1.0 ~nodes ())

(* node 0 re-acquires lock 1 while holding it; A[0] and A[32] are in
   different 32-byte blocks, so both stores miss in trace mode. The miss
   after the inner unlock must still list the outer hold. *)
let reentrant_source =
  {|const N = 64;
shared A[N];
proc main() {
  if (pid == 0) {
    lock(1);
    lock(1);
    A[0] = 1.0;
    unlock(1);
    A[32] = 2.0;
    unlock(1);
  }
  barrier;
}
|}

let node0_held trace =
  List.filter_map
    (function
      | Trace.Event.Miss m when m.Trace.Event.node = 0 ->
          Some m.Trace.Event.held
      | _ -> None)
    trace

let sunlock_reentrant () =
  let prog = Lang.Parser.parse reentrant_source in
  let a = Wwt.Run.collect_trace ~engine:Wwt.Run.Tree_walk ~machine prog in
  let b = Wwt.Run.collect_trace ~engine:Wwt.Run.Compiled ~machine prog in
  check_same "reentrant" a b;
  match node0_held a.Wwt.Interp.trace with
  | [ inner; outer ] ->
      Alcotest.(check (list int)) "held inside nested hold" [ 1; 1 ] inner;
      Alcotest.(check (list int)) "outer hold survives inner unlock" [ 1 ]
        outer
  | held ->
      Alcotest.failf "expected 2 node-0 misses, got %d" (List.length held)

let remove_lock_innermost () =
  Alcotest.(check (list int)) "innermost only" [ 7; 3 ]
    (Wwt.Interp.remove_lock 7 [ 7; 7; 3 ]);
  Alcotest.(check (list int)) "absent lock is a no-op" [ 7; 3 ]
    (Wwt.Interp.remove_lock 9 [ 7; 3 ]);
  Alcotest.(check (list int)) "empty" [] (Wwt.Interp.remove_lock 1 [])

(* ---- scheduling edge cases ----

   Small programs aimed at the scheduler paths the suite benchmarks
   rarely reach: both engines must agree on each in trace and perf
   mode. *)

let check_engines name ~machine src =
  let prog = Lang.Parser.parse src in
  check_same (name ^ "/trace")
    (Wwt.Run.collect_trace ~engine:Wwt.Run.Tree_walk ~machine prog)
    (Wwt.Run.collect_trace ~engine:Wwt.Run.Compiled ~machine prog);
  check_same (name ^ "/perf")
    (Wwt.Run.measure ~engine:Wwt.Run.Tree_walk ~machine ~annotations:false
       ~prefetch:false prog)
    (Wwt.Run.measure ~engine:Wwt.Run.Compiled ~machine ~annotations:false
       ~prefetch:false prog)

(* An epoch whose total work is far below the quantum: no node ever
   yields mid-epoch, only at the barriers. *)
let quantum_exceeds_epoch () =
  let machine = { machine with Wwt.Machine.quantum = 1_000_000 } in
  check_engines "huge-quantum" ~machine
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
  check_engines "finish-mid-quantum" ~machine
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
   scheduler; both engines must report the identical diagnostic. *)
let finish_vs_barrier_deadlock () =
  let prog =
    Lang.Parser.parse
      {|shared A[8];
proc main() {
  if (pid > 0) {
    barrier;
  }
  A[pid] = 1;
}
|}
  in
  let message engine =
    match
      Wwt.Run.measure ~engine ~machine ~annotations:false ~prefetch:false prog
    with
    | _ -> Alcotest.fail "expected a deadlock"
    | exception Wwt.Sched.Deadlock msg -> msg
  in
  Alcotest.(check string) "deadlock message"
    (message Wwt.Run.Tree_walk) (message Wwt.Run.Compiled)

(* Back-to-back barriers with no misses in between: the epochs are empty
   apart from their barrier records, which the packed trace must keep as
   distinct groups. *)
let zero_miss_epochs () =
  check_engines "zero-miss-epochs" ~machine
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

(* Cross-node sharing inside one epoch: each node reads an element its
   neighbour writes, so the values read depend on the interleaving, which
   both engines must reproduce. *)
let cross_node_conflict () =
  check_engines "cross-node-conflict" ~machine
    {|shared A[16];
proc main() {
  A[pid] = pid;
  A[8 + pid] = A[(pid + 1) % 4] + 1;
}
|}

(* ---- private loops ----

   Loops over private data, scalars and intrinsics only, with no barrier
   to line the nodes up afterwards, so the nodes reach the shared
   operations after them at different times. *)

(* examples/programs/ragged.sm: the order of its printed lines, of its
   stores and of its lock hand-overs is the scheduler's *)
let ragged_private_loops () =
  check_engines "ragged" ~machine
    (T_obs.read_file (Option.get (T_obs.example "ragged.sm")))

(* examples/programs/operands.sm: every kind of leaf operand, on each
   side of the operators the compiled engine folds leaves into, next to
   subtrees that read shared memory. Under each protocol both engines
   must agree in trace mode, in perf mode, and in perf mode with its
   prefetch executed, where the read after it pays a stall that shows
   when each charge lands. At 3 nodes node 0 divides by zero. *)
let operand_leaves () =
  let src = T_obs.read_file (Option.get (T_obs.example "operands.sm")) in
  let prog = Lang.Parser.parse src in
  List.iter
    (fun protocol ->
      let machine = { machine with Wwt.Machine.protocol } in
      let name = "operands/" ^ Memsys.Protocol_id.to_string protocol in
      check_engines name ~machine src;
      check_same (name ^ "/prefetch")
        (Wwt.Run.measure ~engine:Wwt.Run.Tree_walk ~machine ~annotations:true
           ~prefetch:true prog)
        (Wwt.Run.measure ~engine:Wwt.Run.Compiled ~machine ~annotations:true
           ~prefetch:true prog))
    Memsys.Protocol_id.all;
  let machine = { machine with Wwt.Machine.nodes = 3 } in
  List.iter
    (fun (ename, engine) ->
      Alcotest.check_raises ("operands at 3 nodes: " ^ ename)
        (Wwt.Interp.Runtime_error "division by zero") (fun () ->
          ignore
            (Wwt.Run.measure ~engine ~machine ~annotations:false
               ~prefetch:false prog)))
    [ ("tree walk", Wwt.Run.Tree_walk); ("compiled", Wwt.Run.Compiled) ]

(* A store, an accumulation, a load and directives, each straight after
   a private loop whose length reverses the nodes' order: every node must
   wait for the others' earlier accesses to the same block before its
   own. *)
let shared_access_after_private_loop () =
  check_engines "shared-after-private-loop" ~machine
    {|shared A[16];
private X[8];
proc main() {
  for k = 0 to 90 - 20 * pid {
    X[k % 8] = X[k % 8] + k;
  }
  A[pid] = X[1] + pid;
  for k = 0 to 30 + 20 * pid {
    X[k % 8] = X[k % 8] * 0.5 + k;
  }
  A[pid + 4] = A[pid + 4] + X[2];
  for k = 0 to 90 - 20 * pid {
    X[k % 8] = X[k % 8] + 1.0;
  }
  y = A[(pid + 1) % 4] + A[4 + (pid + 1) % 4];
  print(y);
}
|};
  (* the same for executed directives *)
  let prog =
    Lang.Parser.parse
      {|shared A[16];
private X[8];
proc main() {
  for k = 0 to 90 - 20 * pid {
    X[k % 8] = X[k % 8] + k;
  }
  check_out_x A[0 .. 3];
  for k = 0 to 30 + 20 * pid {
    X[k % 8] = X[k % 8] * 0.5 + k;
  }
  check_in A[0 .. 3];
}
|}
  in
  check_same "directive-after-private-loop"
    (Wwt.Run.measure ~engine:Wwt.Run.Tree_walk ~machine ~annotations:true
       ~prefetch:false prog)
    (Wwt.Run.measure ~engine:Wwt.Run.Compiled ~machine ~annotations:true
       ~prefetch:false prog)

(* Node 1 divides by zero later in simulated time than node 0 indexes
   out of bounds, so node 0's error is the run's. *)
let error_in_private_loop () =
  let prog =
    Lang.Parser.parse
      {|shared A[64];
private X[16];
proc main() {
  if (pid == 0) {
    for k = 0 to 20 {
      X[k % 16] = X[k % 16] + k * 0.5;
    }
    A[1000] = X[3];
  }
  if (pid == 1) {
    for k = 0 to 99 {
      X[k % 16] = X[k % 16] + 1.0 / (60 - k);
    }
  }
}
|}
  in
  List.iter
    (fun (ename, engine) ->
      Alcotest.check_raises ename
        (Wwt.Interp.Runtime_error
           "index 1000 out of bounds for shared array A[64]") (fun () ->
          ignore
            (Wwt.Run.measure ~engine ~machine ~annotations:false
               ~prefetch:false prog)))
    [ ("tree walk", Wwt.Run.Tree_walk); ("compiled", Wwt.Run.Compiled) ]

(* ---- value typing edge cases ----

   Programs aimed at the paths where a value's representation matters:
   private elements nobody wrote (the int 0, which mixes into float
   arithmetic), signed zeros, NaN, float remainders, calls and indices
   inside float expressions, and a scalar holding both ints and floats.
   Both engines must agree, and node 0 must print [expected]. NaN stays
   out of shared memory: [check_same] compares memory with [=]. *)

let check_prints name src expected =
  check_engines name ~machine src;
  let o =
    Wwt.Run.measure ~machine ~annotations:false ~prefetch:false
      (Lang.Parser.parse src)
  in
  Alcotest.(check (list string)) (name ^ ": node 0 prints") expected
    (List.filter (fun l -> String.sub l 0 3 = "p0:") o.Wwt.Interp.output)

(* Both engines must stop with the same runtime error. *)
let check_error name src expected =
  let prog = Lang.Parser.parse src in
  let message engine =
    match
      Wwt.Run.measure ~engine ~machine ~annotations:false ~prefetch:false prog
    with
    | _ -> Alcotest.failf "%s: expected a runtime error" name
    | exception Wwt.Interp.Runtime_error msg -> msg
  in
  Alcotest.(check string) (name ^ ": tree walk") expected
    (message Wwt.Run.Tree_walk);
  Alcotest.(check string) (name ^ ": compiled") expected
    (message Wwt.Run.Compiled)

let unwritten_private_int_context () =
  check_prints "unwritten-int-context"
    {|private P[8];
proc main() {
  P[0] = 1.5;
  x = P[3] + 1;
  if (pid == 0) { print(x / 2, x, P[0] + P[3]); }
}
|}
    [ "p0: 0 1 1.5" ]

let unwritten_private_divisor () =
  check_error "unwritten-divisor"
    {|private P[8];
proc main() {
  P[0] = 2.5;
  x = 1 / P[7];
}
|}
    "division by zero"

let signed_zeros () =
  check_prints "signed-zeros"
    {|private P[8];
proc main() {
  P[1] = 0.5;
  z = P[0] * 0.0 * -1.0;
  w = -P[5];
  u = P[0] - P[5];
  if (pid == 0) { print(z, w, u, P[0] * -1.0, 0.0 * -1.0 + P[0]); }
}
|}
    [ "p0: -0 0 0 -0 0" ]

let nan_ordering () =
  (* [compare] puts NaN below every float *)
  check_prints "nan-ordering"
    {|private P[8];
proc main() {
  P[1] = 4.0;
  n = P[0] % 0.0;
  m = sqrt(-1.0);
  if (pid == 0) {
    print(n < 1.0, 1.0 < n, n == n, n < m, m < n, n < -1000000.0);
    print(min(n, 2.0) == n, min(2.0, n) == n, max(n, 2.0), max(2.0, n));
    print(min(P[1], P[0]), max(P[1], P[0]), min(P[0], P[1] - 4.0));
  }
}
|}
    [ "p0: 1 0 1 0 0 1"; "p0: 1 1 2 2"; "p0: 0 4 0" ]

(* [P[0] % 0.0] is x86-64's default NaN, whose sign bit is set *)
let nan_prints_the_same () =
  check_prints "nan-print"
    {|private P[8];
proc main() {
  x = P[0] % 0.0;
  y = 7.5 % 0.0;
  if (pid == 0) { print(x, y); }
}
|}
    [ "p0: nan nan" ]

let float_remainder () =
  check_prints "float-remainder"
    {|private P[8];
proc main() {
  P[2] = 7.5;
  r = P[2] % 2.0;
  s = P[2] % P[3];
  if (pid == 0) { print(r, s < -1000000.0, P[2] % 2, -P[2] % 2.0); }
}
|}
    [ "p0: 1.5 1 1.5 -1.5" ]

let unwritten_remainder () =
  check_error "unwritten-remainder"
    {|private P[8];
proc main() {
  P[0] = 1.0;
  r = P[6] % P[7];
}
|}
    "division by zero"

let call_in_float_expression () =
  check_prints "call-in-float-expression"
    {|private P[8];
proc twice(a) {
  t = a * 2.0 + 0.25;
  return t;
}
proc main() {
  P[1] = 1.5;
  s = P[1] * 3.0 + twice(P[1] + 1.0) * 0.5;
  q = sqrt(twice(P[1]) + twice(P[0]) * P[1]);
  if (pid == 0) { print(s, q, twice(P[2]) - P[1]); }
}
|}
    [ "p0: 7.125 1.90394 -1.25" ]

let float_index_and_noise () =
  check_prints "float-index-and-noise"
    {|shared A[16];
private P[8];
proc main() {
  P[0] = 1.75;
  A[pid * 4 + int(P[0] * 2.0)] = P[0] + 1.0;
  barrier;
  v = A[int(P[0] * 2.0 - 0.5)] + noise(int(P[0] * 100.0));
  P[int(P[0])] = v;
  if (pid == 0) { print(v, P[1], noise(int(P[0] * 100.0) + pid)); }
}
|}
    [ "p0: 3.20134 3.20134 0.451337" ]

let mixed_slot () =
  check_prints "mixed-slot"
    {|private P[8];
proc main() {
  v = 1;
  w = v + 2;
  v = v + 0.5;
  P[0] = v;
  P[1] = 3;
  for k = 0 to 2 {
    v = v * 2;
  }
  if (pid == 0) { print(v, w, P[0] + P[1], P[1] / 2); }
}
|}
    [ "p0: 12 3 4.5 1" ]

(* ---- unassigned scalars ----

   Reading a scalar before any write is a runtime error in both engines,
   raised at the same read; a read that only comes after a write in time
   (a later iteration) is not. *)

let unassigned_after_untaken_branch () =
  check_error "unassigned-after-branch"
    {|shared A[16];
proc main() {
  if (pid > 100) { x = 1; }
  y = x + 1;
  print(y);
}
|}
    {|undefined variable "x"|}

let unassigned_in_while_body () =
  check_error "unassigned-in-while"
    {|proc main() {
  k = 0;
  while (k < 2) {
    w = k + v;
    v = k;
    k = k + 1;
  }
}
|}
    {|undefined variable "v"|}

let assigned_in_earlier_iteration () =
  check_prints "assigned-in-earlier-iteration"
    {|const N = 7;
proc main() {
  k = 0;
  while (k < 3) {
    if (k > 0) { print(v, N); }
    v = k * 1.5;
    k = k + 1;
  }
  for N = 0 to 1 { }
  print(N);
}
|}
    [ "p0: 0 7"; "p0: 1.5 7"; "p0: 1" ]

let suite =
  [
    Alcotest.test_case "suite equivalence (both modes)" `Slow suite_equivalence;
    Alcotest.test_case "suite equivalence (annotated variants)" `Slow
      annotated_suite_equivalence;
    Alcotest.test_case "sunlock keeps outer reentrant hold" `Quick
      sunlock_reentrant;
    Alcotest.test_case "remove_lock drops innermost occurrence" `Quick
      remove_lock_innermost;
    Alcotest.test_case "quantum larger than epoch" `Quick quantum_exceeds_epoch;
    Alcotest.test_case "nodes finishing mid-quantum" `Quick finish_mid_quantum;
    Alcotest.test_case "finish vs barrier deadlocks identically" `Quick
      finish_vs_barrier_deadlock;
    Alcotest.test_case "zero-miss epochs" `Quick zero_miss_epochs;
    Alcotest.test_case "cross-node conflict program" `Quick
      cross_node_conflict;
    Alcotest.test_case "ragged private loops" `Quick ragged_private_loops;
    Alcotest.test_case "leaf operands of every folded operator" `Quick
      operand_leaves;
    Alcotest.test_case "shared access and directive after a private loop"
      `Quick
      shared_access_after_private_loop;
    Alcotest.test_case "error inside a private loop" `Quick
      error_in_private_loop;
    Alcotest.test_case "unwritten private element in int context" `Quick
      unwritten_private_int_context;
    Alcotest.test_case "unwritten private element as divisor" `Quick
      unwritten_private_divisor;
    Alcotest.test_case "signed zeros" `Quick signed_zeros;
    Alcotest.test_case "NaN through comparisons and min/max" `Quick
      nan_ordering;
    Alcotest.test_case "NaN prints without its sign" `Quick
      nan_prints_the_same;
    Alcotest.test_case "float remainder" `Quick float_remainder;
    Alcotest.test_case "remainder of unwritten elements" `Quick
      unwritten_remainder;
    Alcotest.test_case "call inside a float expression" `Quick
      call_in_float_expression;
    Alcotest.test_case "float index and noise argument" `Quick
      float_index_and_noise;
    Alcotest.test_case "slot assigned ints and floats" `Quick mixed_slot;
    Alcotest.test_case "unassigned read after an untaken branch" `Quick
      unassigned_after_untaken_branch;
    Alcotest.test_case "unassigned read in a while body" `Quick
      unassigned_in_while_body;
    Alcotest.test_case "read assigned in an earlier iteration" `Quick
      assigned_in_earlier_iteration;
  ]
