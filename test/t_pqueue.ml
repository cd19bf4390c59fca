(* The queue's payloads are ints and it reads the top through [min_prio]
   and [pop], which allocate nothing; these two views give back the
   (priority, payload) option the assertions below are written against.
   The priority in that pair is the top's before the pop, not read from
   the popped entry, so the cases that check priorities alone push each
   entry with its priority as payload and check what [pop] returns. *)
let pop q =
  if Wwt.Pqueue.is_empty q then None
  else
    let p = Wwt.Pqueue.min_prio q in
    Some (p, Wwt.Pqueue.pop q)

let peek_prio q =
  if Wwt.Pqueue.is_empty q then None else Some (Wwt.Pqueue.min_prio q)

let test_empty () =
  let q = Wwt.Pqueue.create () in
  Alcotest.(check bool) "is_empty" true (Wwt.Pqueue.is_empty q);
  Alcotest.(check int) "length" 0 (Wwt.Pqueue.length q);
  Alcotest.(check bool) "pop None" true (pop q = None);
  Alcotest.(check bool) "peek None" true (peek_prio q = None);
  Alcotest.(check int) "min_prio of empty" max_int (Wwt.Pqueue.min_prio q);
  Alcotest.check_raises "pop of empty"
    (Invalid_argument "Pqueue.pop: empty queue") (fun () ->
      ignore (Wwt.Pqueue.pop q))

let test_ordering () =
  let q = Wwt.Pqueue.create () in
  List.iter (fun (p, v) -> Wwt.Pqueue.push q ~prio:p v)
    [ (5, 50); (1, 10); (3, 30); (2, 20); (4, 40) ];
  let popped = ref [] in
  let rec drain () =
    match pop q with
    | Some (_, v) ->
        popped := v :: !popped;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "min first" [ 10; 20; 30; 40; 50 ]
    (List.rev !popped)

let test_fifo_ties () =
  let q = Wwt.Pqueue.create () in
  Wwt.Pqueue.push q ~prio:7 1;
  Wwt.Pqueue.push q ~prio:7 2;
  Wwt.Pqueue.push q ~prio:7 3;
  let take () = match pop q with Some (_, v) -> v | None -> -1 in
  let a = take () in
  let b = take () in
  let c = take () in
  Alcotest.(check (list int)) "insertion order" [ 1; 2; 3 ] [ a; b; c ]

let test_interleaved () =
  let q = Wwt.Pqueue.create () in
  Wwt.Pqueue.push q ~prio:10 1;
  Wwt.Pqueue.push q ~prio:5 2;
  Alcotest.(check bool) "pop min" true (pop q = Some (5, 2));
  Wwt.Pqueue.push q ~prio:1 3;
  Alcotest.(check bool) "new min" true (pop q = Some (1, 3));
  Alcotest.(check bool) "remaining" true (pop q = Some (10, 1))

let test_large_heap_property () =
  let q = Wwt.Pqueue.create () in
  let n = 2000 in
  (* deterministic pseudo-random insertions *)
  let x = ref 123456789 in
  let next () =
    x := (!x * 1103515245) + 12345;
    !x land 0xFFFF
  in
  let pushed = List.init n (fun _ -> next ()) in
  List.iter (fun p -> Wwt.Pqueue.push q ~prio:p p) pushed;
  Alcotest.(check int) "length" n (Wwt.Pqueue.length q);
  let rec drain acc =
    match pop q with None -> List.rev acc | Some (_, v) -> drain (v :: acc)
  in
  Alcotest.(check (list int)) "pops every entry in priority order"
    (List.sort compare pushed) (drain [])

(* The FIFO tie-break is global insertion order, so it must survive pops
   of other priorities in between (pqueue.mli). *)
let test_fifo_across_pops () =
  let q = Wwt.Pqueue.create () in
  let old = 1 and low = 2 and mid = 3 and new_ = 4 in
  Wwt.Pqueue.push q ~prio:7 old;
  Wwt.Pqueue.push q ~prio:3 low;
  Wwt.Pqueue.push q ~prio:7 mid;
  Alcotest.(check bool) "low first" true (pop q = Some (3, low));
  Wwt.Pqueue.push q ~prio:7 new_;
  Alcotest.(check bool) "oldest tie" true (pop q = Some (7, old));
  Alcotest.(check bool) "then mid" true (pop q = Some (7, mid));
  Alcotest.(check bool) "then new" true (pop q = Some (7, new_))

(* A popped entry re-pushed at the same priority goes behind every
   equal-priority entry still queued — the scheduler's re-parking case. *)
let test_reinsertion_goes_last () =
  let q = Wwt.Pqueue.create () in
  let a = 1 and b = 2 and c = 3 in
  Wwt.Pqueue.push q ~prio:5 a;
  Wwt.Pqueue.push q ~prio:5 b;
  Wwt.Pqueue.push q ~prio:5 c;
  Alcotest.(check bool) "a pops" true (pop q = Some (5, a));
  Wwt.Pqueue.push q ~prio:5 a;
  Alcotest.(check bool) "b next" true (pop q = Some (5, b));
  Alcotest.(check bool) "c next" true (pop q = Some (5, c));
  Alcotest.(check bool) "a re-queued last" true (pop q = Some (5, a))

(* peek_prio always names the entry the next pop returns. *)
let test_peek_matches_pop () =
  let q = Wwt.Pqueue.create () in
  List.iter (fun p -> Wwt.Pqueue.push q ~prio:p p) [ 9; 2; 6; 2; 8 ];
  let rec drain () =
    match peek_prio q with
    | None -> Alcotest.(check bool) "empty at end" true (pop q = None)
    | Some p ->
        Alcotest.(check int) "peek = pop" p (Wwt.Pqueue.pop q);
        drain ()
  in
  drain ()

(* Stress the sift paths, where naive binary heaps lose stability: many
   pseudo-random pushes over few distinct priorities, with interleaved
   pops, must still drain each priority class in push order. *)
let test_fifo_stability_stress () =
  let q = Wwt.Pqueue.create () in
  let x = ref 987654321 in
  let next () =
    x := (!x * 1103515245) + 12345;
    (!x lsr 4) land 0xFFFFFF
  in
  let counters = Array.make 8 0 in
  let expected = Array.make 8 [] in
  let popped = Array.make 8 [] in
  let record_pop () =
    match pop q with
    | Some (p, v) -> popped.(p) <- (v - (p * 10_000)) :: popped.(p)
    | None -> ()
  in
  for _ = 1 to 3000 do
    let r = next () in
    if r land 3 = 0 && not (Wwt.Pqueue.is_empty q) then record_pop ()
    else begin
      let p = r land 7 in
      let k = counters.(p) in
      counters.(p) <- k + 1;
      expected.(p) <- k :: expected.(p);
      Wwt.Pqueue.push q ~prio:p ((p * 10_000) + k)
    end
  done;
  while not (Wwt.Pqueue.is_empty q) do
    record_pop ()
  done;
  Array.iteri
    (fun p exp ->
      Alcotest.(check (list int))
        (Printf.sprintf "priority %d drains in push order" p)
        (List.rev exp) (List.rev popped.(p)))
    expected

let suite =
  [
    Alcotest.test_case "empty queue" `Quick test_empty;
    Alcotest.test_case "priority ordering" `Quick test_ordering;
    Alcotest.test_case "FIFO on ties" `Quick test_fifo_ties;
    Alcotest.test_case "FIFO across interleaved pops" `Quick
      test_fifo_across_pops;
    Alcotest.test_case "re-insertion queues behind ties" `Quick
      test_reinsertion_goes_last;
    Alcotest.test_case "peek matches pop" `Quick test_peek_matches_pop;
    Alcotest.test_case "FIFO stability under stress" `Quick
      test_fifo_stability_stress;
    Alcotest.test_case "interleaved push/pop" `Quick test_interleaved;
    Alcotest.test_case "large heap order" `Quick test_large_heap_property;
  ]
