open Trace

let miss node pc addr kind = Event.Miss { node; pc; addr; kind; held = [] }
let barrier bnode bpc vt = Event.Barrier { bnode; bpc; vt }

let sample =
  [
    Event.Label { name = "A"; lo = 0; hi = 255 };
    Event.Label { name = "B"; lo = 256; hi = 511 };
    miss 0 10 0 Event.Read_miss;
    miss 1 10 8 Event.Write_miss;
    miss 0 12 256 Event.Write_fault;
    barrier 0 20 1000;
    barrier 1 20 1000;
    miss 1 30 16 Event.Read_miss;
    barrier 0 40 2000;
    barrier 1 40 2000;
  ]

let test_round_trip () =
  let text = Trace_file.to_string sample in
  let parsed = Trace_file.of_string text in
  Alcotest.(check int) "same length" (List.length sample) (List.length parsed);
  List.iter2
    (fun a b -> Alcotest.(check bool) "record equal" true (Event.equal a b))
    sample parsed

let test_comments_and_blanks () =
  let text = "# a comment\n\nM 0 1 2 R\n  \nB 0 3 4\n" in
  let parsed = Trace_file.of_string text in
  Alcotest.(check int) "two records" 2 (List.length parsed)

let test_malformed () =
  Alcotest.check_raises "bad kind"
    (Failure "trace line 1: bad miss kind \"Z\"") (fun () ->
      ignore (Trace_file.of_string "M 0 1 2 Z"));
  Alcotest.check_raises "bad record"
    (Failure "trace line 1: malformed record \"X 1 2\"") (fun () ->
      ignore (Trace_file.of_string "X 1 2"))

let test_file_io () =
  let path = Filename.temp_file "cachier" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace_file.save path sample;
      let parsed = Trace_file.load path in
      Alcotest.(check int) "loaded all" (List.length sample) (List.length parsed))

let test_epoch_split () =
  let epochs, labels = Epoch.split ~nodes:2 sample in
  Alcotest.(check int) "two epochs" 2 (List.length epochs);
  Alcotest.(check int) "two labels" 2 (List.length labels);
  match epochs with
  | [ e0; e1 ] ->
      Alcotest.(check bool) "epoch 0 starts at program start" true
        (e0.Epoch.start_pc = None);
      Alcotest.(check bool) "epoch 0 ends at pc 20" true (e0.Epoch.end_pc = Some 20);
      Alcotest.(check bool) "epoch 1 spans 20..40" true
        (Epoch.static_key e1 = (Some 20, Some 40));
      Alcotest.(check int) "epoch 0 has 3 misses" 3 (List.length e0.Epoch.misses);
      Alcotest.(check int) "epoch 1 has 1 miss" 1 (List.length e1.Epoch.misses)
  | _ -> Alcotest.fail "expected two epochs"

let test_epoch_per_node_sets () =
  let epochs, _ = Epoch.split ~nodes:2 sample in
  let e0 = List.hd epochs in
  let n0 = e0.Epoch.per_node.(0) and n1 = e0.Epoch.per_node.(1) in
  Alcotest.(check (list int)) "node 0 reads" [ 0 ]
    (Epoch.Iset.elements n0.Epoch.reads);
  Alcotest.(check (list int)) "node 0 faults" [ 256 ]
    (Epoch.Iset.elements n0.Epoch.faults);
  Alcotest.(check (list int)) "node 1 writes" [ 8 ]
    (Epoch.Iset.elements n1.Epoch.writes)

let test_epoch_final_open () =
  (* misses after the last barrier form a final epoch with end_pc None *)
  let records = sample @ [ miss 0 50 24 Event.Read_miss ] in
  let epochs, _ = Epoch.split ~nodes:2 records in
  Alcotest.(check int) "three epochs" 3 (List.length epochs);
  let last = List.nth epochs 2 in
  Alcotest.(check bool) "open end" true (last.Epoch.end_pc = None);
  Alcotest.(check bool) "starts at pc 40" true (last.Epoch.start_pc = Some 40)

let test_epoch_inconsistent_barriers () =
  let bad = [ barrier 0 20 1000; barrier 1 21 1000 ] in
  Alcotest.check_raises "different pcs in group"
    (Failure "trace: inconsistent barrier group") (fun () ->
      ignore (Epoch.split ~nodes:2 bad))

let test_epoch_incomplete_barrier_group () =
  let bad = [ miss 0 1 0 Event.Read_miss; barrier 0 20 1000; miss 0 2 8 Event.Read_miss ] in
  Alcotest.check_raises "partial group"
    (Failure "trace: barrier group has 1 records, expected 2") (fun () ->
      ignore (Epoch.split ~nodes:2 bad))

(* ---- packed buffer: streaming consumers ---- *)

let lmiss node pc addr kind held = Event.Miss { node; pc; addr; kind; held }

let sample_held =
  [
    lmiss 0 10 0 Event.Write_miss [ 1 ];
    lmiss 1 11 8 Event.Read_miss [ 3; 1 ];
    lmiss 0 12 0 Event.Write_fault [ 1 ];
    barrier 0 20 100;
    barrier 1 20 100;
    lmiss 1 30 16 Event.Read_miss [];
  ]

let test_buf_of_records_round_trip () =
  List.iter
    (fun rs ->
      let back = Buf.to_records (Buf.of_records rs) in
      Alcotest.(check int) "same length" (List.length rs) (List.length back);
      List.iter2
        (fun a b -> Alcotest.(check bool) "record equal" true (Event.equal a b))
        rs back)
    [ sample; sample_held; [] ]

let test_buf_iter_packed () =
  let buf = Buf.of_records sample_held in
  let barriers = ref 0 and held_ids = ref [] in
  Buf.iter_packed buf
    ~miss:(fun ~node:_ ~pc:_ ~addr:_ ~kind:_ ~held ->
      held_ids := held :: !held_ids)
    ~barrier:(fun ~node:_ ~pc:_ ~vt:_ -> incr barriers)
    ~label:(fun ~name:_ ~lo:_ ~hi:_ -> ());
  Alcotest.(check int) "two barriers" 2 !barriers;
  (match List.rev !held_ids with
  | [ a; b; c; d ] ->
      Alcotest.(check bool) "same lock-set interned once" true (a = c);
      Alcotest.(check (list int)) "held decodes innermost-first" [ 1 ]
        (Buf.held_list buf a);
      Alcotest.(check (list int)) "nested held decodes" [ 3; 1 ]
        (Buf.held_list buf b);
      Alcotest.(check int) "empty set is id 0" 0 d
  | ids -> Alcotest.failf "expected four misses, saw %d" (List.length ids));
  (* empty set + [1] + [3;1]: three interned sets *)
  Alcotest.(check int) "three interned sets" 3 (Buf.n_held buf);
  Alcotest.check_raises "unknown id rejected"
    (Invalid_argument "Trace.Buf.held_list: unknown id 99") (fun () ->
      ignore (Buf.held_list buf 99))

(* Lock-set interning straight off a real trace on the non-power-of-two
   machine (768 B, 3-way): the nested-lock program holds {3,1} and {3,2}
   at its B misses, and the packed buffer must round-trip them. *)
let test_buf_interning_non_pow2_geometry () =
  let machine =
    {
      Wwt.Machine.default with
      Wwt.Machine.nodes = 4;
      cache_bytes = 768;
      assoc = 3;
      block_size = 32;
    }
  in
  let source =
    "const N = 16;\n\
     shared B[N];\n\
     proc main() {\n\
    \  if (pid < 2) {\n\
    \    lock(1); lock(3); B[0] = B[0] + 1; unlock(3); unlock(1);\n\
    \  } else {\n\
    \    lock(2); lock(3); B[0] = B[0] + 1; unlock(3); unlock(2);\n\
    \  }\n\
    \  barrier;\n\
     }\n"
  in
  let records = (Wwt.Run.source_trace ~machine source).Wwt.Interp.trace in
  let buf = Buf.of_records records in
  let back = Buf.to_records buf in
  List.iter2
    (fun a b -> Alcotest.(check bool) "record equal" true (Event.equal a b))
    records back;
  let seen = ref [] in
  Buf.iter_packed buf
    ~miss:(fun ~node:_ ~pc:_ ~addr:_ ~kind:_ ~held ->
      let locks = List.sort compare (Buf.held_list buf held) in
      if not (List.mem locks !seen) then seen := locks :: !seen)
    ~barrier:(fun ~node:_ ~pc:_ ~vt:_ -> ())
    ~label:(fun ~name:_ ~lo:_ ~hi:_ -> ());
  Alcotest.(check bool) "lock-set {1,3} seen" true (List.mem [ 1; 3 ] !seen);
  Alcotest.(check bool) "lock-set {2,3} seen" true (List.mem [ 2; 3 ] !seen)

let suite =
  [
    Alcotest.test_case "serialise round trip" `Quick test_round_trip;
    Alcotest.test_case "comments and blanks" `Quick test_comments_and_blanks;
    Alcotest.test_case "malformed input" `Quick test_malformed;
    Alcotest.test_case "file save/load" `Quick test_file_io;
    Alcotest.test_case "epoch split" `Quick test_epoch_split;
    Alcotest.test_case "per-node miss sets" `Quick test_epoch_per_node_sets;
    Alcotest.test_case "final open epoch" `Quick test_epoch_final_open;
    Alcotest.test_case "inconsistent barriers" `Quick test_epoch_inconsistent_barriers;
    Alcotest.test_case "incomplete barrier group" `Quick
      test_epoch_incomplete_barrier_group;
    Alcotest.test_case "packed buffer of_records round trip" `Quick
      test_buf_of_records_round_trip;
    Alcotest.test_case "packed buffer iter_packed and interning" `Quick
      test_buf_iter_packed;
    Alcotest.test_case "interning on the non-power-of-two machine" `Quick
      test_buf_interning_non_pow2_geometry;
  ]
