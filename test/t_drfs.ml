module Iset = Trace.Epoch.Iset

let miss node pc addr kind = Trace.Event.Miss { node; pc; addr; kind; held = [] }

let epoch_of records =
  match Trace.Epoch.split ~nodes:4 records with
  | [ e ], _ -> e
  | _ -> Alcotest.fail "expected one epoch"

let analyze records =
  Cachier.Drfs.analyze_sorted ~block_size:32
    (Trace.Epoch.by_address (epoch_of records).Trace.Epoch.misses)

let set = Alcotest.testable
    (fun ppf s -> Fmt.(list ~sep:comma int) ppf (Iset.elements s))
    Iset.equal

let test_write_write_race () =
  let d = analyze [ miss 0 1 0 Trace.Event.Write_miss; miss 1 2 0 Trace.Event.Write_miss ] in
  Alcotest.check set "race" (Iset.singleton 0) (Cachier.Drfs.race d)

let test_read_write_race () =
  let d = analyze [ miss 0 1 0 Trace.Event.Read_miss; miss 1 2 0 Trace.Event.Write_fault ] in
  Alcotest.check set "race" (Iset.singleton 0) (Cachier.Drfs.race d)

let test_read_read_no_race () =
  let d = analyze [ miss 0 1 0 Trace.Event.Read_miss; miss 1 2 0 Trace.Event.Read_miss ] in
  Alcotest.check set "no race" Iset.empty (Cachier.Drfs.race d);
  Alcotest.check set "no false sharing either" Iset.empty (Cachier.Drfs.false_shared d)

let test_same_node_no_race () =
  let d = analyze [ miss 0 1 0 Trace.Event.Read_miss; miss 0 2 0 Trace.Event.Write_fault ] in
  Alcotest.check set "single node is not a race" Iset.empty (Cachier.Drfs.race d)

let test_false_sharing_write_read () =
  (* node 0 writes addr 0; node 1 reads addr 8 of the same block *)
  let d = analyze [ miss 0 1 0 Trace.Event.Write_miss; miss 1 2 8 Trace.Event.Read_miss ] in
  Alcotest.check set "both addresses falsely shared" (Iset.of_list [ 0; 8 ])
    (Cachier.Drfs.false_shared d);
  Alcotest.check set "no race" Iset.empty (Cachier.Drfs.race d)

let test_false_sharing_needs_write () =
  let d = analyze [ miss 0 1 0 Trace.Event.Read_miss; miss 1 2 8 Trace.Event.Read_miss ] in
  Alcotest.check set "read-read block sharing is not false sharing" Iset.empty
    (Cachier.Drfs.false_shared d)

let test_false_sharing_needs_two_nodes () =
  let d = analyze [ miss 0 1 0 Trace.Event.Write_miss; miss 0 2 8 Trace.Event.Read_miss ] in
  Alcotest.check set "one node touching two addrs is fine" Iset.empty
    (Cachier.Drfs.false_shared d)

let test_different_blocks_no_false_sharing () =
  let d = analyze [ miss 0 1 0 Trace.Event.Write_miss; miss 1 2 32 Trace.Event.Write_miss ] in
  Alcotest.check set "different blocks" Iset.empty (Cachier.Drfs.false_shared d)

let test_drfs_union_and_filters () =
  let d =
    analyze
      [
        miss 0 1 0 Trace.Event.Write_miss;
        miss 1 2 0 Trace.Event.Write_miss; (* race on 0 *)
        miss 0 3 32 Trace.Event.Write_miss;
        miss 1 4 40 Trace.Event.Read_miss; (* false sharing on 32, 40 *)
        miss 0 5 64 Trace.Event.Read_miss; (* clean *)
      ]
  in
  Alcotest.check set "drfs union" (Iset.of_list [ 0; 32; 40 ]) (Cachier.Drfs.drfs_set d);
  let all = Iset.of_list [ 0; 32; 40; 64 ] in
  Alcotest.check set "filter_drfs" (Iset.of_list [ 0; 32; 40 ])
    (Cachier.Drfs.filter_drfs d all);
  Alcotest.check set "filter_not_drfs" (Iset.of_list [ 64 ])
    (Cachier.Drfs.filter_not_drfs d all);
  Alcotest.check set "filter_fs" (Iset.of_list [ 32; 40 ]) (Cachier.Drfs.filter_fs d all);
  Alcotest.check set "filter_not_fs" (Iset.of_list [ 0; 64 ])
    (Cachier.Drfs.filter_not_fs d all);
  Alcotest.(check bool) "in_race" true (Cachier.Drfs.in_race d 0);
  Alcotest.(check bool) "in_false_sharing" true (Cachier.Drfs.in_false_sharing d 40);
  Alcotest.(check bool) "in_drfs" true (Cachier.Drfs.in_drfs d 32);
  Alcotest.(check bool) "clean addr" false (Cachier.Drfs.in_drfs d 64)

let test_race_and_false_sharing_coexist () =
  (* race on addr 0 AND false sharing with addr 8 in the same block *)
  let d =
    analyze
      [
        miss 0 1 0 Trace.Event.Write_miss;
        miss 1 2 0 Trace.Event.Write_miss;
        miss 2 3 8 Trace.Event.Read_miss;
      ]
  in
  Alcotest.check set "race on 0" (Iset.singleton 0) (Cachier.Drfs.race d);
  Alcotest.(check bool) "8 falsely shared" true (Cachier.Drfs.in_false_sharing d 8)

let suite =
  [
    Alcotest.test_case "write-write race" `Quick test_write_write_race;
    Alcotest.test_case "read-write race" `Quick test_read_write_race;
    Alcotest.test_case "read-read is clean" `Quick test_read_read_no_race;
    Alcotest.test_case "single node is clean" `Quick test_same_node_no_race;
    Alcotest.test_case "false sharing write/read" `Quick test_false_sharing_write_read;
    Alcotest.test_case "false sharing needs a write" `Quick test_false_sharing_needs_write;
    Alcotest.test_case "false sharing needs two nodes" `Quick
      test_false_sharing_needs_two_nodes;
    Alcotest.test_case "different blocks clean" `Quick test_different_blocks_no_false_sharing;
    Alcotest.test_case "filters" `Quick test_drfs_union_and_filters;
    Alcotest.test_case "race and FS coexist" `Quick test_race_and_false_sharing_coexist;
  ]
