open Lang

let info () =
  Sema.check
    (Parser.parse "shared A[10]; shared B[5]; shared C[1]; proc main() { }")

let layout () = Label.layout ~block_size:32 ~elem_size:8 (info ())

let test_block_alignment () =
  let l = layout () in
  List.iter
    (fun (e : Label.entry) ->
      Alcotest.(check int)
        (e.Label.name ^ " base block aligned")
        0
        (e.Label.base mod 32))
    (Label.entries l)

let test_no_overlap () =
  let l = layout () in
  let ranges =
    List.map
      (fun (e : Label.entry) ->
        (e.Label.base, e.Label.base + (e.Label.elems * e.Label.elem_size) - 1))
      (Label.entries l)
  in
  let rec pairs = function
    | [] -> []
    | x :: rest -> List.map (fun y -> (x, y)) rest @ pairs rest
  in
  List.iter
    (fun ((lo1, hi1), (lo2, hi2)) ->
      Alcotest.(check bool) "disjoint" true (hi1 < lo2 || hi2 < lo1))
    (pairs ranges)

let test_layout_values () =
  let l = layout () in
  Alcotest.(check int) "A at 0" 0 (Label.base l "A");
  (* A: 10 elems * 8 = 80 bytes -> next block boundary 96 *)
  Alcotest.(check int) "B at 96" 96 (Label.base l "B");
  (* B: 5 * 8 = 40 -> 96 + 40 = 136 -> aligned 160 *)
  Alcotest.(check int) "C at 160" 160 (Label.base l "C");
  Alcotest.(check int) "total bytes" 168 (Label.total_bytes l)

let test_addr_of_elem () =
  let l = layout () in
  Alcotest.(check int) "B[2]" (96 + 16) (Label.addr_of_elem l "B" 2);
  Alcotest.check_raises "out of bounds"
    (Invalid_argument "Label.addr_of_elem: B[5] out of bounds (size 5)")
    (fun () -> ignore (Label.addr_of_elem l "B" 5))

let test_to_label_records () =
  let l = layout () in
  let recs = Label.to_label_records l in
  Alcotest.(check int) "three records" 3 (List.length recs);
  Alcotest.(check bool) "A record" true (List.mem ("A", 0, 79) recs)

let test_find_and_elems () =
  let l = layout () in
  Alcotest.(check int) "elems of A" 10 (Label.elems l "A");
  Alcotest.(check bool) "unknown array" true (Label.find_array l "Z" = None);
  Alcotest.check_raises "base of unknown" Not_found (fun () ->
      ignore (Label.base l "Z"))

let suite =
  [
    Alcotest.test_case "block alignment" `Quick test_block_alignment;
    Alcotest.test_case "regions disjoint" `Quick test_no_overlap;
    Alcotest.test_case "layout addresses" `Quick test_layout_values;
    Alcotest.test_case "addr_of_elem" `Quick test_addr_of_elem;
    Alcotest.test_case "label records" `Quick test_to_label_records;
    Alcotest.test_case "find and elems" `Quick test_find_and_elems;
  ]
