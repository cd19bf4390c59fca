open Memsys

let test_initial_idle () =
  let d = Directory.create ~nodes:4 in
  Alcotest.(check bool) "unreferenced block is Idle" true
    (Directory.get d 42 = Directory.Idle);
  Alcotest.(check int) "no sharers" 0 (Directory.sharer_count d 42)

let test_add_remove_sharers () =
  let d = Directory.create ~nodes:4 in
  Directory.add_sharer d 7 ~node:1;
  Directory.add_sharer d 7 ~node:3;
  Alcotest.(check (list int)) "sharers sorted" [ 1; 3 ] (Directory.sharers d 7);
  Alcotest.(check int) "count" 2 (Directory.sharer_count d 7);
  Alcotest.(check bool) "is sharer" true (Directory.is_sharer d 7 ~node:3);
  Alcotest.(check bool) "not sharer" false (Directory.is_sharer d 7 ~node:0);
  Directory.remove_sharer d 7 ~node:1;
  Alcotest.(check (list int)) "one left" [ 3 ] (Directory.sharers d 7);
  Directory.remove_sharer d 7 ~node:3;
  Alcotest.(check bool) "back to Idle" true (Directory.get d 7 = Directory.Idle)

let test_exclusive () =
  let d = Directory.create ~nodes:4 in
  Directory.set d 9 (Directory.Exclusive 2);
  Alcotest.(check bool) "exclusive" true (Directory.get d 9 = Directory.Exclusive 2);
  Alcotest.(check (list int)) "no sharers while exclusive" [] (Directory.sharers d 9);
  Alcotest.check_raises "add_sharer on exclusive"
    (Invalid_argument "Directory.add_sharer: block is held exclusive")
    (fun () -> Directory.add_sharer d 9 ~node:1)

let test_set_normalises () =
  let d = Directory.create ~nodes:4 in
  Directory.set d 5 (Directory.Shared 0);
  Alcotest.(check bool) "Shared 0 is Idle" true (Directory.get d 5 = Directory.Idle);
  Directory.set d 5 (Directory.Shared 0b1010);
  Directory.set d 5 Directory.Idle;
  Alcotest.(check bool) "Idle clears" true (Directory.get d 5 = Directory.Idle);
  Alcotest.(check bool) "entries empty" true (Directory.entries d = [])

let test_entries () =
  let d = Directory.create ~nodes:4 in
  Directory.add_sharer d 1 ~node:0;
  Directory.set d 2 (Directory.Exclusive 3);
  Alcotest.(check int) "two entries" 2 (List.length (Directory.entries d))

let test_bounds () =
  Alcotest.check_raises "too many nodes"
    (Invalid_argument "Directory.create: nodes must be in [1, 62]") (fun () ->
      ignore (Directory.create ~nodes:63));
  let d = Directory.create ~nodes:2 in
  Alcotest.check_raises "node out of range"
    (Invalid_argument "Directory: node out of range") (fun () ->
      Directory.add_sharer d 0 ~node:2)

let test_popcount () =
  Alcotest.(check int) "popcount 0" 0 (Directory.popcount 0);
  Alcotest.(check int) "popcount 0b1011" 3 (Directory.popcount 0b1011);
  Alcotest.(check int) "popcount max" 62 (Directory.popcount ((1 lsl 62) - 1))

(* ---- model-based property ----

   Random [set], [add_sharer] and [remove_sharer] calls against a [Map]
   of the non-Idle states. Blocks run up to 2^16, far past the flat
   table's initial size, with a hot range so calls collide; machines of
   62 nodes put sharer bits in the top bit of the stored code. *)

module M = Map.Make (Int)

type op = Set of int * Directory.state | Add of int * int | Remove of int * int

let pp_state = function
  | Directory.Idle -> "Idle"
  | Directory.Shared m -> Printf.sprintf "Shared %#x" m
  | Directory.Exclusive o -> Printf.sprintf "Exclusive %d" o

let pp_op = function
  | Set (b, st) -> Printf.sprintf "set %d (%s)" b (pp_state st)
  | Add (b, n) -> Printf.sprintf "add_sharer %d %d" b n
  | Remove (b, n) -> Printf.sprintf "remove_sharer %d %d" b n

let ops_gen nodes =
  let open QCheck.Gen in
  let blk =
    frequency [ (3, int_range 0 63); (1, int_range 0 ((1 lsl 16) - 1)) ]
  in
  let node = int_range 0 (nodes - 1) in
  let state =
    frequency
      [
        (1, return Directory.Idle);
        ( 3,
          map (fun m -> Directory.Shared m) (int_range 0 ((1 lsl nodes) - 1)) );
        (2, map (fun o -> Directory.Exclusive o) node);
      ]
  in
  list_size (int_range 0 200)
    (frequency
       [
         (2, map2 (fun b s -> Set (b, s)) blk state);
         (3, map2 (fun b n -> Add (b, n)) blk node);
         (2, map2 (fun b n -> Remove (b, n)) blk node);
       ])

let case_gen =
  QCheck.Gen.(
    oneofl [ 1; 4; 62 ] >>= fun nodes ->
    map2
      (fun first after -> (nodes, first, after))
      (ops_gen nodes) (ops_gen nodes))

let case_arb =
  QCheck.make
    ~print:(fun (nodes, first, after) ->
      Printf.sprintf "nodes %d\nfirst: %s\nthen: %s" nodes
        (String.concat "; " (List.map pp_op first))
        (String.concat "; " (List.map pp_op after)))
    case_gen

let model_get m blk = Option.value (M.find_opt blk m) ~default:Directory.Idle

let model_put m blk = function
  | Directory.Idle | Directory.Shared 0 -> M.remove blk m
  | st -> M.add blk st m

(* Apply [op] to the directory and the model alike; [add_sharer] on an
   exclusive block must raise and change nothing. *)
let apply d m op =
  match op with
  | Set (b, st) ->
      Directory.set d b st;
      model_put m b st
  | Add (b, n) -> (
      match model_get m b with
      | Directory.Exclusive _ ->
          (match Directory.add_sharer d b ~node:n with
          | () ->
              QCheck.Test.fail_reportf "add_sharer on exclusive %d accepted" b
          | exception Invalid_argument _ -> ());
          m
      | Directory.Idle ->
          Directory.add_sharer d b ~node:n;
          model_put m b (Directory.Shared (1 lsl n))
      | Directory.Shared s ->
          Directory.add_sharer d b ~node:n;
          model_put m b (Directory.Shared (s lor (1 lsl n))))
  | Remove (b, n) -> (
      Directory.remove_sharer d b ~node:n;
      match model_get m b with
      | Directory.Shared s ->
          model_put m b (Directory.Shared (s land lnot (1 lsl n)))
      | Directory.Idle | Directory.Exclusive _ -> m)

let agrees what d m touched =
  let fail fmt = QCheck.Test.fail_reportf ("%s: " ^^ fmt) what in
  List.iter
    (fun b ->
      if Directory.get d b <> model_get m b then
        fail "get %d = %s, model %s" b (pp_state (Directory.get d b))
          (pp_state (model_get m b)))
    touched;
  if Directory.entries d <> M.bindings m then fail "entries differ";
  (match Directory.validate d with
  | None -> ()
  | Some (b, why) -> fail "validate: block %d: %s" b why);
  true

let blocks ops =
  List.map (function Set (b, _) | Add (b, _) | Remove (b, _) -> b) ops

let prop_model =
  QCheck.Test.make ~count:300
    ~name:"Map model agrees with get, entries and validate"
    case_arb (fun (nodes, first, after) ->
      let d = Directory.create ~nodes in
      let m = List.fold_left (apply d) M.empty first in
      let touched = blocks first @ blocks after in
      ignore (agrees "first batch" d m touched);
      let m' = List.fold_left (apply d) m after in
      agrees "second batch" d m' touched)

let suite =
  [
    Alcotest.test_case "initially idle" `Quick test_initial_idle;
    Alcotest.test_case "add/remove sharers" `Quick test_add_remove_sharers;
    Alcotest.test_case "exclusive state" `Quick test_exclusive;
    Alcotest.test_case "set normalises" `Quick test_set_normalises;
    Alcotest.test_case "entries" `Quick test_entries;
    Alcotest.test_case "bounds checks" `Quick test_bounds;
    Alcotest.test_case "popcount" `Quick test_popcount;
    Qc.qtest prop_model;
  ]
