(* Odds and ends: engine selection, cost-table rendering, AST equality,
   multi-trace planning. *)

open Lang

let machine = { Wwt.Machine.default with Wwt.Machine.nodes = 2 }

let test_run_engine_selection () =
  let prog = Parser.parse "shared A[4]; proc main() { A[pid] = 1.0; }" in
  let a = Wwt.Run.run_with Wwt.Run.Tree_walk ~machine prog in
  let b = Wwt.Run.run_with Wwt.Run.Compiled ~machine prog in
  Alcotest.(check int) "engines agree" a.Wwt.Interp.time b.Wwt.Interp.time

let test_network_pp () =
  let text = Format.asprintf "%a" Memsys.Network.pp Memsys.Network.default in
  Alcotest.(check bool) "renders" true (String.length text > 40)

let test_equal_modulo_sids () =
  let p1 = Parser.parse "proc main() { a = 1; if (a) { b = 2; } }" in
  let p2 = Ast.renumber (Ast.renumber p1) in
  Alcotest.(check bool) "renumbering preserves equality" true
    (Ast.equal_modulo_sids p1 p2);
  let p3 = Parser.parse "proc main() { a = 1; if (a) { b = 3; } }" in
  Alcotest.(check bool) "different constant differs" false
    (Ast.equal_modulo_sids p1 p3)

let test_plan_traces_direct () =
  let prog =
    Parser.parse "shared A[16]; proc main() { x = A[pid * 4]; A[pid * 4] = x + 1.0; }"
  in
  let trace seed =
    (Wwt.Run.collect_trace ~machine (Ast_util.set_const prog "NOSEED" seed))
      .Wwt.Interp.trace
  in
  let outcome = Wwt.Run.collect_trace ~machine prog in
  let einfos =
    List.map
      (Cachier.Epoch_info.build ~nodes:2 ~block_size:32)
      [ trace 1; trace 2 ]
  in
  let plan =
    Cachier.Placement.plan_traces ~program:prog
      ~layout:outcome.Wwt.Interp.layout ~machine ~einfos
      ~options:Cachier.Placement.default_options
  in
  Alcotest.(check bool) "multi-trace plan has edits" true
    (plan.Cachier.Placement.edits <> []);
  Alcotest.check_raises "empty einfos rejected"
    (Invalid_argument "Placement.plan_traces: no traces") (fun () ->
      ignore
        (Cachier.Placement.plan_traces ~program:prog
           ~layout:outcome.Wwt.Interp.layout ~machine ~einfos:[]
           ~options:Cachier.Placement.default_options))

let test_notes_render_in_nested_blocks () =
  let p = Parser.parse "proc main() { if (pid == 0) { for i = 0 to 3 { x = i; } } }" in
  (* note on the innermost statement (sid 2) *)
  let note sid = if sid = 2 then Some "Data Race on x" else None in
  let printed = Pretty.program_to_string ~note p in
  let contains needle =
    let n = String.length needle in
    let rec go i =
      i + n <= String.length printed && (String.sub printed i n = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "nested note rendered" true
    (contains "/*** Data Race on x ***/");
  (* and the annotated text still parses (comments are skipped) *)
  ignore (Parser.parse printed)

let test_value_to_string () =
  Alcotest.(check string) "negative int" "-3" (Value.to_string (Value.Vint (-3)));
  Alcotest.(check string) "float" "0.25" (Value.to_string (Value.Vfloat 0.25));
  Alcotest.(check string) "big float" "1e+10" (Value.to_string (Value.Vfloat 1e10))

let test_label_empty_program () =
  let info = Sema.check (Parser.parse "proc main() { x = 1; }") in
  let l = Label.layout ~block_size:32 ~elem_size:8 info in
  Alcotest.(check int) "no shared bytes" 0 (Label.total_bytes l);
  Alcotest.(check bool) "no entries" true (Label.entries l = []);
  Alcotest.(check bool) "lookup misses" true (Label.elem_of_addr l 0 = None)

let test_summary_empty_trace () =
  let s = Trace.Summary.analyze ~nodes:2 ~labels:[] [] in
  Alcotest.(check bool) "no regions" true (s.Trace.Summary.totals = []);
  Alcotest.(check bool) "no hottest" true (Trace.Summary.hottest_region s = None)

let suite =
  [
    Alcotest.test_case "engine selection" `Quick test_run_engine_selection;
    Alcotest.test_case "cost table rendering" `Quick test_network_pp;
    Alcotest.test_case "equal_modulo_sids" `Quick test_equal_modulo_sids;
    Alcotest.test_case "plan_traces" `Quick test_plan_traces_direct;
    Alcotest.test_case "nested race notes" `Quick test_notes_render_in_nested_blocks;
    Alcotest.test_case "value printing" `Quick test_value_to_string;
    Alcotest.test_case "empty layout" `Quick test_label_empty_program;
    Alcotest.test_case "empty trace summary" `Quick test_summary_empty_trace;
  ]
