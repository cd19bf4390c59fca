(* The delta engine: splicing, the taint prover, and end-to-end
   byte-identity of incremental re-annotation against the cold path. *)

open Lang

let machine = { Wwt.Machine.default with Wwt.Machine.nodes = 4 }
let opts = Cachier.Placement.default_options

let bench_sources () =
  List.map
    (fun (b : Benchmarks.Suite.t) -> (b.Benchmarks.Suite.name, b.Benchmarks.Suite.source))
    (Benchmarks.Suite.all ~nodes:4 ())

(* --- splice ------------------------------------------------------------ *)

let parse_or_err src = try Ok (Parser.parse src) with e -> Error (Printexc.to_string e)

let splice_or_err base base_ast span text =
  try Ok (fst (Delta.Splice.splice ~base ~base_ast span text))
  with e -> Error (Printexc.to_string e)

(* splice(src, span, text) = parse(apply_edit(src, span, text)), sids
   included — over arbitrary (mostly destructive) random edits. *)
let prop_splice_equals_parse =
  let sources = bench_sources () in
  let gen =
    QCheck.make
      ~print:(fun (name, start, len, text) ->
        Printf.sprintf "%s [%d,+%d) -> %S" name start len text)
      QCheck.Gen.(
        let* name, src = oneofl sources in
        let n = String.length src in
        let* start = int_range 0 (max 0 (n - 1)) in
        let* len = int_range 0 (min 40 (n - start)) in
        let* text =
          string_size ~gen:(oneofl [ '0'; '1'; '9'; '+'; ' '; 'a'; 'x'; '{'; '}'; ';' ])
            (int_range 0 6)
        in
        return (name, start, len, text))
  in
  QCheck.Test.make ~count:400 ~name:"splice(src,span,text) = parse(apply_edit src span text)"
    gen
    (fun (name, start, len, text) ->
      let src = List.assoc name (bench_sources ()) in
      let span = { Delta.Splice.start; len } in
      let base_ast = Parser.parse src in
      let edited = Delta.Splice.apply_edit src span text in
      match (splice_or_err src base_ast span text, parse_or_err edited) with
      | Ok p1, Ok p2 -> p1 = p2
      | Error _, Error _ -> true
      | Ok _, Error e ->
          QCheck.Test.fail_reportf "splice succeeded, parse failed: %s" e
      | Error e, Ok _ ->
          QCheck.Test.fail_reportf "parse succeeded, splice failed: %s" e)

(* Single-token integer edits inside a procedure take the incremental
   path and still agree with the full parse. *)
let prop_int_edits_incremental =
  let sources = bench_sources () in
  let gen =
    QCheck.make
      ~print:(fun (name, k, v) -> Printf.sprintf "%s literal#%d -> %d" name k v)
      QCheck.Gen.(
        let* name, src = oneofl sources in
        let lits = Delta.Splice.int_literals src in
        let* k = int_range 0 (max 0 (List.length lits - 1)) in
        let* v = int_range 0 99 in
        return (name, k, v))
  in
  QCheck.Test.make ~count:200 ~name:"int-literal edits splice incrementally" gen
    (fun (name, k, v) ->
      let src = List.assoc name (bench_sources ()) in
      let lits = Delta.Splice.int_literals src in
      let span, _ = List.nth lits k in
      let text = string_of_int v in
      let base_ast = Parser.parse src in
      let prog, how = Delta.Splice.splice ~base:src ~base_ast span text in
      let full = Parser.parse (Delta.Splice.apply_edit src span text) in
      (match how with
      | `Incremental _ -> ()
      | `Full -> QCheck.Test.fail_report "expected the incremental path");
      prog = full)

let test_edit_at_position_zero () =
  (* The first byte belongs to the first top-level item (a declaration in
     every benchmark) — the splice must fall back to a full re-parse and
     still agree with it. *)
  let src = Benchmarks.Matmul.source ~n:8 ~nodes:4 () in
  let base_ast = Parser.parse src in
  let span = { Delta.Splice.start = 0; len = 0 } in
  let text = "/* lead */ " in
  let prog, how = Delta.Splice.splice ~base:src ~base_ast span text in
  Alcotest.(check bool) "full path" true (how = `Full);
  Alcotest.(check bool) "agrees with parse" true
    (prog = Parser.parse (Delta.Splice.apply_edit src span text))

let test_edit_spanning_proc_boundary () =
  let src = Benchmarks.Jacobi.source ~n:16 ~t:2 ~nodes:4 () in
  let items = Delta.Splice.items src in
  let procs =
    List.filter (fun i -> i.Delta.Splice.ikind = Delta.Splice.Proc) items
  in
  match procs with
  | first :: _ ->
      (* a span from inside the first proc to past its end *)
      let start = first.Delta.Splice.istop - 1 in
      let span = { Delta.Splice.start; len = 2 } in
      let text = "} " in
      let base_ast = Parser.parse src in
      let _, how =
        try Delta.Splice.splice ~base:src ~base_ast span text
        with _ -> (base_ast, `Full)
      in
      Alcotest.(check bool) "full path" true (how = `Full)
  | [] -> Alcotest.fail "no procs found"

let test_insertion_inside_proc_incremental () =
  let src = Benchmarks.Matmul.source ~n:8 ~nodes:4 () in
  let items = Delta.Splice.items src in
  let p = List.find (fun i -> i.Delta.Splice.ikind = Delta.Splice.Proc) items in
  (* insert a statement right after the opening brace *)
  let brace = String.index_from src p.Delta.Splice.istart '{' in
  let span = { Delta.Splice.start = brace + 1; len = 0 } in
  let text = " zz9 = 1; " in
  let base_ast = Parser.parse src in
  let prog, how = Delta.Splice.splice ~base:src ~base_ast span text in
  (match how with
  | `Incremental _ -> ()
  | `Full -> Alcotest.fail "expected the incremental path");
  Alcotest.(check bool) "agrees with parse" true
    (prog = Parser.parse (Delta.Splice.apply_edit src span text))

(* --- taint ------------------------------------------------------------- *)

let prove src src' =
  Delta.Taint.compare_and_prove ~base:(Parser.parse src) ~edited:(Parser.parse src')

let test_taint_rhs_literal_preserved () =
  let src = "proc main() { x = 3; barrier; }" in
  let src' = "proc main() { x = 4; barrier; }" in
  match prove src src' with
  | Delta.Taint.Preserved { output_changed } ->
      Alcotest.(check bool) "output unchanged" false output_changed
  | Delta.Taint.Broken why -> Alcotest.fail ("unexpectedly broken: " ^ why)

let test_taint_print_flags_output () =
  let src = "proc main() { print(3); }" in
  let src' = "proc main() { print(4); }" in
  match prove src src' with
  | Delta.Taint.Preserved { output_changed } ->
      Alcotest.(check bool) "output changed" true output_changed
  | Delta.Taint.Broken why -> Alcotest.fail ("unexpectedly broken: " ^ why)

let test_taint_divisor_broken () =
  let src = "proc main() { x = 1 / 3; }" in
  let src' = "proc main() { x = 1 / 0; }" in
  match prove src src' with
  | Delta.Taint.Broken _ -> ()
  | Delta.Taint.Preserved _ -> Alcotest.fail "a divisor edit must be broken"

let test_taint_tainted_subscript_broken () =
  let src = "shared A[8]; proc main() { i = 3; x = A[i]; }" in
  let src' = "shared A[8]; proc main() { i = 4; x = A[i]; }" in
  match prove src src' with
  | Delta.Taint.Broken _ -> ()
  | Delta.Taint.Preserved _ ->
      Alcotest.fail "a tainted subscript must be broken"

let test_taint_loop_bound_broken () =
  let src = "proc main() { for i = 0 to 3 { x = i; } }" in
  let src' = "proc main() { for i = 0 to 4 { x = i; } }" in
  match prove src src' with
  | Delta.Taint.Broken _ -> ()
  | Delta.Taint.Preserved _ -> Alcotest.fail "a loop-bound edit must be broken"

let test_taint_through_call_broken () =
  (* the edited argument taints the callee's parameter, which indexes *)
  let src = "shared A[8]; proc f(k) { x = A[k]; } proc main() { f(1); }" in
  let src' = "shared A[8]; proc f(k) { x = A[k]; } proc main() { f(2); }" in
  match prove src src' with
  | Delta.Taint.Broken _ -> ()
  | Delta.Taint.Preserved _ ->
      Alcotest.fail "taint must flow through call arguments"

let test_taint_value_only_call_preserved () =
  let src = "proc f(k) { x = k + 1; } proc main() { f(1); barrier; }" in
  let src' = "proc f(k) { x = k + 1; } proc main() { f(2); barrier; }" in
  match prove src src' with
  | Delta.Taint.Preserved { output_changed } ->
      Alcotest.(check bool) "output unchanged" false output_changed
  | Delta.Taint.Broken why -> Alcotest.fail ("unexpectedly broken: " ^ why)

(* --- engine ------------------------------------------------------------ *)

let first_safe_edit src =
  (* the first int-literal edit whose cold re-annotation does not raise *)
  let rec pick = function
    | [] -> None
    | (span, v) :: rest -> (
        let text = string_of_int (v + 1) in
        let edited = Delta.Splice.apply_edit src span text in
        match
          (try
             Some (Cachier.Annotate.annotate_source ~machine ~options:opts edited)
           with _ -> None)
        with
        | Some cold -> Some (span, text, edited, cold)
        | None -> pick rest)
  in
  pick (Delta.Splice.int_literals src)

let test_noop_edit_pure_hit () =
  let dag = Delta.Dag.create () in
  let src = Benchmarks.Matmul.source ~n:8 ~nodes:4 () in
  let span = { Delta.Splice.start = 0; len = 0 } in
  let o = Delta.Engine.annotate_delta ~dag ~machine ~options:opts ~base:src span "" in
  Alcotest.(check bool) "noop" true (o.Delta.Engine.reuse = Delta.Engine.Noop);
  Alcotest.(check string) "same artifact" (Delta.Engine.source_digest src)
    o.Delta.Engine.artifact

let test_shared_decl_edit_resimulates () =
  let dag = Delta.Dag.create () in
  let src = "shared A[8]; proc main() { A[pid] = pid; barrier; }" in
  let start = String.index src '8' in
  let span = { Delta.Splice.start; len = 1 } in
  let o =
    Delta.Engine.annotate_delta ~dag ~machine ~options:opts ~base:src span "16"
  in
  (match o.Delta.Engine.reuse with
  | Delta.Engine.Resim _ -> ()
  | r ->
      Alcotest.fail
        ("a shared-declaration edit must resimulate, got "
        ^ Delta.Engine.reuse_to_string r));
  let cold =
    Cachier.Annotate.annotate_source ~machine ~options:opts
      o.Delta.Engine.edited_source
  in
  Alcotest.(check string) "byte-identical source"
    (Cachier.Annotate.to_source cold)
    (Cachier.Annotate.to_source o.Delta.Engine.result)

let check_outcome_matches_cold name (o : Delta.Engine.outcome)
    (cold : Cachier.Annotate.result) =
  Alcotest.(check string)
    (name ^ ": annotated source")
    (Cachier.Annotate.to_source cold)
    (Cachier.Annotate.to_source o.Delta.Engine.result);
  Alcotest.(check string)
    (name ^ ": summary")
    (Service.Oneshot.annotate_summary cold)
    (Service.Oneshot.annotate_summary o.Delta.Engine.result)

let test_warm_delta_byte_identical_all_benchmarks () =
  let dag = Delta.Dag.create () in
  List.iter
    (fun (name, src) ->
      match first_safe_edit src with
      | None -> Alcotest.fail (name ^ ": no safe single-token edit found")
      | Some (span, text, _edited, cold) ->
          (* warm the base, then serve the edit *)
          ignore (Delta.Engine.base_of ~dag ~machine ~options:opts src);
          let o =
            Delta.Engine.annotate_delta ~dag ~machine ~options:opts ~base:src
              span text
          in
          check_outcome_matches_cold name o cold)
    (bench_sources ())

let test_plan_reuse_on_simple_edit () =
  let dag = Delta.Dag.create () in
  let src = Benchmarks.Matmul.source ~n:8 ~nodes:4 () in
  (* matmul's seed constant-style scalar assignments live in main; an
     rhs literal tweak that feeds only values must take plan reuse.
     Find one by asking the prover. *)
  let candidates = Delta.Splice.int_literals src in
  let proven =
    List.find_opt
      (fun (span, v) ->
        let edited = Delta.Splice.apply_edit src span (string_of_int (v + 1)) in
        match
          try
            Delta.Taint.compare_and_prove ~base:(Parser.parse src)
              ~edited:(Parser.parse edited)
          with _ -> Delta.Taint.Broken "parse"
        with
        | Delta.Taint.Preserved _ -> true
        | Delta.Taint.Broken _ -> false)
      candidates
  in
  match proven with
  | None -> () (* nothing provable in this program: fine, covered elsewhere *)
  | Some (span, v) ->
      let o =
        Delta.Engine.annotate_delta ~dag ~machine ~options:opts ~base:src span
          (string_of_int (v + 1))
      in
      (match o.Delta.Engine.reuse with
      | Delta.Engine.Plan_reuse -> ()
      | r ->
          Alcotest.fail
            ("expected plan reuse, got " ^ Delta.Engine.reuse_to_string r));
      let cold =
        Cachier.Annotate.annotate_source ~machine ~options:opts
          o.Delta.Engine.edited_source
      in
      check_outcome_matches_cold "matmul" o cold

let test_chained_edits_stay_warm () =
  let dag = Delta.Dag.create () in
  let src = "proc main() { x = 3; barrier; y = 5; barrier; }" in
  let start = String.index src '3' in
  let o1 =
    Delta.Engine.annotate_delta ~dag ~machine ~options:opts ~base:src
      { Delta.Splice.start; len = 1 } "7"
  in
  Alcotest.(check bool) "first edit proven" true
    (o1.Delta.Engine.reuse = Delta.Engine.Plan_reuse);
  (* the second edit uses the first edit's output as its base *)
  let src2 = o1.Delta.Engine.edited_source in
  let start2 = String.index src2 '5' in
  let o2 =
    Delta.Engine.annotate_delta ~dag ~machine ~options:opts ~base:src2
      { Delta.Splice.start = start2; len = 1 } "9"
  in
  Alcotest.(check bool) "second edit proven" true
    (o2.Delta.Engine.reuse = Delta.Engine.Plan_reuse);
  (* and the chained base came from the dag, not a re-simulation *)
  let stats = Delta.Dag.stats dag in
  let base_hits = match List.assoc_opt "base" stats with Some (h, _) -> h | None -> 0 in
  Alcotest.(check bool) "base node reused" true (base_hits >= 1)

let test_dag_lru_bounds_entries () =
  let dag = Delta.Dag.create ~capacity:4 () in
  for i = 0 to 19 do
    Delta.Dag.add dag (Printf.sprintf "src|%d" i) (Delta.Dag.Source (string_of_int i))
  done;
  Alcotest.(check bool) "bounded" true (Delta.Dag.entries dag <= 4);
  (* most recently added survives *)
  Alcotest.(check bool) "mru survives" true
    (Delta.Dag.find dag "src|19" <> None)

let test_sema_incremental_caches_procs () =
  let dag = Delta.Dag.create () in
  let src = "proc f() { x = 1; } proc main() { f(); barrier; }" in
  ignore (Delta.Engine.base_of ~dag ~machine ~options:opts src);
  let start = String.index src '1' in
  let o =
    Delta.Engine.annotate_delta ~dag ~machine ~options:opts ~base:src
      { Delta.Splice.start; len = 1 } "2"
  in
  Alcotest.(check bool) "proven" true
    (o.Delta.Engine.reuse = Delta.Engine.Plan_reuse);
  (* main was untouched: its sema verdict must have been a cache hit *)
  let hits = match List.assoc_opt "sema" (Delta.Dag.stats dag) with
    | Some (h, _) -> h
    | None -> 0
  in
  Alcotest.(check bool) "sema hit for untouched proc" true (hits >= 1)

let suite =
  [
    Qc.qtest prop_splice_equals_parse;
    Qc.qtest prop_int_edits_incremental;
    Alcotest.test_case "edit at position 0 full-parses" `Quick
      test_edit_at_position_zero;
    Alcotest.test_case "edit spanning a proc boundary full-parses" `Quick
      test_edit_spanning_proc_boundary;
    Alcotest.test_case "insertion inside a proc is incremental" `Quick
      test_insertion_inside_proc_incremental;
    Alcotest.test_case "taint: rhs literal change preserved" `Quick
      test_taint_rhs_literal_preserved;
    Alcotest.test_case "taint: print diff flags output change" `Quick
      test_taint_print_flags_output;
    Alcotest.test_case "taint: divisor edit broken" `Quick
      test_taint_divisor_broken;
    Alcotest.test_case "taint: tainted subscript broken" `Quick
      test_taint_tainted_subscript_broken;
    Alcotest.test_case "taint: loop-bound edit broken" `Quick
      test_taint_loop_bound_broken;
    Alcotest.test_case "taint: taint flows through calls" `Quick
      test_taint_through_call_broken;
    Alcotest.test_case "taint: value-only call arg preserved" `Quick
      test_taint_value_only_call_preserved;
    Alcotest.test_case "engine: no-op edit is a pure hit" `Quick
      test_noop_edit_pure_hit;
    Alcotest.test_case "engine: shared-decl edit resimulates" `Quick
      test_shared_decl_edit_resimulates;
    Alcotest.test_case "engine: plan reuse on a provable edit" `Quick
      test_plan_reuse_on_simple_edit;
    Alcotest.test_case "engine: warm delta byte-identical on every benchmark"
      `Quick test_warm_delta_byte_identical_all_benchmarks;
    Alcotest.test_case "engine: chained edits stay warm" `Quick
      test_chained_edits_stay_warm;
    Alcotest.test_case "engine: untouched procs hit the sema cache" `Quick
      test_sema_incremental_caches_procs;
    Alcotest.test_case "dag: lru bounds entries" `Quick
      test_dag_lru_bounds_entries;
    Alcotest.test_case "dag: malformed CACHIER_DELTA_DAG refused" `Quick
      (fun () ->
        Qc.refuses_env "CACHIER_DELTA_DAG" [ "garbage"; "0"; "-3" ]
          ~valid:"128" ~msg:"CACHIER_DELTA_DAG must be a positive integer"
          Delta.Dag.create);
  ]
