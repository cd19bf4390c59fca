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
  try
    Ok
      (fst
         (Delta.Splice.splice ~items:(Delta.Splice.items base) ~base_ast
            ~edited:(Delta.Splice.apply_edit base span text) span text))
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
      let edited = Delta.Splice.apply_edit src span text in
      let prog, how =
        Delta.Splice.splice ~items:(Delta.Splice.items src) ~base_ast ~edited
          span text
      in
      let full = Parser.parse edited in
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
  let edited = Delta.Splice.apply_edit src span text in
  let prog, how =
    Delta.Splice.splice ~items:(Delta.Splice.items src) ~base_ast ~edited span
      text
  in
  Alcotest.(check bool) "full path" true (how = `Full);
  Alcotest.(check bool) "agrees with parse" true (prog = Parser.parse edited)

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
        try
          Delta.Splice.splice ~items ~base_ast
            ~edited:(Delta.Splice.apply_edit src span text) span text
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
  let edited = Delta.Splice.apply_edit src span text in
  let prog, how = Delta.Splice.splice ~items ~base_ast ~edited span text in
  (match how with
  | `Incremental _ -> ()
  | `Full -> Alcotest.fail "expected the incremental path");
  Alcotest.(check bool) "agrees with parse" true (prog = Parser.parse edited)

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

let base_of src =
  Delta.Engine.base_of ~machine ~options:opts ~source:src (Parser.parse src)

let delta ?base src span text =
  let base = match base with Some b -> b | None -> base_of src in
  Delta.Engine.annotate_delta ~machine ~options:opts ~base
    (Delta.Engine.edit ~source:src span text)

let result_of (o : Delta.Engine.outcome) =
  o.Delta.Engine.base.Delta.Engine.result

let test_noop_edit_pure_hit () =
  let src = Benchmarks.Matmul.source ~n:8 ~nodes:4 () in
  let base = base_of src in
  let span = { Delta.Splice.start = 0; len = 0 } in
  let o = delta ~base src span "" in
  Alcotest.(check bool) "noop" true (o.Delta.Engine.reuse = Delta.Engine.Noop);
  Alcotest.(check bool) "the base itself" true (o.Delta.Engine.base == base);
  Alcotest.(check string) "same artifact" (Delta.Engine.source_digest src)
    (Delta.Engine.edit ~source:src span "").Delta.Engine.artifact

let test_shared_decl_edit_resimulates () =
  let src = "shared A[8]; proc main() { A[pid] = pid; barrier; }" in
  let start = String.index src '8' in
  let span = { Delta.Splice.start; len = 1 } in
  let edited = Delta.Splice.apply_edit src span "16" in
  let o = delta src span "16" in
  (match o.Delta.Engine.reuse with
  | Delta.Engine.Resim _ -> ()
  | r ->
      Alcotest.fail
        ("a shared-declaration edit must resimulate, got "
        ^ Delta.Engine.reuse_to_string r));
  let cold = Cachier.Annotate.annotate_source ~machine ~options:opts edited in
  Alcotest.(check string) "byte-identical source"
    (Cachier.Annotate.to_source cold)
    (Cachier.Annotate.to_source (result_of o))

let check_outcome_matches_cold name (o : Delta.Engine.outcome)
    (cold : Cachier.Annotate.result) =
  Alcotest.(check string)
    (name ^ ": annotated source")
    (Cachier.Annotate.to_source cold)
    (Cachier.Annotate.to_source (result_of o));
  Alcotest.(check string)
    (name ^ ": summary")
    (Service.Oneshot.annotate_summary cold)
    (Service.Oneshot.annotate_summary (result_of o))

let test_warm_delta_byte_identical_all_benchmarks () =
  List.iter
    (fun (name, src) ->
      match first_safe_edit src with
      | None -> Alcotest.fail (name ^ ": no safe single-token edit found")
      | Some (span, text, _edited, cold) ->
          (* build the base, then serve the edit against it *)
          check_outcome_matches_cold name (delta src span text) cold)
    (bench_sources ())

let test_plan_reuse_on_simple_edit () =
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
      let text = string_of_int (v + 1) in
      let o = delta src span text in
      (match o.Delta.Engine.reuse with
      | Delta.Engine.Plan_reuse -> ()
      | r ->
          Alcotest.fail
            ("expected plan reuse, got " ^ Delta.Engine.reuse_to_string r));
      let cold =
        Cachier.Annotate.annotate_source ~machine ~options:opts
          (Delta.Splice.apply_edit src span text)
      in
      check_outcome_matches_cold "matmul" o cold

let test_chained_edits_stay_warm () =
  let src = "proc main() { x = 3; barrier; y = 5; barrier; }" in
  let start = String.index src '3' in
  let b0 = base_of src in
  let span = { Delta.Splice.start; len = 1 } in
  let o1 = delta ~base:b0 src span "7" in
  Alcotest.(check bool) "first edit proven" true
    (o1.Delta.Engine.reuse = Delta.Engine.Plan_reuse);
  (* the second edit uses the first edit's output and base *)
  let src2 = Delta.Splice.apply_edit src span "7" in
  let span2 = { Delta.Splice.start = String.index src2 '5'; len = 1 } in
  let o2 = delta ~base:o1.Delta.Engine.base src2 span2 "9" in
  Alcotest.(check bool) "second edit proven" true
    (o2.Delta.Engine.reuse = Delta.Engine.Plan_reuse);
  (* and neither edit re-simulated: every base in the chain shares the
     first one's plan and epoch info *)
  let b2 = o2.Delta.Engine.base in
  Alcotest.(check bool) "plan shared" true
    (b2.Delta.Engine.plan == b0.Delta.Engine.plan);
  Alcotest.(check bool) "epoch info shared" true
    (b2.Delta.Engine.result.Cachier.Annotate.einfo
    == b0.Delta.Engine.result.Cachier.Annotate.einfo);
  let cold =
    Cachier.Annotate.annotate_source ~machine ~options:opts
      (Delta.Splice.apply_edit src2 span2 "9")
  in
  check_outcome_matches_cold "chained" o2 cold

(* An incremental edit checks only the spliced procedure, against the
   base's sema info; the others keep the base's verdicts. A base whose
   sema info has lost the shared array that only [main] uses shows it:
   an edit of [f] passes, an edit of [main] is checked and fails. *)
let test_sema_incremental_caches_procs () =
  let src =
    "shared A[8]; proc f() { x = 1; } proc main() { f(); A[pid] = 2; barrier; }"
  in
  let base = base_of src in
  let base =
    { base with
      Delta.Engine.info = { base.Delta.Engine.info with Sema.shared = [] } }
  in
  let at c = { Delta.Splice.start = String.index src c; len = 1 } in
  let o = delta ~base src (at '1') "3" in
  Alcotest.(check bool) "proven" true
    (o.Delta.Engine.reuse = Delta.Engine.Plan_reuse);
  match delta ~base src (at '2') "4" with
  | _ -> Alcotest.fail "the edited main was not re-checked"
  | exception Sema.Error _ -> ()

(* An edit of a procedure's parameter list leaves a call site elsewhere
   that no longer matches: the edit raises what the cold path's
   [Sema.check] raises, message and all. *)
let test_header_edit_raises_cold_error () =
  let src = "proc f(a) { x = a; } proc main() { f(1); barrier; }" in
  let span = { Delta.Splice.start = String.index src 'a'; len = 1 } in
  let text = "a, b" in
  let cold =
    match Sema.check (Parser.parse (Delta.Splice.apply_edit src span text)) with
    | _ -> Alcotest.fail "the cold check accepted a mismatched call"
    | exception Sema.Error msg -> msg
  in
  match delta src span text with
  | _ -> Alcotest.fail "the edit accepted a mismatched call"
  | exception Sema.Error msg ->
      Alcotest.(check string) "the cold path's error" cold msg

(* The Figure 6 sources and examples/programs, each whose cold annotate
   runs at 4 nodes. *)
let chain_sources =
  lazy
    (let examples =
       match T_obs.example "jacobi.sm" with
       | None -> []
       | Some path ->
           let dir = Filename.dirname path in
           Sys.readdir dir |> Array.to_list |> List.sort compare
           |> List.filter (fun f -> Filename.check_suffix f ".sm")
           |> List.map (fun f -> (f, T_obs.read_file (Filename.concat dir f)))
     in
     List.filter
       (fun (_, src) ->
         match Cachier.Annotate.annotate_source ~machine ~options:opts src with
         | _ -> true
         | exception _ -> false)
       (bench_sources () @ examples))

(* One step's edit of [src]: a new value for an int literal inside a
   procedure that the taint prover accepts (kinds 0 to 2; any value
   keeps the trace, so the edited program terminates), a comment (kind 3,
   or when no literal is provable) or a statement (kind 4) inserted after
   a [;] or [{] inside a procedure, or a comment appended after the last
   item (kind 5, a full splice). *)
let chain_edit src (kind, pick, v) =
  let provable =
    List.filter
      (fun (span, v) ->
        match
          Delta.Taint.compare_and_prove ~base:(Parser.parse src)
            ~edited:
              (Parser.parse
                 (Delta.Splice.apply_edit src span (string_of_int (v + 1))))
        with
        | Delta.Taint.Preserved _ -> true
        | Delta.Taint.Broken _ | (exception _) -> false)
      (Delta.Splice.int_literals src)
  in
  let nth l = List.nth l (pick mod List.length l) in
  if kind <= 2 && provable <> [] then (fst (nth provable), string_of_int v)
  else if kind = 5 then
    ({ Delta.Splice.start = String.length src; len = 0 }, "\n/* z */\n")
  else
    let points =
      List.concat_map
        (fun (it : Delta.Splice.item) ->
          if it.ikind <> Delta.Splice.Proc then []
          else
            List.filter
              (fun i -> src.[i] = ';' || src.[i] = '{')
              (List.init (it.istop - it.istart - 1) (fun i -> it.istart + i)))
        (Delta.Splice.items src)
    in
    let text = if kind = 4 then " zz9 = 1;" else " /* z */" in
    ({ Delta.Splice.start = nth points + 1; len = 0 }, text)

(* Chains of 2 to 4 in-procedure edits, each served against the previous
   edit's base: every base carries the item table of its own source, and
   every outcome's source, report and summary are a cold annotate's. An
   edit the cold path refuses must be refused too, and ends the chain. *)
let prop_chained_edits_match_cold =
  let gen =
    QCheck.make
      ~print:(fun (k, steps) ->
        Printf.sprintf "%s: %s"
          (fst (List.nth (Lazy.force chain_sources) k))
          (String.concat "; "
             (List.map
                (fun (kind, pick, v) ->
                  Printf.sprintf "kind %d, pick %d, value %d" kind pick v)
                steps)))
      QCheck.Gen.(
        let* k = int_bound (List.length (Lazy.force chain_sources) - 1) in
        let* steps =
          list_size (int_range 2 4)
            (triple (int_bound 5) (int_bound 999) (int_range 0 9))
        in
        return (k, steps))
  in
  QCheck.Test.make ~count:50 ~name:"chained edits match a cold annotate" gen
    (fun (k, steps) ->
      let src = snd (List.nth (Lazy.force chain_sources) k) in
      let rec run base src = function
        | [] -> true
        | step :: rest -> (
            let span, text = chain_edit src step in
            let edited = Delta.Splice.apply_edit src span text in
            match
              Cachier.Annotate.annotate_source ~machine ~options:opts edited
            with
            | exception _ -> (
                match delta ~base src span text with
                | _ -> QCheck.Test.fail_report "the cold path refused the edit"
                | exception _ -> true)
            | cold ->
                let o = delta ~base src span text in
                let b = o.Delta.Engine.base in
                if b.Delta.Engine.items <> Delta.Splice.items edited then
                  QCheck.Test.fail_report "carried table differs";
                if
                  Cachier.Annotate.to_source cold
                  <> Cachier.Annotate.to_source b.Delta.Engine.result
                then QCheck.Test.fail_report "source differs";
                if
                  compare cold.Cachier.Annotate.report
                    b.Delta.Engine.result.Cachier.Annotate.report
                  <> 0
                then QCheck.Test.fail_report "report differs";
                if Cachier.Annotate.summary cold <> b.Delta.Engine.summary then
                  QCheck.Test.fail_report "summary differs";
                run b edited rest)
      in
      run (base_of src) src steps)

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
    Alcotest.test_case "engine: a header edit raises the cold path's error"
      `Quick test_header_edit_raises_cold_error;
    Qc.qtest prop_chained_edits_match_cold;
  ]
