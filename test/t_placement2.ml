(* Targeted tests of the placement strategies (Section 4.2's cascade and
   the refinements documented in DESIGN.md). *)

open Lang

let plan_with ?(machine = { Wwt.Machine.default with Wwt.Machine.nodes = 4 })
    ?(options = Cachier.Placement.default_options) src =
  let prog = Parser.parse src in
  let outcome = Wwt.Run.collect_trace ~machine prog in
  let einfo =
    Cachier.Epoch_info.build ~nodes:machine.Wwt.Machine.nodes
      ~block_size:machine.Wwt.Machine.block_size outcome.Wwt.Interp.trace
  in
  Cachier.Placement.plan ~program:prog ~layout:outcome.Wwt.Interp.layout
    ~machine ~einfo ~options

let edits_matching plan pred =
  List.filter
    (fun ({ Cachier.Placement.anchor; stmt } : Cachier.Placement.edit) ->
      pred anchor stmt.Ast.node)
    plan.Cachier.Placement.edits

let test_ci_never_inside_loops () =
  (* a single-writer clear loop: the check-in must sit at the epoch
     boundary, never inside the loop where it would flush hot data *)
  let src =
    "const NB = 64; shared A[NB]; shared B[8]; proc main() { if (pid == 0) \
     { for b = 0 to NB - 1 { A[b] = 0.0; } } barrier; B[pid] = 1.0; }"
  in
  let plan = plan_with src in
  let in_loop =
    edits_matching plan (fun anchor node ->
        match (anchor, node) with
        | (Cachier.Placement.Loop_begin _ | Cachier.Placement.Loop_end _),
          (Ast.Sannot (Ast.Check_in, _) | Ast.Sannot_table { akind = Ast.Check_in; _ })
          -> true
        | _ -> false)
  in
  Alcotest.(check int) "no loop-level check-ins" 0 (List.length in_loop);
  let boundary_ci =
    edits_matching plan (fun anchor node ->
        match (anchor, node) with
        | Cachier.Placement.Before _, Ast.Sannot (Ast.Check_in, _) -> true
        | _ -> false)
  in
  Alcotest.(check bool) "check-in at the closing barrier" true
    (boundary_ci <> [])

let test_budget_drops_oversized_checkouts () =
  (* a tiny cache cannot hold the whole read-then-written array: the co_x
     must be dropped (Performance mode) rather than placed to thrash *)
  let tiny =
    { Wwt.Machine.default with Wwt.Machine.nodes = 2; cache_bytes = 512 }
  in
  let src =
    "const N = 512; shared A[N]; proc main() { for i = 0 to N/2 - 1 { x = \
     A[pid * (N/2) + i]; A[pid * (N/2) + i] = x + 1.0; } }"
  in
  let plan = plan_with ~machine:tiny src in
  let co =
    edits_matching plan (fun _ node ->
        match node with
        | Ast.Sannot (Ast.Check_out_x, _)
        | Ast.Sannot_table { akind = Ast.Check_out_x; _ } ->
            true
        | _ -> false)
  in
  Alcotest.(check int) "oversized check-out dropped" 0 (List.length co)

let test_programmer_mode_keeps_oversized_per_access () =
  let tiny =
    { Wwt.Machine.default with Wwt.Machine.nodes = 2; cache_bytes = 512 }
  in
  let src =
    "const N = 512; shared A[N]; proc main() { for i = 0 to N/2 - 1 { x = \
     A[pid * (N/2) + i]; A[pid * (N/2) + i] = x + 1.0; } }"
  in
  let options =
    { Cachier.Placement.default_options with
      Cachier.Placement.mode = Cachier.Equations.Programmer }
  in
  let plan = plan_with ~machine:tiny ~options src in
  (* Programmer CICO exposes the communication even when the cache cannot
     hold it: the "cache too small" case of Section 2.1 *)
  let near =
    edits_matching plan (fun anchor node ->
        match (anchor, node) with
        | Cachier.Placement.Before _,
          Ast.Sannot ((Ast.Check_out_x | Ast.Check_out_s), _) -> true
        | _ -> false)
  in
  Alcotest.(check bool) "per-access check-outs survive" true (near <> [])

let test_affine_hoisting_to_epoch_start () =
  (* the whole slice fits: co_x hoists to one range at the epoch start *)
  let src =
    "const N = 64; shared A[N]; proc main() { for i = 0 to N/nprocs - 1 { x \
     = A[pid * (N/nprocs) + i]; A[pid * (N/nprocs) + i] = x + 1.0; } }"
  in
  let plan = plan_with src in
  let hoisted =
    edits_matching plan (fun anchor node ->
        match (anchor, node) with
        | Cachier.Placement.Proc_begin _, Ast.Sannot (Ast.Check_out_x, _) -> true
        | _ -> false)
  in
  Alcotest.(check bool) "range hoisted to program start" true (hoisted <> [])

let test_tables_are_block_aligned () =
  (* scattered single-element accesses coalesce into block-aligned table
     ranges *)
  let src =
    "const N = 64; shared A[N]; proc main() { if (pid == 0) { x = A[1]; \
     A[1] = x + 1.0; y = A[2]; A[2] = y + 1.0; } barrier; if (pid == 1) { \
     A[1] = 0.0; } }"
  in
  let plan = plan_with src in
  let tables =
    List.filter_map
      (fun ({ Cachier.Placement.stmt; _ } : Cachier.Placement.edit) ->
        match stmt.Ast.node with
        | Ast.Sannot_table { aranges; _ } -> Some aranges
        | _ -> None)
      plan.Cachier.Placement.edits
  in
  List.iter
    (fun aranges ->
      Array.iter
        (List.iter (fun (lo, hi) ->
             Alcotest.(check int) "lo block aligned" 0 (lo mod 4);
             Alcotest.(check int) "hi ends a block" 3 (hi mod 4)))
        aranges)
    tables

let test_empty_program_plans_nothing () =
  let plan = plan_with "proc main() { x = 1; }" in
  Alcotest.(check int) "no edits" 0 (List.length plan.Cachier.Placement.edits);
  Alcotest.(check int) "no notes" 0 (List.length plan.Cachier.Placement.notes)

let test_private_only_program_plans_nothing () =
  let plan =
    plan_with "private P[64]; proc main() { for i = 0 to 63 { P[i] = i; } }"
  in
  Alcotest.(check int) "private traffic needs no annotations" 0
    (List.length plan.Cachier.Placement.edits)

let test_race_notes_name_the_expression () =
  let plan =
    plan_with "shared A[4]; proc main() { A[0] = A[0] + 1.0; }"
  in
  match plan.Cachier.Placement.notes with
  | (_, msg) :: _ ->
      let contains needle =
        let n = String.length needle in
        let rec go i =
          i + n <= String.length msg && (String.sub msg i n = needle || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) "mentions Data Race" true (contains "Data Race");
      Alcotest.(check bool) "names A" true (contains "A[")
  | [] -> Alcotest.fail "expected a race note"

(* ---- rules that only a small program shows ---- *)

let programmer =
  { Cachier.Placement.default_options with
    Cachier.Placement.mode = Cachier.Equations.Programmer }

let machine ?(cache_bytes = Wwt.Machine.default.Wwt.Machine.cache_bytes)
    ?(assoc = Wwt.Machine.default.Wwt.Machine.assoc) nodes =
  { Wwt.Machine.default with Wwt.Machine.nodes; cache_bytes; assoc }

(* The sid of the first statement satisfying [pred]. *)
let sid_of src pred =
  let found = ref None in
  Ast.iter_stmts
    (fun s -> if !found = None && pred s.Ast.node then found := Some s.Ast.sid)
    (Parser.parse src);
  Option.get !found

let range_edits plan kind arr =
  List.filter_map
    (fun ({ Cachier.Placement.anchor; stmt } : Cachier.Placement.edit) ->
      match stmt.Ast.node with
      | Ast.Sannot (k, r) when k = kind && r.Ast.arr = arr -> Some (anchor, r)
      | _ -> None)
    plan.Cachier.Placement.edits

let eval_at ~consts ~pid ~nodes e =
  match
    Sema.const_eval
      ~consts:
        (consts @ [ ("pid", Value.Vint pid); ("nprocs", Value.Vint nodes) ])
      e
  with
  | Value.Vint v -> v
  | v -> Alcotest.failf "non-int bound %s" (Value.to_string v)

(* Whether a check-in edit on [arr] covers element [elem] on [node]. *)
let checks_in plan ~consts ~nodes ~node arr elem =
  List.exists
    (fun ({ Cachier.Placement.stmt; _ } : Cachier.Placement.edit) ->
      match stmt.Ast.node with
      | Ast.Sannot (Ast.Check_in, r) when r.Ast.arr = arr ->
          eval_at ~consts ~pid:node ~nodes r.Ast.lo <= elem
          && elem <= eval_at ~consts ~pid:node ~nodes r.Ast.hi
      | Ast.Sannot_table { akind = Ast.Check_in; aarr; aranges }
        when aarr = arr ->
          List.exists (fun (lo, hi) -> lo <= elem && elem <= hi) aranges.(node)
      | _ -> false)
    plan.Cachier.Placement.edits

let test_race_site_needs_dominance () =
  (* Only node 0's read of A[0] races at [x = A[pid]]: a quarter of the
     statement's misses. Below the 70% dominance bar it gets no
     per-access check-out; the boundary range covers it. *)
  let src =
    "shared A[64]; proc main() { A[0] = 0; x = A[pid]; barrier; }"
  in
  let read =
    sid_of src (function
      | Ast.Sassign (Ast.Lvar "x", _) -> true
      | _ -> false)
  in
  let plan =
    plan_with
      ~machine:(machine ~cache_bytes:4096 ~assoc:2 4)
      ~options:programmer src
  in
  let near =
    List.filter
      (fun (anchor, _) -> anchor = Cachier.Placement.Before read)
      (range_edits plan Ast.Check_out_s "A")
  in
  Alcotest.(check int) "no per-access check_out_s at the read" 0
    (List.length near)

let test_coefficient_zero_loop_var_stays () =
  (* [i] occurs only inside the product [i * pid]: its plain coefficient
     is 0, so bound_expr leaves it, the range is out of scope at the
     boundary, and a per-pid table covers the site. *)
  let src =
    "shared A[64]; proc main() { for i = 0 to 0 { x = A[i * pid]; } \
     barrier; }"
  in
  let plan = plan_with ~machine:(machine 2) ~options:programmer src in
  Alcotest.(check int) "no check_out_s range" 0
    (List.length (range_edits plan Ast.Check_out_s "A"));
  let tables =
    edits_matching plan (fun _ node ->
        match node with
        | Ast.Sannot_table { akind = Ast.Check_out_s; _ } -> true
        | _ -> false)
  in
  Alcotest.(check int) "one check_out_s table" 1 (List.length tables)

let test_symbolic_range_covers_its_targets () =
  (* [B[B[0]]] does not evaluate, so its range counts as covering every
     node's B targets at this site; the inner read's own subscript [0]
     then adds nothing and is not placed. *)
  let src =
    "shared A[64]; shared B[64]; proc main() { A[pid] = B[B[0]]; barrier; }"
  in
  let plan = plan_with ~machine:(machine 2) ~options:programmer src in
  Alcotest.(check int) "one check_out_s on B" 1
    (List.length (range_edits plan Ast.Check_out_s "B"))

let test_pid_span_sized_on_widest_node () =
  (* Node p reads A[0 .. 100 p]. On node 3 the span is 301 elements, more
     than a 4 KB cache's budget of 256, so no range hoists to the epoch
     boundary; the per-pid table, sized per node, fits. *)
  let src =
    "shared A[512]; proc main() { for i = 0 to pid * 100 { x = A[i]; } \
     barrier; }"
  in
  let plan =
    plan_with
      ~machine:(machine ~cache_bytes:4096 ~assoc:2 4)
      ~options:programmer src
  in
  Alcotest.(check int) "no check_out_s range" 0
    (List.length (range_edits plan Ast.Check_out_s "A"))

let test_unsized_loop_span_falls_back () =
  (* The outer loop's bound is a variable, so the range [A[0 .. k]] at
     its level has a span no node can size: a check-out may not take
     it, and the per-pid table covers the site. *)
  let src =
    "shared A[64]; proc main() { m = 7; for k = 0 to m { for j = 0 to k { \
     x = A[j]; } } barrier; }"
  in
  let plan = plan_with ~options:programmer src in
  Alcotest.(check int) "no check_out_s range" 0
    (List.length (range_edits plan Ast.Check_out_s "A"))

(* Each node fills its own block of A with a loop [order] gives, and the
   next epoch reads another node's element: the check-in of the filled
   block hoists to the closing barrier as one range. *)
let hoisted_check_in order =
  let src =
    Printf.sprintf
      "const N = 64; shared A[N]; proc main() { %s barrier; x = A[(pid + 1) \
       %% nprocs]; }"
      order
  in
  let plan = plan_with src in
  let consts = [ ("N", Value.Vint 64) ] in
  match range_edits plan Ast.Check_in "A" with
  | [ (Cachier.Placement.Before _, r) ] ->
      List.iter
        (fun pid ->
          Alcotest.(check (pair int int))
            (Printf.sprintf "node %d's block" pid)
            (16 * pid, (16 * pid) + 15)
            ( eval_at ~consts ~pid ~nodes:4 r.Ast.lo,
              eval_at ~consts ~pid ~nodes:4 r.Ast.hi ))
        [ 0; 1; 2; 3 ]
  | l -> Alcotest.failf "expected one check-in range, got %d" (List.length l)

let test_negative_step_hoists () =
  hoisted_check_in
    "for i = N / nprocs - 1 to 0 step -1 { A[pid * (N / nprocs) + i] = i; }"

let test_negative_coefficient_hoists () =
  hoisted_check_in
    "for i = 0 to N / nprocs - 1 { A[pid * (N / nprocs) + N / nprocs - 1 - \
     i] = i; }"

let test_race_check_in_keeps_racy_reads () =
  (* [A[pid % 2] = A[16]] races on both its write and its read of A[16],
     which node 0 writes in the same epoch. The per-access check-in
     follows the write and names only the written element; the readers'
     copies of A[16] are checked in at the closing barrier. *)
  let src =
    "const N = 64; shared A[N]; proc main() { if (pid == 0) { for k = 0 to \
     3 { A[16 + k * 4 % 16] = k; } } A[pid % 2] = A[16]; barrier; }"
  in
  let plan = plan_with src in
  let consts = [ ("N", Value.Vint 64) ] in
  let racy =
    sid_of src (function
      | Ast.Sassign (Ast.Lindex ("A", Ast.Ebinop (Ast.Mod, _, _)), _) -> true
      | _ -> false)
  in
  Alcotest.(check int) "one check-in after the racy statement" 1
    (List.length
       (List.filter
          (fun (anchor, _) -> anchor = Cachier.Placement.After racy)
          (range_edits plan Ast.Check_in "A")));
  List.iter
    (fun node ->
      Alcotest.(check bool)
        (Printf.sprintf "node %d checks A[16] in" node)
        true
        (checks_in plan ~consts ~nodes:4 ~node "A" 16))
    [ 1; 2; 3 ]

let test_guarded_division_annotates () =
  (* examples/programs/guarded.sm divides by pid under [if (pid > 0)].
     A check-in ignores pid guards, so its range also runs on node 0:
     a range that would divide by zero there falls back to the per-pid
     table, and the annotated program prints what the plain one does. *)
  let plain =
    Parser.parse (T_obs.read_file (Option.get (T_obs.example "guarded.sm")))
  in
  List.iter
    (fun nodes ->
      let machine = machine nodes in
      let printed ~annotations program =
        (Wwt.Run.measure ~machine ~annotations ~prefetch:false program)
          .Wwt.Interp.output
      in
      let want = printed ~annotations:false plain in
      List.iter
        (fun options ->
          let r = Cachier.Annotate.annotate_program ~machine ~options plain in
          Alcotest.(check (list string))
            (Printf.sprintf "%d nodes, %s" nodes
               (if options = programmer then "programmer" else "performance"))
            want
            (printed ~annotations:true r.Cachier.Annotate.annotated))
        [ Cachier.Placement.default_options; programmer ])
    [ 2; 4; 8 ]

let suite =
  [
    Alcotest.test_case "check-ins never inside loops" `Quick test_ci_never_inside_loops;
    Alcotest.test_case "budget drops oversized check-outs" `Quick
      test_budget_drops_oversized_checkouts;
    Alcotest.test_case "Programmer mode keeps per-access" `Quick
      test_programmer_mode_keeps_oversized_per_access;
    Alcotest.test_case "affine hoisting" `Quick test_affine_hoisting_to_epoch_start;
    Alcotest.test_case "tables block-aligned" `Quick test_tables_are_block_aligned;
    Alcotest.test_case "empty program" `Quick test_empty_program_plans_nothing;
    Alcotest.test_case "private-only program" `Quick
      test_private_only_program_plans_nothing;
    Alcotest.test_case "race notes" `Quick test_race_notes_name_the_expression;
    Alcotest.test_case "race site needs 70% dominance" `Quick
      test_race_site_needs_dominance;
    Alcotest.test_case "coefficient-0 loop variable stays" `Quick
      test_coefficient_zero_loop_var_stays;
    Alcotest.test_case "symbolic range covers its targets" `Quick
      test_symbolic_range_covers_its_targets;
    Alcotest.test_case "negative-step loop hoists" `Quick
      test_negative_step_hoists;
    Alcotest.test_case "negative coefficient hoists" `Quick
      test_negative_coefficient_hoists;
    Alcotest.test_case "race check-in keeps racy reads" `Quick
      test_race_check_in_keeps_racy_reads;
    Alcotest.test_case "pid-guarded division annotates" `Quick
      test_guarded_division_annotates;
    Alcotest.test_case "pid-dependent span sized on the widest node" `Quick
      test_pid_span_sized_on_widest_node;
    Alcotest.test_case "unsized loop-level span falls back" `Quick
      test_unsized_loop_span_falls_back;
  ]
