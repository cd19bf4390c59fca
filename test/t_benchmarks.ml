(* Tests of the benchmark generators themselves. *)

let test_grid_factor () =
  Alcotest.(check (pair int int)) "8" (2, 4) (Benchmarks.Grid.factor 8);
  Alcotest.(check (pair int int)) "16" (4, 4) (Benchmarks.Grid.factor 16);
  Alcotest.(check (pair int int)) "32" (4, 8) (Benchmarks.Grid.factor 32);
  Alcotest.(check (pair int int)) "1" (1, 1) (Benchmarks.Grid.factor 1);
  Alcotest.(check (pair int int)) "7 (prime)" (1, 7) (Benchmarks.Grid.factor 7);
  (* invariants over a range *)
  for n = 1 to 64 do
    let pr, pc = Benchmarks.Grid.factor n in
    Alcotest.(check int) "product" n (pr * pc);
    Alcotest.(check bool) "pr <= pc" true (pr <= pc)
  done

let test_grid_check_divisible () =
  Benchmarks.Grid.check_divisible ~n:24 ~nodes:8 "t";
  Alcotest.check_raises "non-divisible"
    (Invalid_argument "t: N=25 must divide over the 2x4 processor grid")
    (fun () -> Benchmarks.Grid.check_divisible ~n:25 ~nodes:8 "t")

let test_suite_names_and_find () =
  Alcotest.(check (list string)) "figure 6 order"
    [ "matmul"; "barnes"; "tomcatv"; "ocean"; "mp3d" ]
    Benchmarks.Suite.names;
  (* [find] builds one benchmark on its own; it must agree with [all] *)
  List.iter
    (fun nodes ->
      let all = Benchmarks.Suite.all ~nodes () in
      Alcotest.(check (list string))
        (Printf.sprintf "all in figure 6 order at %d nodes" nodes)
        Benchmarks.Suite.names
        (List.map (fun (b : Benchmarks.Suite.t) -> b.name) all);
      List.iter
        (fun (b : Benchmarks.Suite.t) ->
          Alcotest.(check bool)
            (Printf.sprintf "find %s = all's %s at %d nodes" b.name b.name
               nodes)
            true
            (Benchmarks.Suite.find ~nodes b.name = b))
        all;
      Alcotest.check_raises "unknown" Not_found (fun () ->
          ignore (Benchmarks.Suite.find ~nodes "linpack")))
    [ 4; 8; 16; 32 ];
  List.iter
    (fun name ->
      Alcotest.check_raises (name ^ " at 0 nodes")
        (Invalid_argument "Suite: nodes must be positive") (fun () ->
          ignore (Benchmarks.Suite.find ~nodes:0 name)))
    Benchmarks.Suite.names

let test_suite_seeds_differ () =
  List.iter
    (fun (b : Benchmarks.Suite.t) ->
      Alcotest.(check bool)
        (b.Benchmarks.Suite.name ^ " trace and eval inputs differ")
        true
        (b.Benchmarks.Suite.trace_seed <> b.Benchmarks.Suite.eval_seed))
    (Benchmarks.Suite.all ~nodes:8 ())

let test_generators_validate () =
  Alcotest.check_raises "matmul bad N"
    (Invalid_argument "matmul: N=10 must divide over the 2x4 processor grid")
    (fun () -> ignore (Benchmarks.Matmul.source ~n:10 ~nodes:8 ()));
  Alcotest.check_raises "mp3d bad particles"
    (Invalid_argument "mp3d: particle count must be a multiple of the node count")
    (fun () -> ignore (Benchmarks.Mp3d.source ~particles:10 ~nodes:8 ()));
  Alcotest.check_raises "barnes bad bodies"
    (Invalid_argument "barnes: body count must be a multiple of the node count")
    (fun () -> ignore (Benchmarks.Barnes.source ~bodies:10 ~nodes:8 ()));
  Alcotest.check_raises "ocean bad N"
    (Invalid_argument "ocean: N must be a multiple of the node count")
    (fun () -> ignore (Benchmarks.Ocean.source ~n:10 ~nodes:8 ()))

let machine = { Wwt.Machine.default with Wwt.Machine.nodes = 4 }

let run src = Wwt.Run.source_measure ~machine ~annotations:false ~prefetch:false src

let test_jacobi_converges () =
  (* Jacobi relaxation must smooth the field: the range of interior values
     shrinks over the run. *)
  let o = run (Benchmarks.Jacobi.source ~n:16 ~t:6 ~nodes:4 ()) in
  let n = 16 in
  let minv = ref infinity and maxv = ref neg_infinity in
  for i = 1 to n - 2 do
    for j = 1 to n - 2 do
      let v = Lang.Value.to_float (Wwt.Interp.shared_value o "U" ((i * n) + j)) in
      minv := min !minv v;
      maxv := max !maxv v
    done
  done;
  Alcotest.(check bool) "field smoothed into (0,1)" true
    (!minv > 0.0 && !maxv < 1.0 && !maxv -. !minv < 0.9)

let test_barnes_tree_is_consistent () =
  (* total mass at the root equals the sum of body masses *)
  let bodies = 32 in
  let o = run (Benchmarks.Barnes.source ~bodies ~t:1 ~nodes:4 ()) in
  let total_bodies = ref 0.0 in
  for b = 0 to bodies - 1 do
    total_bodies :=
      !total_bodies +. Lang.Value.to_float (Wwt.Interp.shared_value o "BM" b)
  done;
  let root_mass = Lang.Value.to_float (Wwt.Interp.shared_value o "NM" 1) in
  Alcotest.(check (float 1e-6)) "root aggregates all mass" !total_bodies root_mass

let test_barnes_accelerations_nonzero () =
  let bodies = 32 in
  let o = run (Benchmarks.Barnes.source ~bodies ~t:1 ~nodes:4 ()) in
  let moved = ref 0 in
  for b = 0 to bodies - 1 do
    if Lang.Value.to_float (Wwt.Interp.shared_value o "AX" b) <> 0.0 then incr moved
  done;
  Alcotest.(check bool) "forces computed for most bodies" true
    (!moved > bodies / 2)

let test_mp3d_conserves_particles () =
  (* positions stay inside the active space *)
  let particles = 64 in
  let o = run (Benchmarks.Mp3d.source ~particles ~cells:16 ~t:3 ~nodes:4 ()) in
  for q = 0 to particles - 1 do
    let x = Lang.Value.to_float (Wwt.Interp.shared_value o "PX" q) in
    if not (x >= 0.0 && x < 16.0) then
      Alcotest.failf "particle %d escaped: %f" q x
  done

let test_tomcatv_mesh_stays_finite () =
  let o = run (Benchmarks.Tomcatv.source ~n:12 ~t:2 ~nodes:4 ()) in
  let n = 12 in
  for i = 0 to (n * 4) - 1 do
    let v = Lang.Value.to_float (Wwt.Interp.shared_value o "XB" i) in
    if Float.is_nan v || Float.abs v > 1e6 then
      Alcotest.failf "boundary value diverged: %f" v
  done

let test_ocean_residual_positive () =
  let o = run (Benchmarks.Ocean.source ~n:16 ~t:2 ~nodes:4 ()) in
  let total = Lang.Value.to_float (Wwt.Interp.shared_value o "R" 0) in
  Alcotest.(check bool) "reduced residual is positive" true (total > 0.0)

let test_water_physics () =
  (* molecules stay in the periodic box and the potential energy is a
     finite negative-capable number *)
  let molecules = 32 in
  let o = run (Benchmarks.Water.source ~molecules ~t:3 ~nodes:4 ()) in
  for q = 0 to molecules - 1 do
    let x = Lang.Value.to_float (Wwt.Interp.shared_value o "WX" q) in
    let y = Lang.Value.to_float (Wwt.Interp.shared_value o "WY" q) in
    if not (x >= 0.0 && x < 8.0 && y >= 0.0 && y < 8.0) then
      Alcotest.failf "molecule %d escaped the box: (%f, %f)" q x y
  done;
  let ep = Lang.Value.to_float (Wwt.Interp.shared_value o "EP" 0) in
  Alcotest.(check bool) "energy is finite" true (Float.is_finite ep)

let test_water_through_the_pipeline () =
  let src = Benchmarks.Water.source ~molecules:32 ~t:2 ~nodes:4 () in
  let prog = Lang.Parser.parse src in
  let base = Wwt.Run.measure ~machine ~annotations:false ~prefetch:false prog in
  let r =
    Cachier.Annotate.annotate_program ~machine
      ~options:Cachier.Placement.default_options prog
  in
  Alcotest.(check bool) "annotations inserted" true (r.Cachier.Annotate.n_edits > 0);
  let ann =
    Wwt.Run.measure ~machine ~annotations:true ~prefetch:false
      r.Cachier.Annotate.annotated
  in
  Alcotest.(check bool) "results identical (race-free)" true
    (base.Wwt.Interp.shared = ann.Wwt.Interp.shared);
  Alcotest.(check bool) "annotated not slower than 110%" true
    (float_of_int ann.Wwt.Interp.time <= 1.1 *. float_of_int base.Wwt.Interp.time);
  (* the unpadded EP array is the textbook false-sharing case *)
  Alcotest.(check bool) "EP false sharing reported" true
    (List.exists
       (fun i -> i.Cachier.Report.arr = "EP")
       (Cachier.Report.false_sharing r.Cachier.Annotate.report))

let test_water_hand_runs () =
  let o =
    Wwt.Run.source_measure ~machine ~annotations:true ~prefetch:false
      (Benchmarks.Water.hand_source ~molecules:32 ~t:2 ~nodes:4 ())
  in
  Alcotest.(check bool) "hand version issues directives" true
    (o.Wwt.Interp.stats.Memsys.Stats.check_ins > 0)

let test_matmul_race_is_benign_under_one_node () =
  (* with a single processor the racy algorithm is just a matmul *)
  let n = 8 in
  let m1 = { Wwt.Machine.default with Wwt.Machine.nodes = 1 } in
  let o =
    Wwt.Run.source_measure ~machine:m1 ~annotations:false ~prefetch:false
      (Benchmarks.Matmul.source ~n ~nodes:1 ())
  in
  let a = Array.init (n * n) (fun q -> Wwt.Interp.noise (q + 1000003)) in
  let b = Array.init (n * n) (fun q -> Wwt.Interp.noise (q + 500000 + 1000003)) in
  let expect i j =
    let s = ref 0.0 in
    for k = 0 to n - 1 do
      s := !s +. (a.((i * n) + k) *. b.((k * n) + j))
    done;
    !s
  in
  List.iter
    (fun (i, j) ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "C[%d,%d]" i j)
        (expect i j)
        (Lang.Value.to_float (Wwt.Interp.shared_value o "C" ((i * n) + j))))
    [ (0, 0); (7, 7); (3, 5) ]

let suite =
  [
    Alcotest.test_case "grid factorisation" `Quick test_grid_factor;
    Alcotest.test_case "grid divisibility" `Quick test_grid_check_divisible;
    Alcotest.test_case "suite names and find" `Quick test_suite_names_and_find;
    Alcotest.test_case "trace/eval seeds differ" `Quick test_suite_seeds_differ;
    Alcotest.test_case "generators validate" `Quick test_generators_validate;
    Alcotest.test_case "jacobi converges" `Quick test_jacobi_converges;
    Alcotest.test_case "barnes tree mass" `Quick test_barnes_tree_is_consistent;
    Alcotest.test_case "barnes forces" `Quick test_barnes_accelerations_nonzero;
    Alcotest.test_case "mp3d particles bounded" `Quick test_mp3d_conserves_particles;
    Alcotest.test_case "tomcatv stays finite" `Quick test_tomcatv_mesh_stays_finite;
    Alcotest.test_case "ocean residual" `Quick test_ocean_residual_positive;
    Alcotest.test_case "matmul correct on one node" `Quick
      test_matmul_race_is_benign_under_one_node;
    Alcotest.test_case "water physics" `Quick test_water_physics;
    Alcotest.test_case "water pipeline" `Slow test_water_through_the_pipeline;
    Alcotest.test_case "water hand annotation" `Quick test_water_hand_runs;
  ]
