(* Benchmark harness: regenerates every evaluation artefact of the paper
   (see DESIGN.md's experiment index, E1-E8) plus ablations, and closes
   with Bechamel micro-benchmarks of the tool itself.

   Simulated execution times come from the Dir1SW discrete-event model;
   absolute numbers are not comparable with the paper's CM-5 runs, but the
   *shape* (who wins, by roughly what factor) is. Paper numbers are
   printed alongside for comparison.

   Every experiment writes into its own buffer and independent
   (benchmark × variant) simulations fan out across domains via
   {!Wwt.Jobs}, so the printed output is byte-identical whatever the job
   count. Per-experiment wall-clock times land in BENCH_1.json so later
   PRs can track the perf trajectory.

   Environment knobs:
     CACHIER_BENCH_NODES   simulated processors (default 8)
     CACHIER_BENCH_SCALE   problem-size multiplier (default 1.0); use >= 3
                           with 32 nodes so the decomposition stays sane
     CACHIER_BENCH_FAST    set to skip the Bechamel micro-benchmarks
     CACHIER_BENCH_JOBS    domains for the experiment fan-out (default:
                           Domain.recommended_domain_count)
     CACHIER_BENCH_ONLY    comma-separated experiment names; run just
                           those (bechamel still runs unless FAST)
     CACHIER_BENCH_JSON    where to write the machine-readable results
                           (default BENCH_1.json)

   A malformed NODES, SCALE, JOBS or ONLY value is refused at startup,
   before any experiment runs: one line on stderr names the variable and
   what it accepts, and the harness exits 2. *)

let refuse var accepted got =
  Printf.eprintf "bench: %s must be %s (got %S)\n%!" var accepted got;
  exit 2

let nodes =
  match Sys.getenv_opt "CACHIER_BENCH_NODES" with
  | None -> 8
  | Some s -> (
      match int_of_string_opt s with
      | Some n when n >= 1 && n <= Memsys.Directory.max_nodes -> n
      | _ ->
          refuse "CACHIER_BENCH_NODES"
            (Printf.sprintf "an integer in [1, %d]" Memsys.Directory.max_nodes)
            s)

let scale =
  match Sys.getenv_opt "CACHIER_BENCH_SCALE" with
  | None -> 1.0
  | Some s -> (
      match float_of_string_opt s with
      | Some f when Float.is_finite f && f > 0.0 -> f
      | _ -> refuse "CACHIER_BENCH_SCALE" "a positive finite number" s)

let jobs =
  try Wwt.Jobs.default_jobs ()
  with Invalid_argument _ ->
    refuse Wwt.Jobs.env_var "a positive integer"
      (Option.value ~default:"" (Sys.getenv_opt Wwt.Jobs.env_var))

let machine = { Wwt.Machine.default with Wwt.Machine.nodes }

let opts = Cachier.Placement.default_options
let opts_pf = { opts with Cachier.Placement.prefetch = true }

let pct a b = 100.0 *. float_of_int a /. float_of_int b

let parse = Lang.Parser.parse

let measure ?(annotations = false) ?(prefetch = false) prog =
  (Wwt.Run.measure ~machine ~annotations ~prefetch prog).Wwt.Interp.time

let annotate ?(prefetch = false) prog =
  let options = if prefetch then opts_pf else opts in
  (Cachier.Annotate.annotate_program ~machine ~options prog)
    .Cachier.Annotate.annotated

let pmap f items = Wwt.Jobs.map ~jobs f items

(* ------------------------------------------------------------------ *)
(* E1 + E6 — Figure 6: normalised execution times                      *)
(* ------------------------------------------------------------------ *)

let fig6_paper =
  (* approximate values read off Figure 6 (hand, cachier, cachier+pf),
     normalised to the unannotated version = 1.00 *)
  [
    ("matmul", (0.85, 0.84, 0.80));
    ("barnes", (0.91, 0.89, 0.89));
    ("tomcatv", (0.99, 0.99, 0.99));
    ("ocean", (0.87, 0.80, 0.75));
    ("mp3d", (1.00, 0.75, 0.73));
  ]

let figure6 buf =
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "%-9s %10s | %6s %7s %10s | paper: hand cachier +pf\n"
    "benchmark" "base(cyc)" "hand" "cachier" "cachier+pf";
  let rows =
    pmap
      (fun (b : Benchmarks.Suite.t) ->
        let prog = parse b.Benchmarks.Suite.source in
        let eval_seed = b.Benchmarks.Suite.eval_seed in
        (* Section 6: the trace input differs from the measurement input *)
        let reseed p = Benchmarks.Suite.reseed p eval_seed in
        let base = measure (reseed prog) in
        let hand =
          measure ~annotations:true
            (reseed (parse b.Benchmarks.Suite.hand_source))
        in
        let cachier = measure ~annotations:true (reseed (annotate prog)) in
        let cachier_pf =
          measure ~annotations:true ~prefetch:true
            (reseed (annotate ~prefetch:true prog))
        in
        let ph, pc, pp =
          match List.assoc_opt b.Benchmarks.Suite.name fig6_paper with
          | Some v -> v
          | None -> (nan, nan, nan)
        in
        Printf.sprintf
          "%-9s %10d | %5.1f%% %6.1f%% %9.1f%% | %11.2f %7.2f %4.2f\n"
          b.Benchmarks.Suite.name base (pct hand base) (pct cachier base)
          (pct cachier_pf base) ph pc pp)
      (Benchmarks.Suite.all ~scale ~nodes ())
  in
  List.iter (Buffer.add_string buf) rows;
  pr
    "shape checks: cachier <= hand on every benchmark; largest win on the\n\
     sharing-heavy mp3d/ocean; tomcatv flat; mp3d hand ~45 points behind\n\
     cachier (the paper's hand version checked blocks in too early).\n"

(* ------------------------------------------------------------------ *)
(* Protocol x annotation matrix: Figure 6 rotated over the backends    *)
(* ------------------------------------------------------------------ *)

(* Every suite benchmark runs plain and Cachier-annotated under each
   coherence backend (Dir1SW reference, SiSd self-invalidation, Commute
   privatized accumulations). Annotations are always derived from the
   reference Dir1SW trace — the same seam the fuzzer uses, because race
   visibility (and hence annotation safety) is a property of the
   reference protocol — while the rotated backend governs measurement.
   Rows land in BENCH JSON as "protocol_matrix" with per-protocol
   miss/traffic columns. *)

let proto_matrix_rows :
    (string * string * string * int * int * int * int) list ref =
  ref []

let proto_matrix buf =
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "%-9s %-8s %-8s | %10s %8s %9s %7s\n" "benchmark" "protocol" "variant"
    "cycles" "miss" "messages" "wb";
  let combos =
    List.concat_map
      (fun b -> List.map (fun p -> (b, p)) Memsys.Protocol_id.all)
      (Benchmarks.Suite.all ~scale ~nodes ())
  in
  let cells =
    pmap
      (fun ((b : Benchmarks.Suite.t), proto) ->
        let prog = parse b.Benchmarks.Suite.source in
        let reseed p =
          Benchmarks.Suite.reseed p b.Benchmarks.Suite.eval_seed
        in
        let pm = { machine with Wwt.Machine.protocol = proto } in
        let run ?(annotations = false) p =
          Wwt.Run.measure ~machine:pm ~annotations ~prefetch:false p
        in
        (* [annotate] runs on [machine], i.e. the Dir1SW reference. *)
        let plain = run (reseed prog) in
        let cico = run ~annotations:true (reseed (annotate prog)) in
        let row variant (o : Wwt.Interp.outcome) =
          let s = o.Wwt.Interp.stats in
          ( b.Benchmarks.Suite.name,
            Memsys.Protocol_id.to_string proto,
            variant,
            o.Wwt.Interp.time,
            s.Memsys.Stats.read_misses + s.Memsys.Stats.write_misses,
            s.Memsys.Stats.messages,
            s.Memsys.Stats.writebacks )
        in
        [ row "plain" plain; row "cachier" cico ])
      combos
  in
  let rows = List.concat cells in
  List.iter
    (fun (bench, proto, variant, cycles, miss, msgs, wb) ->
      pr "%-9s %-8s %-8s | %10d %8d %9d %7d\n" bench proto variant cycles
        miss msgs wb)
    rows;
  proto_matrix_rows := rows;
  pr
    "shape checks: dir1sw gains from annotation on every benchmark; sisd\n\
     has no write faults, traps or invalidations, so write-shared\n\
     benchmarks (matmul, mp3d) run far cheaper plain and explicit CICO\n\
     can cost more than it saves — the literature's claim that\n\
     self-invalidation obviates CICO; commute privatizes recognized\n\
     accumulations (matmul C, mp3d scatter) while check-outs force\n\
     early merges; tomcatv is computation-bound and barely moves.\n"

(* ------------------------------------------------------------------ *)
(* Incremental re-annotation: warm annotate_delta vs from-scratch      *)
(* ------------------------------------------------------------------ *)

(* The delta engine's headline number: a warm single-token edit served
   from the source's held base, against a from-scratch parse + sema +
   annotate of the same edited source. Outputs must be byte-identical
   (the whole point of the engine) or the run fails. Only deterministic
   facts go to stdout; the wall-clock table goes to stderr and the aggregate to the JSON [delta_speedup]
   field, which CI gates with --min-delta-speedup. *)
let delta_speedup = ref nan

(* Edit candidates whose replacement the taint prover accepts — the
   proof depends on the span position, not the value, so proving v+1
   proves every integer replacement at that span. *)
let delta_edit_spans source =
  let base_ast = parse source in
  List.filter
    (fun ((span : Delta.Splice.span), v) ->
      match
        Delta.Taint.compare_and_prove ~base:base_ast
          ~edited:
            (parse (Delta.Splice.apply_edit source span (string_of_int (v + 1))))
      with
      | Delta.Taint.Preserved _ -> true
      | Delta.Taint.Broken _ -> false
      | exception _ -> false)
    (Delta.Splice.int_literals source)

let delta_incremental buf =
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr
    "warm single-token edits served from a held base, against a\n\
     from-scratch parse + sema + annotate of the same edited source\n";
  pr "%-9s %7s  reuse        output vs from-scratch\n" "benchmark" "edits";
  Printf.eprintf "delta-incremental wall clock (mean of 5 distinct edits):\n";
  Printf.eprintf "  %-9s %11s %11s %8s\n" "benchmark" "cold(ms)" "delta(ms)"
    "speedup";
  let tot_cold = ref 0.0 and tot_delta = ref 0.0 in
  List.iter
    (fun (b : Benchmarks.Suite.t) ->
      let source = b.Benchmarks.Suite.source in
      (* build the base once, as a long-lived service would *)
      let base =
        Delta.Engine.base_of ~machine ~options:opts ~source (parse source)
      in
      match delta_edit_spans source with
      | [] ->
          pr "%-9s %7s  (no provably trace-preserving edit; skipped)\n"
            b.Benchmarks.Suite.name "-"
      | (span, v) :: _ ->
          let reps = 5 in
          let cold = ref 0.0 and warm = ref 0.0 in
          let all_reused = ref true in
          for k = 1 to reps do
            (* a fresh value per rep: never the digest-hit Noop path *)
            let text = string_of_int (v + k) in
            let edited = Delta.Splice.apply_edit source span text in
            let t0 = Unix.gettimeofday () in
            let o =
              Delta.Engine.annotate_delta ~machine ~options:opts ~base ~source
                span text
            in
            warm := !warm +. (Unix.gettimeofday () -. t0);
            let t1 = Unix.gettimeofday () in
            let prog = parse edited in
            ignore (Lang.Sema.check prog);
            let scratch =
              Cachier.Annotate.annotate_program ~machine ~options:opts prog
            in
            cold := !cold +. (Unix.gettimeofday () -. t1);
            (match o.Delta.Engine.reuse with
            | Delta.Engine.Plan_reuse -> ()
            | Delta.Engine.Noop | Delta.Engine.Resim _ -> all_reused := false);
            if
              not
                (String.equal
                   (Cachier.Annotate.to_source
                      o.Delta.Engine.base.Delta.Engine.result)
                   (Cachier.Annotate.to_source scratch))
            then
              failwith
                (Printf.sprintf "delta: %s: output differs from from-scratch"
                   b.Benchmarks.Suite.name)
          done;
          tot_cold := !tot_cold +. !cold;
          tot_delta := !tot_delta +. !warm;
          pr "%-9s %7d  %-11s  byte-identical\n" b.Benchmarks.Suite.name reps
            (if !all_reused then "plan-reuse" else "mixed");
          Printf.eprintf "  %-9s %11.2f %11.2f %7.1fx\n"
            b.Benchmarks.Suite.name
            (!cold *. 1e3 /. float_of_int reps)
            (!warm *. 1e3 /. float_of_int reps)
            (!cold /. !warm))
    (Benchmarks.Suite.all ~scale ~nodes ());
  delta_speedup := !tot_cold /. !tot_delta;
  Printf.eprintf "  aggregate: %.1fx\n%!" !delta_speedup;
  pr "aggregate warm-edit speedup: see stderr and the JSON delta_speedup\n"

(* ------------------------------------------------------------------ *)
(* E7 — sharing profile (Section 6 prose)                              *)
(* ------------------------------------------------------------------ *)

let sharing_profile buf =
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let paper =
    [ ("matmul", (nan, nan)); ("barnes", (0.255, 0.013));
      ("tomcatv", (nan, nan)); ("ocean", (0.88, 0.68)); ("mp3d", (0.71, 0.80)) ]
  in
  pr "%-9s %13s %14s | paper (loads, stores)\n" "benchmark"
    "shared loads" "shared stores";
  let rows =
    pmap
      (fun (b : Benchmarks.Suite.t) ->
        let o =
          Wwt.Run.measure ~machine ~annotations:false ~prefetch:false
            (parse b.Benchmarks.Suite.source)
        in
        let s = o.Wwt.Interp.stats in
        let pl, ps =
          match List.assoc_opt b.Benchmarks.Suite.name paper with
          | Some v -> v
          | None -> (nan, nan)
        in
        Printf.sprintf "%-9s %12.1f%% %13.1f%% | %17.1f%% %5.1f%%\n"
          b.Benchmarks.Suite.name
          (100.0 *. Memsys.Stats.shared_read_fraction s)
          (100.0 *. Memsys.Stats.shared_write_fraction s)
          (100.0 *. pl) (100.0 *. ps))
      (Benchmarks.Suite.all ~scale ~nodes ())
  in
  List.iter (Buffer.add_string buf) rows;
  pr
    "(our mini-language keeps scalars in registers, so fractions are over\n\
     array traffic only; the ordering — ocean/mp3d high, tomcatv low —\n\
     is what drives Figure 6's shape)\n"

(* ------------------------------------------------------------------ *)
(* E2 — Section 2.1: the Jacobi cost model                             *)
(* ------------------------------------------------------------------ *)

let jacobi_cost buf =
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let sq = int_of_float (sqrt (float_of_int nodes)) in
  let p = if sq * sq = nodes then sq else 2 in
  let n = 32 and t = 4 in
  let jp = { Cico.Cost_model.n; p; b = 4; t } in
  pr "N=%d, P^2=%d processors, b=%d elems/block, T=%d steps\n" n
    (p * p) jp.Cico.Cost_model.b t;
  pr
    "  analytic, block fits in cache : %8.0f blocks (2NPT(1+b)/b + N^2/b)\n"
    (Cico.Cost_model.jacobi_blocks_cache_fits jp);
  pr
    "  analytic, only columns fit    : %8.0f blocks ((2NP(1+b)/b + N^2/b)T)\n"
    (Cico.Cost_model.jacobi_blocks_column_fits jp);
  pr "  per processor per column      : %.1f vs %.1f (factor T = %d)\n"
    (Cico.Cost_model.jacobi_per_processor_column_checkouts jp ~cache_fits:true)
    (Cico.Cost_model.jacobi_per_processor_column_checkouts jp ~cache_fits:false)
    t;
  let grid_nodes = p * p in
  let m = { machine with Wwt.Machine.nodes = grid_nodes } in
  let hand = parse (Benchmarks.Jacobi.hand_source ~n ~t ~nodes:grid_nodes ()) in
  let o = Wwt.Run.measure ~machine:m ~annotations:true ~prefetch:false hand in
  pr "  measured (Section 2.1-style hand annotation, %d nodes):\n"
    grid_nodes;
  pr "    explicit check-outs: %d   explicit check-ins: %d\n"
    (Cico.Cost_model.measured_checkouts o.Wwt.Interp.stats)
    o.Wwt.Interp.stats.Memsys.Stats.check_ins;
  pr
    "  (the measured directives cover the boundary exchange, the term\n\
    \   2NPT(1+b)/b = %.0f of the analytic count; the bulk N^2/b term is\n\
    \   the one-time initial fetch that Dir1SW performs implicitly)\n"
    (Cico.Cost_model.jacobi_boundary_blocks_per_step jp *. float_of_int t)

(* ------------------------------------------------------------------ *)
(* E3 — Section 4.4: annotated MatMul listings                         *)
(* ------------------------------------------------------------------ *)

let matmul_listings buf =
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let grid = if nodes >= 4 then 4 else nodes in
  let m = { machine with Wwt.Machine.nodes = grid } in
  let prog = parse (Benchmarks.Matmul.source ~n:8 ~nodes:grid ()) in
  let show mode title =
    let r =
      Cachier.Annotate.annotate_program ~machine:m
        ~options:{ opts with Cachier.Placement.mode }
        prog
    in
    pr "--- %s CICO (%d annotations) ---\n%s\n" title
      r.Cachier.Annotate.n_edits
      (Cachier.Annotate.to_source r)
  in
  show Cachier.Equations.Programmer "Programmer";
  show Cachier.Equations.Performance "Performance";
  pr
    "(as in the paper: Programmer CICO adds check_out_s for the read-shared\n\
     matrices; Performance CICO keeps only check_out_x/check_in around the\n\
     racy C update — Dir1SW's implicit check-outs make explicit co_s pure\n\
     overhead — and the data race on C is flagged)\n"

(* ------------------------------------------------------------------ *)
(* E4 — Section 5: restructuring                                       *)
(* ------------------------------------------------------------------ *)

(* The smallest N >= 16 that the cost model (N a multiple of P, so the
   processor grid divides it too) and the restructured kernel (N / PC a
   multiple of 4) accept: 16 at 2, 4, 8 and 16 nodes, 32 at 32. *)
let restructuring_n =
  let pc = snd (Benchmarks.Grid.factor nodes) in
  let rec from n =
    if n mod nodes = 0 && n / pc mod 4 = 0 then n else from (n + 1)
  in
  from 16

let restructuring buf =
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let n = restructuring_n in
  let mp = { Cico.Cost_model.mm_n = n; mm_p = nodes } in
  pr "cost model, N=%d, P=%d:\n" n nodes;
  pr "  original C check-outs     N^3     = %8.0f\n"
    (Cico.Cost_model.matmul_c_checkouts_original mp);
  pr "  restructured C check-outs N^2 P/2 = %8.0f\n"
    (Cico.Cost_model.matmul_c_checkouts_restructured mp);
  pr "  of which lock-protected   N^2 P/4 = %8.0f\n"
    (Cico.Cost_model.matmul_c_raced_checkouts_restructured mp);
  let original = parse (Benchmarks.Matmul.source ~n ~nodes ()) in
  let restructured = parse (Benchmarks.Matmul.restructured_source ~n ~nodes ()) in
  let results =
    pmap
      (fun job -> job ())
      [
        (fun () ->
          Wwt.Run.measure ~machine ~annotations:false ~prefetch:false original);
        (fun () ->
          Wwt.Run.measure ~machine ~annotations:true ~prefetch:false
            (annotate original));
        (fun () ->
          Wwt.Run.measure ~machine ~annotations:true ~prefetch:false
            restructured);
      ]
  in
  match results with
  | [ base; ann; restr ] ->
      pr "measured:\n";
      pr "  original unannotated : %8d cycles, %5d software traps\n"
        base.Wwt.Interp.time base.Wwt.Interp.stats.Memsys.Stats.sw_traps;
      pr "  original + Cachier   : %8d cycles, %5d software traps\n"
        ann.Wwt.Interp.time ann.Wwt.Interp.stats.Memsys.Stats.sw_traps;
      pr "  restructured + locks : %8d cycles, %5d software traps\n"
        restr.Wwt.Interp.time restr.Wwt.Interp.stats.Memsys.Stats.sw_traps
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* E5 — Section 4.5: cross-input sensitivity                           *)
(* ------------------------------------------------------------------ *)

let sensitivity buf =
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr
    "annotations derived from seed-1 traces, measured on seed 1 vs seed 2\n";
  pr "%-9s %14s %14s %8s   (paper: < 2%% even for barnes)\n"
    "benchmark" "speedup@seed1" "speedup@seed2" "delta";
  let rows =
    pmap
      (fun (b : Benchmarks.Suite.t) ->
        let prog = parse b.Benchmarks.Suite.source in
        let annotated = annotate prog in
        let speedup seed =
          let reseed p = Benchmarks.Suite.reseed p seed in
          let base = measure (reseed prog) in
          let ann = measure ~annotations:true (reseed annotated) in
          float_of_int base /. float_of_int ann
        in
        let s1 = speedup b.Benchmarks.Suite.trace_seed in
        let s2 = speedup b.Benchmarks.Suite.eval_seed in
        Printf.sprintf "%-9s %13.3fx %13.3fx %7.1f%%\n"
          b.Benchmarks.Suite.name s1 s2
          (100.0 *. Float.abs (s1 -. s2) /. s1))
      (List.filter
         (fun (b : Benchmarks.Suite.t) ->
           (* only the data-dependent benchmarks react to the seed at all *)
           List.mem b.Benchmarks.Suite.name [ "barnes"; "mp3d" ])
         (Benchmarks.Suite.all ~scale ~nodes ()))
  in
  List.iter (Buffer.add_string buf) rows

(* ------------------------------------------------------------------ *)
(* E8 — Figure 4: the worked equation example                          *)
(* ------------------------------------------------------------------ *)

let fig4 buf =
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  (* the reconstruction used in the unit tests: a, b, c, d in distinct
     blocks; a raced in epoch 0 *)
  let a = 0 and b = 32 and c = 64 and d = 96 in
  let miss node pc addr kind = Trace.Event.Miss { node; pc; addr; kind; held = [] } in
  let barrier_pair pc vt =
    [ Trace.Event.Barrier { bnode = 0; bpc = pc; vt };
      Trace.Event.Barrier { bnode = 1; bpc = pc; vt } ]
  in
  let records =
    [ miss 0 1 a Trace.Event.Write_miss; miss 0 2 b Trace.Event.Write_miss;
      miss 0 3 d Trace.Event.Read_miss; miss 1 4 a Trace.Event.Write_miss ]
    @ barrier_pair 10 100
    @ [ miss 0 11 c Trace.Event.Read_miss; miss 0 12 a Trace.Event.Read_miss;
        miss 0 13 b Trace.Event.Write_miss; miss 0 14 d Trace.Event.Read_miss ]
    @ barrier_pair 20 200
    @ [ miss 0 21 a Trace.Event.Read_miss; miss 0 22 b Trace.Event.Write_miss;
        miss 1 23 c Trace.Event.Write_miss ]
  in
  let info = Cachier.Epoch_info.build ~nodes:2 ~block_size:32 records in
  let name addr = List.assoc addr [ (a, "a"); (b, "b"); (c, "c"); (d, "d") ] in
  let show set =
    match Trace.Epoch.Iset.elements set with
    | [] -> "-"
    | l -> String.concat "," (List.map name l)
  in
  let line mode label epoch =
    let ann = Cachier.Equations.for_epoch mode info ~epoch ~node:0 in
    pr "  %-22s co_x={%s}  co_s={%s}  ci={%s}\n" label
      (show ann.Cachier.Equations.co_x)
      (show ann.Cachier.Equations.co_s)
      (show ann.Cachier.Equations.ci)
  in
  line Cachier.Equations.Programmer "Programmer, epoch i-1" 0;
  line Cachier.Equations.Performance "Performance, epoch i-1" 0;
  line Cachier.Equations.Programmer "Programmer, epoch i" 1;
  line Cachier.Equations.Performance "Performance, epoch i" 1;
  pr
    "  (paper: epoch i-1 Programmer co_x(a) co_x(b) co_s(d) ci(a);\n\
    \   Performance just ci(a) — the check-in for a is needed because of\n\
    \   the data race; epoch i Programmer co_s(a) co_s(c) ci(c) ci(d);\n\
    \   Performance just ci(c))\n"

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let ablation_barnes_capacity buf =
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr
    "cachier speedup by problem size (16 KB caches; the tree outgrows the\n\
     cache and capacity misses drown the coherence traffic annotations fix)\n";
  pr "%8s %12s %10s %10s\n" "bodies" "base(cyc)" "cachier" "evictions";
  let rows =
    pmap
      (fun bodies ->
        let src = Benchmarks.Barnes.source ~bodies ~nodes () in
        let prog = parse src in
        let base =
          Wwt.Run.measure ~machine ~annotations:false ~prefetch:false prog
        in
        let ann =
          Wwt.Run.measure ~machine ~annotations:true ~prefetch:false
            (annotate prog)
        in
        Printf.sprintf "%8d %12d %9.1f%% %10d\n" bodies base.Wwt.Interp.time
          (pct ann.Wwt.Interp.time base.Wwt.Interp.time)
          base.Wwt.Interp.stats.Memsys.Stats.evictions)
      [ 32; 64; 96; 128 ]
  in
  List.iter (Buffer.add_string buf) rows

let ablation_trap_cost buf =
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr
    "mp3d cachier speedup as the >1-sharer trap cost varies (CICO's value\n\
     tracks how expensive the software fallback is)\n";
  pr "%10s %10s\n" "trap(cyc)" "cachier";
  let rows =
    pmap
      (fun trap ->
        let costs =
          { Memsys.Network.default with Memsys.Network.sw_trap = trap }
        in
        let m = { machine with Wwt.Machine.costs = costs } in
        let prog = parse (Benchmarks.Mp3d.source ~particles:512 ~nodes ()) in
        let base =
          Wwt.Run.measure ~machine:m ~annotations:false ~prefetch:false prog
        in
        let r = Cachier.Annotate.annotate_program ~machine:m ~options:opts prog in
        let ann =
          Wwt.Run.measure ~machine:m ~annotations:true ~prefetch:false
            r.Cachier.Annotate.annotated
        in
        Printf.sprintf "%10d %9.1f%%\n" trap
          (pct ann.Wwt.Interp.time base.Wwt.Interp.time))
      [ 125; 250; 500; 1000 ]
  in
  List.iter (Buffer.add_string buf) rows

let ablation_modes buf =
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr
    "executing Programmer-CICO annotations as directives pays the explicit\n\
     check-out overhead that Dir1SW's implicit check-outs make redundant\n";
  pr "%-9s %12s %12s\n" "benchmark" "Performance" "Programmer";
  let rows =
    pmap
      (fun (name, src) ->
        let prog = parse src in
        let base = measure prog in
        let run mode =
          let r =
            Cachier.Annotate.annotate_program ~machine
              ~options:{ opts with Cachier.Placement.mode }
              prog
          in
          measure ~annotations:true r.Cachier.Annotate.annotated
        in
        Printf.sprintf "%-9s %11.1f%% %11.1f%%\n" name
          (pct (run Cachier.Equations.Performance) base)
          (pct (run Cachier.Equations.Programmer) base))
      [
        ("ocean", Benchmarks.Ocean.source ~n:32 ~t:3 ~nodes ());
        ("mp3d", Benchmarks.Mp3d.source ~particles:512 ~nodes ());
      ]
  in
  List.iter (Buffer.add_string buf) rows

let water_extension buf =
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr
    "SPLASH-style kernels the tool was never tuned for\n";
  pr "%-9s %10s | %6s %8s\n" "kernel" "base(cyc)" "hand" "cachier";
  let rows =
    pmap
      (fun (name, src, hand_src) ->
        let prog = parse src in
        let base = measure prog in
        let hand = measure ~annotations:true (parse hand_src) in
        let cachier = measure ~annotations:true (annotate prog) in
        Printf.sprintf "%-9s %10d | %5.1f%% %7.1f%%\n" name base
          (pct hand base) (pct cachier base))
      [
        ( "water",
          Benchmarks.Water.source ~molecules:64 ~t:3 ~nodes (),
          Benchmarks.Water.hand_source ~molecules:64 ~t:3 ~nodes () );
        ( "lu",
          Benchmarks.Lu.source ~n:24 ~nodes (),
          Benchmarks.Lu.hand_source ~n:24 ~nodes () );
        ( "fft",
          Benchmarks.Fft.source ~n:64 ~nodes (),
          Benchmarks.Fft.hand_source ~n:64 ~nodes () );
      ]
  in
  List.iter (Buffer.add_string buf) rows

let ablation_directory buf =
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr
    "mp3d speedup from Cachier's annotations under Dir1SW (any foreign\n\
     sharer traps to software) vs a full-map hardware directory (Dir_n NB,\n\
     invalidations in hardware): CICO's trap-avoidance value is protocol-\n\
     dependent, which is why the annotations are only *hints*\n";
  pr "%24s %10s %10s\n" "directory" "base(cyc)" "cachier";
  let rows =
    pmap
      (fun (label, hw) ->
        let costs =
          { Memsys.Network.default with Memsys.Network.dir_hw_sharers = hw }
        in
        let m = { machine with Wwt.Machine.costs = costs } in
        let prog = parse (Benchmarks.Mp3d.source ~particles:512 ~nodes ()) in
        let base =
          Wwt.Run.measure ~machine:m ~annotations:false ~prefetch:false prog
        in
        let r = Cachier.Annotate.annotate_program ~machine:m ~options:opts prog in
        let ann =
          Wwt.Run.measure ~machine:m ~annotations:true ~prefetch:false
            r.Cachier.Annotate.annotated
        in
        Printf.sprintf "%24s %10d %9.1f%%\n" label base.Wwt.Interp.time
          (pct ann.Wwt.Interp.time base.Wwt.Interp.time))
      [ ("Dir1SW (hw sharers 0)", 0); ("Dir4 (hw sharers 4)", 4);
        ("full-map (hw sharers 62)", 62) ]
  in
  List.iter (Buffer.add_string buf) rows

let ablation_post_store buf =
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr
    "ocean boundary-row handoff: the producer can merely release its rows\n\
     (check_in) or push read-only copies to last sweep's readers\n\
     (post_store, the KSR-1 directive of the paper's introduction)\n";
  let n = 32 and t = 4 in
  let results =
    pmap
      (fun job -> job ())
      [
        (fun () -> measure (parse (Benchmarks.Ocean.source ~n ~t ~nodes ())));
        (fun () ->
          measure ~annotations:true
            (annotate (parse (Benchmarks.Ocean.source ~n ~t ~nodes ()))));
        (fun () ->
          measure ~annotations:true
            (parse (Benchmarks.Ocean.post_store_source ~n ~t ~nodes ())));
      ]
  in
  match results with
  | [ base; cachier; post_store ] ->
      pr "%24s %10s\n" "variant" "time";
      pr "%24s %9.1f%%\n" "unannotated" 100.0;
      pr "%24s %9.1f%%\n" "cachier (check_in)" (pct cachier base);
      pr "%24s %9.1f%%\n" "hand post_store" (pct post_store base)
  | _ -> assert false

let ablation_training_set buf =
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr
    "mp3d annotated from one seed vs the union of three seeds, measured on\n\
     an input none of the traces saw\n";
  let prog = parse (Benchmarks.Mp3d.source ~particles:512 ~nodes ()) in
  let fresh p = Benchmarks.Suite.reseed p 9 in
  let base = measure (fresh prog) in
  let single =
    Cachier.Annotate.annotate_training ~machine ~options:opts
      ~seed_const:"SEED" ~seeds:[ 1 ] prog
  in
  let multi =
    Cachier.Annotate.annotate_training ~machine ~options:opts
      ~seed_const:"SEED" ~seeds:[ 1; 2; 3 ] prog
  in
  let t1 = measure ~annotations:true (fresh single.Cachier.Annotate.annotated) in
  let t3 = measure ~annotations:true (fresh multi.Cachier.Annotate.annotated) in
  pr "  single trace:  %.1f%%  (%d annotations)\n" (pct t1 base)
    single.Cachier.Annotate.n_edits;
  pr "  training set:  %.1f%%  (%d annotations)\n" (pct t3 base)
    multi.Cachier.Annotate.n_edits;
  pr
    "  (the paper found a single execution sufficient — the training set\n\
    \   confirms it: the difference stays small)\n"

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the tool itself                        *)
(* ------------------------------------------------------------------ *)

let bechamel_suite buf =
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let open Bechamel in
  let src = Benchmarks.Mp3d.source ~particles:128 ~cells:16 ~t:2 ~nodes:4 () in
  let m4 = { machine with Wwt.Machine.nodes = 4 } in
  let prog = parse src in
  let trace = (Wwt.Run.collect_trace ~machine:m4 prog).Wwt.Interp.trace in
  let tests =
    Test.make_grouped ~name:"cachier"
      [
        Test.make ~name:"parse" (Staged.stage (fun () -> ignore (parse src)));
        Test.make ~name:"sema"
          (Staged.stage (fun () -> ignore (Lang.Sema.check prog)));
        Test.make ~name:"trace-run"
          (Staged.stage (fun () -> ignore (Wwt.Run.collect_trace ~machine:m4 prog)));
        Test.make ~name:"epoch-assimilation"
          (Staged.stage (fun () ->
               ignore (Cachier.Epoch_info.build ~nodes:4 ~block_size:32 trace)));
        Test.make ~name:"annotate"
          (Staged.stage (fun () ->
               ignore
                 (Cachier.Annotate.annotate_with_trace ~machine:m4 ~options:opts
                    prog trace)));
        Test.make ~name:"perf-run-tree-walk"
          (Staged.stage (fun () ->
               ignore
                 (Wwt.Run.measure ~engine:Wwt.Run.Tree_walk ~machine:m4
                    ~annotations:false ~prefetch:false prog)));
        Test.make ~name:"perf-run-compiled"
          (Staged.stage (fun () ->
               ignore
                 (Wwt.Run.measure ~engine:Wwt.Run.Compiled ~machine:m4
                    ~annotations:false ~prefetch:false prog)));
        Test.make ~name:"compile-only"
          (Staged.stage (fun () -> Wwt.Compile.compile_only ~machine:m4 prog));
        (* The SiSd backend on the compiled engine, priced against the
           perf-run-compiled row above (same program, same machine bar
           the protocol). Self-invalidation swaps directory bookkeeping
           for epoch-boundary sweeps; this row keeps that trade visible
           and CI pins its existence with --require so the backend can
           never silently drop out of the measured set. *)
        Test.make ~name:"sisd-overhead"
          (Staged.stage
             (let msisd =
                { m4 with Wwt.Machine.protocol = Memsys.Protocol_id.Sisd }
              in
              fun () ->
                ignore
                  (Wwt.Run.measure ~engine:Wwt.Run.Compiled ~machine:msisd
                     ~annotations:false ~prefetch:false prog)));
        (* The streaming race detector folded over the trace-run's record
           list, as every --races surface calls it. Detection is opt-in
           (--races), so the off cost is zero by construction; this row
           prices the on cost, which must stay a small fraction of
           trace-run (the simulate work it rides on) — CI pins the row's
           existence with --require and the generic 25% regression gate
           holds its trajectory. *)
        Test.make ~name:"races-overhead"
          (Staged.stage (fun () -> ignore (Races.detect ~nodes:4 trace)));
        (* One warm incremental re-annotation: a fresh single-token edit
           against an already-built base, served by the taint prover and
           the cached placement plan. The counter makes every run a new
           digest, so this prices the Plan_reuse path, never the Noop
           digest hit. CI pins the row with --require and the
           delta-speedup gate holds its trajectory. *)
        Test.make ~name:"delta-annotate"
          (Staged.stage
             (let dsrc = Benchmarks.Matmul.source ~n:8 ~nodes:4 () in
              let base =
                Delta.Engine.base_of ~machine:m4 ~options:opts ~source:dsrc
                  (parse dsrc)
              in
              let span, v =
                match
                  List.filter
                    (fun ((span : Delta.Splice.span), v) ->
                      match
                        Delta.Taint.compare_and_prove ~base:(parse dsrc)
                          ~edited:
                            (parse
                               (Delta.Splice.apply_edit dsrc span
                                  (string_of_int (v + 1))))
                      with
                      | Delta.Taint.Preserved _ -> true
                      | Delta.Taint.Broken _ -> false
                      | exception _ -> false)
                    (Delta.Splice.int_literals dsrc)
                with
                | [] -> failwith "delta-annotate: no provable edit in matmul"
                | sv :: _ -> sv
              in
              let i = ref 0 in
              fun () ->
                incr i;
                ignore
                  (Delta.Engine.annotate_delta ~machine:m4 ~options:opts
                     ~base ~source:dsrc span
                     (string_of_int (v + !i)))));
        (* The disabled-observability hot path: 64 manual span open/close
           pairs plus the [enabled] branch — should cost a few ns/run and
           allocate nothing, guarding the zero-overhead promise. *)
        Test.make ~name:"obs-overhead"
          (Staged.stage (fun () ->
               for _ = 1 to 64 do
                 let t0 = Obs.start () in
                 if Obs.enabled () then ignore (Sys.opaque_identity t0);
                 Obs.finish "bench.noop" t0
               done));
      ]
  in
  let cfg = Benchmark.cfg ~limit:100 ~quota:(Time.second 0.25) () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] tests in
  let results =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
      Toolkit.Instance.monotonic_clock raw
  in
  let rows = ref [] in
  Hashtbl.iter (fun name result -> rows := (name, result) :: !rows) results;
  let estimates =
    List.filter_map
      (fun (name, result) ->
        match Analyze.OLS.estimates result with
        | Some [ est ] ->
            pr "  %-32s %14.0f ns/run\n" name est;
            Some (name, est)
        | Some _ | None ->
            pr "  %-32s (no estimate)\n" name;
            None)
      (List.sort compare !rows)
  in
  estimates

(* ------------------------------------------------------------------ *)
(* Driver: buffered experiments, wall-clocked, JSON trajectory file    *)
(* ------------------------------------------------------------------ *)

let experiments : (string * string * (Buffer.t -> unit)) list =
  [
    ("figure6", "E1/E6  Figure 6: normalised execution time", figure6);
    ("proto-matrix", "Protocol x annotation matrix: dir1sw / sisd / commute",
     proto_matrix);
    ("delta", "Incremental re-annotation: warm edits vs from-scratch",
     delta_incremental);
    ("sharing-profile", "E7  Degree of sharing", sharing_profile);
    ("jacobi-cost", "E2  Section 2.1: Jacobi check-out counts", jacobi_cost);
    ("matmul-listings", "E3  Section 4.4: Cachier's MatMul annotations",
     matmul_listings);
    ("restructuring", "E4  Section 5: restructured MatMul", restructuring);
    ("sensitivity", "E5  Section 4.5: trace-input sensitivity", sensitivity);
    ("fig4", "E8  Figure 4: worked annotation sets", fig4);
    ("extensions", "Extension benchmarks: Water, LU, FFT (not in Figure 6)",
     water_extension);
    ("barnes-capacity", "Ablation: Barnes working set vs cache capacity",
     ablation_barnes_capacity);
    ("trap-cost", "Ablation: Dir1SW software-trap cost", ablation_trap_cost);
    ("modes", "Ablation: Programmer vs Performance CICO as directives",
     ablation_modes);
    ("directory", "Ablation: Dir1SW vs full-map hardware directory",
     ablation_directory);
    ("post-store", "Ablation: check-in vs KSR-1 post-store (extension)",
     ablation_post_store);
    ("training-set", "Ablation: single trace vs training set (Section 4.5)",
     ablation_training_set);
  ]

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let write_json ~path ~timings ~bechamel ~total =
  let b = Buffer.create 2048 in
  Buffer.add_string b "{\n";
  Printf.bprintf b "  \"jobs\": %d,\n" jobs;
  Printf.bprintf b "  \"nodes\": %d,\n" nodes;
  Printf.bprintf b "  \"scale\": %g,\n" scale;
  (if Float.is_nan !delta_speedup then
     Buffer.add_string b "  \"delta_speedup\": null,\n"
   else Printf.bprintf b "  \"delta_speedup\": %.3f,\n" !delta_speedup);
  (match !proto_matrix_rows with
  | [] -> ()
  | rows ->
      Buffer.add_string b "  \"protocol_matrix\": [\n";
      List.iteri
        (fun i (bench, proto, variant, cycles, miss, msgs, wb) ->
          Printf.bprintf b
            "    {\"benchmark\": \"%s\", \"protocol\": \"%s\", \"variant\": \
             \"%s\", \"cycles\": %d, \"misses\": %d, \"messages\": %d, \
             \"writebacks\": %d}%s\n"
            (json_escape bench) (json_escape proto) (json_escape variant)
            cycles miss msgs wb
            (if i = List.length rows - 1 then "" else ","))
        rows;
      Buffer.add_string b "  ],\n");
  Printf.bprintf b "  \"total_seconds\": %.6f,\n" total;
  Buffer.add_string b "  \"experiments\": [\n";
  List.iteri
    (fun i (name, dt) ->
      Printf.bprintf b "    {\"name\": \"%s\", \"seconds\": %.6f}%s\n"
        (json_escape name) dt
        (if i = List.length timings - 1 then "" else ","))
    timings;
  Buffer.add_string b "  ],\n";
  Buffer.add_string b "  \"bechamel_ns_per_run\": [\n";
  List.iteri
    (fun i (name, est) ->
      Printf.bprintf b "    {\"name\": \"%s\", \"ns\": %.1f}%s\n"
        (json_escape name) est
        (if i = List.length bechamel - 1 then "" else ","))
    bechamel;
  Buffer.add_string b "  ]\n}\n";
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Buffer.output_buffer oc b)

let () =
  let experiments =
    match Sys.getenv_opt "CACHIER_BENCH_ONLY" with
    | None -> experiments
    | Some names ->
        let known = List.map (fun (name, _, _) -> name) experiments in
        let wanted = String.split_on_char ',' names in
        if List.exists (fun name -> not (List.mem name known)) wanted then
          refuse "CACHIER_BENCH_ONLY"
            ("a comma-separated list of " ^ String.concat ", " known)
            names;
        List.filter (fun (name, _, _) -> List.mem name wanted) experiments
  in
  Printf.printf
    "Cachier reproduction benchmark harness — %d simulated nodes, %d KB \
     4-way caches, 32-byte blocks, Dir1SW\n"
    nodes
    (machine.Wwt.Machine.cache_bytes / 1024);
  let t_start = Unix.gettimeofday () in
  let timings =
    List.map
      (fun (name, title, f) ->
        let buf = Buffer.create 4096 in
        Printf.bprintf buf "\n=== %s ===\n" title;
        let t0 = Unix.gettimeofday () in
        f buf;
        let dt = Unix.gettimeofday () -. t0 in
        print_string (Buffer.contents buf);
        flush stdout;
        (name, dt))
      experiments
  in
  let bechamel, timings =
    if Sys.getenv_opt "CACHIER_BENCH_FAST" = None then begin
      let buf = Buffer.create 4096 in
      Printf.bprintf buf "\n=== %s ===\n"
        "Tool micro-benchmarks (Bechamel, wall-clock)";
      let t0 = Unix.gettimeofday () in
      let rows = bechamel_suite buf in
      let dt = Unix.gettimeofday () -. t0 in
      print_string (Buffer.contents buf);
      flush stdout;
      (rows, timings @ [ ("bechamel", dt) ])
    end
    else ([], timings)
  in
  let total = Unix.gettimeofday () -. t_start in
  let json_path =
    Option.value ~default:"BENCH_1.json" (Sys.getenv_opt "CACHIER_BENCH_JSON")
  in
  write_json ~path:json_path ~timings ~bechamel ~total;
  Printf.printf "\ndone.  (%.2fs wall, %d jobs; wrote %s)\n" total jobs
    json_path
