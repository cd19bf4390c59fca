(* Protocol-rotating conformance battery: every invariant the suite
   already holds under Dir1SW must hold under the SiSd and Commute
   backends too.

   - engine equivalence: the tree-walk and compiled engines are
     bit-identical under every backend, including a non-power-of-two
     3-node / 3-way cache geometry;
   - semantics preservation: a DRF program's per-node output and final
     shared memory are independent of the backend, and annotating (from
     the reference Dir1SW trace) never changes them under any backend;
   - idempotence: re-annotation is a pretty-print fixpoint whatever the
     machine's backend;
   - equation sanity: Performance CICO's annotation sets stay a subset
     of Programmer CICO's when the epoch info is built from a SiSd or
     Commute trace;
   - conformance: a machine built by [Protocol.create_b] for each
     backend reports that backend, audits clean after a mixed access
     stream, and resets its counters. *)

let backends = Memsys.Protocol_id.all

(* (name, nodes, cache_bytes, assoc, block_size); the second geometry is
   the deliberately awkward non-power-of-two one: 3 nodes, 3-way, 8
   sets. *)
let geometries =
  [ ("4n/4w", 4, 16 * 1024, 4, 32); ("3n/3w", 3, 768, 3, 32) ]

let machine_for backend (_, nodes, cache_bytes, assoc, block_size) =
  {
    Wwt.Machine.default with
    Wwt.Machine.nodes;
    cache_bytes;
    assoc;
    block_size;
    debug_protocol = true;
    protocol = backend;
  }

let check_same name (a : Wwt.Interp.outcome) (b : Wwt.Interp.outcome) =
  Alcotest.(check int) (name ^ ": time") a.Wwt.Interp.time b.Wwt.Interp.time;
  Alcotest.(check bool) (name ^ ": stats") true
    (a.Wwt.Interp.stats = b.Wwt.Interp.stats);
  Alcotest.(check bool) (name ^ ": trace") true
    (a.Wwt.Interp.trace = b.Wwt.Interp.trace);
  Alcotest.(check bool) (name ^ ": output") true
    (a.Wwt.Interp.output = b.Wwt.Interp.output);
  Alcotest.(check bool) (name ^ ": memory") true
    (a.Wwt.Interp.shared = b.Wwt.Interp.shared)

(* Per-node output + final memory, the protocol-independent part of an
   outcome (global print interleaving legitimately shifts with timing). *)
let signature ~nodes (o : Wwt.Interp.outcome) =
  let node_of_line line =
    if String.length line > 1 && line.[0] = 'p' then
      match String.index_opt line ':' with
      | Some i -> (
          try int_of_string (String.sub line 1 (i - 1)) with _ -> -1)
      | None -> -1
    else -1
  in
  let per = Array.make (nodes + 1) [] in
  List.iter
    (fun line ->
      let n = node_of_line line in
      let slot = if n >= 0 && n < nodes then n else nodes in
      per.(slot) <- line :: per.(slot))
    o.Wwt.Interp.output;
  (Array.map List.rev per, o.Wwt.Interp.shared)

(* Half-scale problem sizes: the matrix multiplies every invariant by
   three backends and two geometries, so the per-run cost matters. *)
let bench_programs ~nodes =
  List.map
    (fun (b : Benchmarks.Suite.t) ->
      (b.Benchmarks.Suite.name, Lang.Parser.parse b.Benchmarks.Suite.source))
    (Benchmarks.Suite.all ~scale:0.5 ~nodes ())

let proto_tag p = Memsys.Protocol_id.to_string p

(* ---- engine equivalence under every backend ----

   Dir1SW is excluded here only because t_engines already pins both
   engines against each other under it at full scale; this test buys
   the same guarantee for the two new backends. *)

let engine_equivalence () =
  List.iter
    (fun backend ->
      List.iter
        (fun geo ->
          let gname, nodes, _, _, _ = geo in
          let machine = machine_for backend geo in
          List.iter
            (fun (name, prog) ->
              let tag =
                Printf.sprintf "%s/%s/%s" (proto_tag backend) gname name
              in
              let seq_trace =
                Wwt.Run.collect_trace ~engine:Wwt.Run.Compiled ~machine prog
              in
              let seq_perf =
                Wwt.Run.measure ~engine:Wwt.Run.Compiled ~machine
                  ~annotations:false ~prefetch:false prog
              in
              check_same (tag ^ "/tw-trace") seq_trace
                (Wwt.Run.collect_trace ~engine:Wwt.Run.Tree_walk ~machine prog);
              check_same (tag ^ "/tw-perf") seq_perf
                (Wwt.Run.measure ~engine:Wwt.Run.Tree_walk ~machine
                   ~annotations:false ~prefetch:false prog))
            (bench_programs ~nodes))
        geometries)
    [ Memsys.Protocol_id.Sisd; Memsys.Protocol_id.Commute ]

(* ---- semantics: backend never changes a DRF program's results ---- *)

let dir1sw_machine geo = machine_for Memsys.Protocol_id.Dir1sw geo

(* The annotation trace always comes from the reference Dir1SW backend
   (its write faults surface every conflict; SiSd and Commute hide some
   by design) — same seam the fuzzer's oracle battery uses. *)
let annotated_variant ~geo ~mode prog =
  let machine = dir1sw_machine geo in
  let trace = (Wwt.Run.collect_trace ~machine prog).Wwt.Interp.trace in
  let options =
    { Cachier.Placement.default_options with Cachier.Placement.mode }
  in
  (Cachier.Annotate.annotate_with_trace ~machine ~options prog trace)
    .Cachier.Annotate.annotated

let semantics_preservation () =
  let geo = List.hd geometries in
  let _, nodes, _, _, _ = geo in
  List.iter
    (fun (name, prog) ->
      (* Racy benchmarks (matmul's race on C is part of the paper's
         narrative) have timing-dependent results, so only proven
         race-free programs pin cross-backend semantics — the same skip
         the fuzzer's semantics oracle applies. *)
      let records =
        (Wwt.Run.collect_trace ~machine:(dir1sw_machine geo) prog)
          .Wwt.Interp.trace
      in
      if Races.racy (Races.naive ~nodes records) then ()
      else
      let annotated =
        annotated_variant ~geo ~mode:Cachier.Equations.Programmer prog
      in
      let baseline =
        signature ~nodes
          (Wwt.Run.measure ~engine:Wwt.Run.Compiled
             ~machine:(dir1sw_machine geo) ~annotations:false ~prefetch:false
             prog)
      in
      List.iter
        (fun backend ->
          let machine = machine_for backend geo in
          let tag = Printf.sprintf "%s/%s" (proto_tag backend) name in
          let plain =
            Wwt.Run.measure ~engine:Wwt.Run.Compiled ~machine
              ~annotations:false ~prefetch:false prog
          in
          Alcotest.(check bool)
            (tag ^ ": backend preserves per-node results")
            true
            (compare baseline (signature ~nodes plain) = 0);
          let ann =
            Wwt.Run.measure ~engine:Wwt.Run.Compiled ~machine
              ~annotations:true ~prefetch:false annotated
          in
          Alcotest.(check bool)
            (tag ^ ": annotations preserve results under this backend")
            true
            (compare baseline (signature ~nodes ann) = 0))
        backends)
    (bench_programs ~nodes)

(* ---- idempotence under every backend ---- *)

let idempotence () =
  let geo = List.hd geometries in
  let _, nodes, _, _, _ = geo in
  let ref_machine = dir1sw_machine geo in
  List.iter
    (fun (name, prog) ->
      let trace =
        (Wwt.Run.collect_trace ~machine:ref_machine prog).Wwt.Interp.trace
      in
      List.iter
        (fun backend ->
          let machine = machine_for backend geo in
          List.iter
            (fun (mname, mode) ->
              let options =
                { Cachier.Placement.default_options with
                  Cachier.Placement.mode }
              in
              let once =
                (Cachier.Annotate.annotate_with_trace ~machine ~options prog
                   trace)
                  .Cachier.Annotate.annotated
              in
              let twice =
                (Cachier.Annotate.annotate_with_trace ~machine ~options once
                   trace)
                  .Cachier.Annotate.annotated
              in
              Alcotest.(check string)
                (Printf.sprintf "%s/%s/%s fixpoint" (proto_tag backend) name
                   mname)
                (Lang.Pretty.program_to_string once)
                (Lang.Pretty.program_to_string twice))
            [
              ("performance", Cachier.Equations.Performance);
              ("programmer", Cachier.Equations.Programmer);
            ])
        backends)
    (bench_programs ~nodes)

(* ---- equation sanity over each backend's own trace ---- *)

let equations_subset () =
  List.iter
    (fun geo ->
      let _, nodes, _, _, _ = geo in
      List.iter
        (fun (name, prog) ->
          List.iter
            (fun backend ->
              let machine = machine_for backend geo in
              let trace =
                (Wwt.Run.collect_trace ~machine prog).Wwt.Interp.trace
              in
              let einfo =
                Cachier.Epoch_info.build ~nodes
                  ~block_size:machine.Wwt.Machine.block_size trace
              in
              let perf =
                Cachier.Equations.all Cachier.Equations.Performance einfo
              in
              let prog_sets =
                Cachier.Equations.all Cachier.Equations.Programmer einfo
              in
              Array.iteri
                (fun e row ->
                  Array.iteri
                    (fun n (pf : Cachier.Equations.annots) ->
                      let pg : Cachier.Equations.annots = prog_sets.(e).(n) in
                      let module I = Cachier.Equations.Iset in
                      let check part a b =
                        if not (I.subset a b) then
                          Alcotest.failf
                            "%s/%s/%s epoch %d node %d: Performance %s not a \
                             subset of Programmer's"
                            (proto_tag backend) name
                            (let g, _, _, _, _ = geo in
                             g)
                            e n part
                      in
                      check "co_x" pf.Cachier.Equations.co_x
                        pg.Cachier.Equations.co_x;
                      check "co_s" pf.Cachier.Equations.co_s
                        pg.Cachier.Equations.co_s;
                      check "ci" pf.Cachier.Equations.ci
                        pg.Cachier.Equations.ci)
                    row)
                perf)
            backends)
        (bench_programs ~nodes:nodes))
    geometries

(* ---- conformance of every backend built through create_b ---- *)

let backend_conformance () =
  List.iter
    (fun backend ->
      let module P = Memsys.Protocol in
      let t =
        P.create_b ~backend ~nodes:3 ~cache_bytes:768 ~assoc:3 ~block_size:32
          ~costs:Memsys.Network.default
      in
      let tag = proto_tag backend in
      Alcotest.(check bool)
        (tag ^ ": machine runs the requested backend")
        true
        (P.backend t = backend);
      P.set_debug_checks t true;
      for i = 0 to 63 do
        ignore (P.read_p t ~node:(i mod 3) ~addr:(i * 8) ~now:i);
        ignore (P.write_p t ~node:(i mod 3) ~addr:((i * 8) + 256) ~now:i);
        ignore (P.read_rmw_p t ~node:(i mod 3) ~addr:(i * 4) ~now:i);
        ignore (P.write_rmw_p t ~node:(i mod 3) ~addr:(i * 4) ~now:i)
      done;
      P.epoch_boundary t;
      (match P.check_invariants t with
      | None -> ()
      | Some m -> Alcotest.failf "%s: audit failed: %s" tag m);
      P.reset t;
      Alcotest.(check int)
        (tag ^ ": reset zeroes the counters")
        0
        (P.stats t).Memsys.Stats.shared_reads)
    backends

let suite =
  [
    Alcotest.test_case "engine equivalence x protocol (incl. 3n/3w)" `Slow
      engine_equivalence;
    Alcotest.test_case "backend preserves DRF semantics (plain + annotated)"
      `Slow semantics_preservation;
    Alcotest.test_case "annotation idempotent under every backend" `Slow
      idempotence;
    Alcotest.test_case "Performance subset of Programmer on every backend's \
                        trace"
      `Slow equations_subset;
    Alcotest.test_case "every backend conforms and audits clean" `Quick
      backend_conformance;
  ]
