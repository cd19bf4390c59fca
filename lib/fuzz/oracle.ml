(* The seven differential-testing oracles.

   Every generated program is pushed through:

   1. engines       — the tree-walking and closure-compiling engines
                      must agree exactly (time, stats, trace, output,
                      memory) on the program and on its annotated
                      variants;
   2. semantics     — annotating never changes results: the original, the
                      program with its random directives executed, and
                      the Performance- and Programmer-CICO annotated
                      variants all print the same per-node output and
                      leave the same final shared memory;
   3. idempotence   — re-annotating an annotated program with the same
                      trace is a fixpoint of the pretty-printed source;
   4. protocol      — no run may trip the active coherence backend's
                      directory/cache invariant audit
                      (Machine.debug_protocol); which backend runs is
                      the machine's [protocol] field, so a rotating
                      campaign audits Dir1SW, SiSd and Commute alike;
   5. equations     — Performance CICO's annotation sets are a subset of
                      Programmer CICO's for every epoch and node, and the
                      Section 2/5 cost-model closed forms are
                      non-negative;
   6. races         — the streaming race detector (Races.detect) reports
                      exactly what the naive reference (Races.naive)
                      reports on the reference trace's records; a
                      DRF-by-construction program (~expect_race_free) is
                      proven race-free; and the paper's per-epoch DRFS
                      predicate marks exactly the detector's racy
                      addresses, each first in the epoch of its reported
                      race, so Performance mode only ever hands racy data
                      the conservative filter_drfs annotations — i.e. a
                      proven-racy program never receives
                      semantics-changing Performance annotations;
   7. delta         — a deterministic single-token edit served by the
                      incremental engine (Delta.Engine.annotate_delta)
                      produces byte-identical annotated source, an equal
                      report and equal epoch info to a from-scratch
                      annotation of the edited text; when either path
                      rejects the edited program, both must reject it
                      with the same class of error.

   Output comparison for oracle 2 is per node: annotations legitimately
   change timing, and timing changes the global interleaving of print
   lines across nodes, but never a single node's own output sequence.
   That only holds for data-race-free programs — when oracle 6's trusted
   reference proves the program racy, oracle 2 skips (a race means even a
   single node's values are timing-dependent). All value comparisons use
   [Stdlib.compare] so NaN equals itself.

   Protocol rotation: the machine's [protocol] backend governs every
   execution, measurement and invariant audit, but the trace that feeds
   annotation and race detection is always collected under the reference
   Dir1SW backend. Dir1SW's write faults surface every cross-node
   conflicting access in the miss log; SiSd's local write upgrades and
   Commute's privatized accumulations hide conflicts by design, so a
   rotated-protocol trace cannot serve as a race-visibility oracle. *)

type verdict = Pass | Skip of string | Fail of string

type report = {
  engines : verdict;
  semantics : verdict;
  idempotence : verdict;
  protocol : verdict;
  equations : verdict;
  races : verdict;
  delta : verdict;
}

let names =
  [
    "engines"; "semantics"; "idempotence"; "protocol"; "equations"; "races";
    "delta";
  ]

let to_list r =
  [
    ("engines", r.engines);
    ("semantics", r.semantics);
    ("idempotence", r.idempotence);
    ("protocol", r.protocol);
    ("equations", r.equations);
    ("races", r.races);
    ("delta", r.delta);
  ]

let first_failure r =
  List.find_map
    (fun (n, v) -> match v with Fail d -> Some (n, d) | _ -> None)
    (to_list r)

let pp_verdict ppf = function
  | Pass -> Format.fprintf ppf "pass"
  | Skip m -> Format.fprintf ppf "skip (%s)" m
  | Fail m -> Format.fprintf ppf "FAIL: %s" m

let pp ppf r =
  List.iter
    (fun (n, v) -> Format.fprintf ppf "%-12s %a@." n pp_verdict v)
    (to_list r)

(* ---- running programs, classifying how they stop ---- *)

type run_result =
  | Done of Wwt.Interp.outcome
  | Runtime of string
  | Deadlock of string
  | Violation of string
  | Timeout

let describe = function
  | Done _ -> "completed"
  | Runtime m -> "runtime error (" ^ m ^ ")"
  | Deadlock m -> "deadlock (" ^ m ^ ")"
  | Violation m -> "protocol violation (" ^ m ^ ")"
  | Timeout -> "timeout"

let classify f =
  match f () with
  | o -> Done o
  | exception Wwt.Interp.Runtime_error m -> Runtime m
  | exception Wwt.Sched.Deadlock m -> Deadlock m
  | exception Memsys.Protocol.Invariant_violation m -> Violation m
  | exception Wwt.Sched.Cancelled _ -> Timeout

(* ---- comparisons ---- *)

(* Full outcome equality for the engine oracle. [compare] (not [=]) so a
   NaN a program computed equals the same NaN from the other engine. *)
let outcome_mismatch (a : Wwt.Interp.outcome) (b : Wwt.Interp.outcome) =
  if a.Wwt.Interp.time <> b.Wwt.Interp.time then Some "simulated time"
  else if compare a.Wwt.Interp.stats b.Wwt.Interp.stats <> 0 then Some "stats"
  else if compare a.Wwt.Interp.trace b.Wwt.Interp.trace <> 0 then Some "trace"
  else if compare a.Wwt.Interp.output b.Wwt.Interp.output <> 0 then Some "output"
  else if compare a.Wwt.Interp.shared b.Wwt.Interp.shared <> 0 then
    Some "final shared memory"
  else None

(* Semantic signature: per-node output sequences + final shared memory.
   Print lines look like "p<node>: ...". *)
let node_of_line line =
  if String.length line > 1 && line.[0] = 'p' then
    match String.index_opt line ':' with
    | Some i -> ( try int_of_string (String.sub line 1 (i - 1)) with _ -> -1)
    | None -> -1
  else -1

let signature ~nodes (o : Wwt.Interp.outcome) =
  let per = Array.make (nodes + 1) [] in
  List.iter
    (fun line ->
      let n = node_of_line line in
      let slot = if n >= 0 && n < nodes then n else nodes in
      per.(slot) <- line :: per.(slot))
    o.Wwt.Interp.output;
  (Array.map List.rev per, o.Wwt.Interp.shared)

let same_signature ~nodes a b =
  compare (signature ~nodes a) (signature ~nodes b) = 0

(* ---- the oracle battery ---- *)

let perf_options =
  {
    Cachier.Placement.mode = Cachier.Equations.Performance;
    prefetch = true;
  }

let prog_options =
  {
    Cachier.Placement.mode = Cachier.Equations.Programmer;
    prefetch = false;
  }

let subset_mismatch einfo =
  let perf = Cachier.Equations.all Cachier.Equations.Performance einfo in
  let prog = Cachier.Equations.all Cachier.Equations.Programmer einfo in
  let bad = ref None in
  Array.iteri
    (fun e row ->
      Array.iteri
        (fun n (pf : Cachier.Equations.annots) ->
          if !bad = None then begin
            let pg : Cachier.Equations.annots = prog.(e).(n) in
            let module I = Cachier.Equations.Iset in
            let check name a b =
              if !bad = None && not (I.subset a b) then
                bad :=
                  Some
                    (Printf.sprintf
                       "epoch %d node %d: Performance %s not a subset of \
                        Programmer's (%d extra blocks)"
                       e n name
                       (I.cardinal (I.diff a b)))
            in
            check "co_x" pf.Cachier.Equations.co_x pg.Cachier.Equations.co_x;
            check "co_s" pf.Cachier.Equations.co_s pg.Cachier.Equations.co_s;
            check "ci" pf.Cachier.Equations.ci pg.Cachier.Equations.ci
          end)
        row)
    perf;
  !bad

let cost_model_mismatch ~machine (annotated_stats : Memsys.Stats.t option) =
  let jacobi = { Cico.Cost_model.n = 64; p = 2; b = 4; t = 3 } in
  let matmul = { Cico.Cost_model.mm_n = 8; mm_p = 2 } in
  let negative =
    List.find_opt
      (fun (_, v) -> v < 0.0 || Float.is_nan v)
      (Cico.Cost_model.closed_forms ~jacobi ~matmul)
  in
  match negative with
  | Some (name, v) -> Some (Printf.sprintf "closed form %s is %g" name v)
  | None -> (
      match annotated_stats with
      | None -> None
      | Some stats ->
          let cycles =
            Cico.Cost_model.communication_cycles
              ~costs:machine.Wwt.Machine.costs
              ~check_out_blocks:(Cico.Cost_model.measured_checkouts stats)
              ~check_in_blocks:stats.Memsys.Stats.check_ins ~upgrades_avoided:0
          in
          if cycles < 0 then
            Some
              (Printf.sprintf
                 "communication_cycles is %d for %d check-outs / %d check-ins \
                  with no upgrade credit"
                 cycles
                 (Cico.Cost_model.measured_checkouts stats)
                 stats.Memsys.Stats.check_ins)
          else None)

(* Oracle 6's agreement between the paper's per-epoch DRFS predicate
   and the streaming detector, in both directions: both count the same
   epochs, and the addresses [Drfs.race] marks in some epoch are exactly
   the detector's racy addresses, each first marked in the epoch of its
   reported race. *)
let drfs_mismatch (einfo : Cachier.Epoch_info.t) (report : Races.report) =
  (* address -> the first epoch it is racy in, by each analysis *)
  let drfs = Hashtbl.create 16 and detected = Hashtbl.create 16 in
  Array.iteri
    (fun e d ->
      Cachier.Drfs.Iset.iter
        (fun a -> if not (Hashtbl.mem drfs a) then Hashtbl.add drfs a e)
        (Cachier.Drfs.race d))
    einfo.Cachier.Epoch_info.drfs;
  List.iter
    (fun (r : Races.race) ->
      Hashtbl.replace detected r.Races.r_addr r.Races.r_epoch)
    report.Races.races;
  let first_epoch tbl a =
    match Hashtbl.find_opt tbl a with
    | Some e -> Printf.sprintf "epoch %d" e
    | None -> "no epoch"
  in
  let differs a = Hashtbl.find_opt drfs a <> Hashtbl.find_opt detected a in
  if Cachier.Epoch_info.n_epochs einfo <> report.Races.epochs then
    Some
      (Printf.sprintf "the DRFS pass sees %d epochs, the race detector %d"
         (Cachier.Epoch_info.n_epochs einfo)
         report.Races.epochs)
  else
    List.find_opt differs
      (report.Races.racy_addrs @ List.of_seq (Hashtbl.to_seq_keys drfs))
    |> Option.map (fun a ->
           Printf.sprintf
             "addr %d first races in %s by the DRFS predicate but in %s by \
              the race detector"
             a (first_epoch drfs a) (first_epoch detected a))

let run_all ?(budget_s = 5.0) ?(expect_race_free = false) ~machine
    (p : Lang.Ast.program) : report =
  let machine = { machine with Wwt.Machine.debug_protocol = true } in
  let nodes = machine.Wwt.Machine.nodes in
  let deadline = Unix.gettimeofday () +. budget_s in
  let tick = ref 0 in
  let poll () =
    incr tick;
    if !tick land 4095 = 0 && Unix.gettimeofday () > deadline then
      raise (Wwt.Sched.Cancelled "fuzz oracle budget exhausted")
  in
  match Lang.Sema.check p with
  | exception Lang.Sema.Error m ->
      let s = Skip ("sema rejects the program: " ^ m) in
      {
        engines = s;
        semantics = s;
        idempotence = s;
        protocol = s;
        equations = s;
        races = s;
        delta = s;
      }
  | _ ->
      let violations = ref [] in
      let completed = ref false in
      let note r =
        (match r with
        | Violation m -> violations := m :: !violations
        | Done _ -> completed := true
        | _ -> ());
        r
      in
      let trace_on machine engine prog =
        note (classify (fun () -> Wwt.Run.collect_trace ~poll ~engine ~machine prog))
      in
      let trace engine prog = trace_on machine engine prog in
      let measure engine ~annotations ~prefetch prog =
        note
          (classify (fun () ->
               Wwt.Run.measure ~poll ~engine ~machine ~annotations ~prefetch prog))
      in
      (* -- the program itself, both engines, all three modes -- *)
      let runs_t0 = Obs.start () in
      let tw_tr = trace Wwt.Run.Tree_walk p in
      let co_tr = trace Wwt.Run.Compiled p in
      (* Annotation and race visibility are defined over the reference
         directory protocol's miss log: Dir1SW surfaces every cross-node
         conflicting access as a fault, while SiSd's local write upgrades
         and Commute's privatized accumulations legitimately hide
         conflicts from the trace (that invisibility is why
         self-invalidation protocols require DRF in the first place). The
         rotated backend still governs every execution, measurement and
         invariant audit below. *)
      let ref_tr =
        if machine.Wwt.Machine.protocol = Memsys.Protocol_id.Dir1sw then co_tr
        else
          trace_on
            { machine with Wwt.Machine.protocol = Memsys.Protocol_id.Dir1sw }
            Wwt.Run.Compiled p
      in
      let tw_pf = measure Wwt.Run.Tree_walk ~annotations:false ~prefetch:false p in
      let co_pf = measure Wwt.Run.Compiled ~annotations:false ~prefetch:false p in
      let tw_pa = measure Wwt.Run.Tree_walk ~annotations:true ~prefetch:true p in
      let co_pa = measure Wwt.Run.Compiled ~annotations:true ~prefetch:true p in
      (* -- annotated variants (need a trace and an annotator that ran) -- *)
      let annotate options =
        match ref_tr with
        | Done tr -> (
            match
              Cachier.Annotate.annotate_with_trace ~machine ~options p
                tr.Wwt.Interp.trace
            with
            | r -> Ok (Some r)
            | exception e -> Error (Printexc.to_string e))
        | _ -> Ok None
      in
      let perf_r = annotate perf_options in
      let prog_r = annotate prog_options in
      let annotated_runs =
        List.concat_map
          (fun (label, r) ->
            match r with
            | Ok (Some res) ->
                let prog = res.Cachier.Annotate.annotated in
                [
                  ( label,
                    measure Wwt.Run.Tree_walk ~annotations:true ~prefetch:true prog,
                    measure Wwt.Run.Compiled ~annotations:true ~prefetch:true prog );
                ]
            | _ -> [])
          [ ("Performance-annotated", perf_r); ("Programmer-annotated", prog_r) ]
      in
      Obs.finish "fuzz.runs" runs_t0;
      (* -- oracle 6: streaming race detection. Computed up front because
         oracle 2 consults the trusted (naive) verdict: a racy program's
         per-node results are legitimately timing-dependent, so the
         semantics oracle must not treat their drift as a counterexample.
         Three checks: (a) the streaming detector's report equals the
         naive reference's on the trace's records; (b) a program the
         generator promises is DRF-by-construction is proven race-free;
         (c) the paper's per-epoch DRFS predicate and the detector agree
         both ways ([drfs_mismatch]). In particular every detected race
         is DRFS-unsafe in its epoch — by the Equations construction that
         confines racy data to the conservative filter_drfs annotations,
         so a proven-racy program never receives semantics-changing
         Performance annotations. -- *)
      let races, proven_racy =
        Obs.span "fuzz.oracle.races" @@ fun () ->
        match ref_tr with
        | Done tr -> (
            let records = tr.Wwt.Interp.trace in
            match
              ( Races.detect ~nodes records,
                Races.naive ~nodes records )
            with
            | exception e ->
                (Fail ("race detector raised " ^ Printexc.to_string e), false)
            | streaming, reference ->
                let proven_racy = Races.racy reference in
                if streaming <> reference then
                  ( Fail
                      (Printf.sprintf
                         "streaming detector disagrees with the naive \
                          reference (streaming: %d racy addrs over %d \
                          epochs, %d promoted; reference: %d racy addrs \
                          over %d epochs, %d promoted)"
                         (List.length streaming.Races.racy_addrs)
                         streaming.Races.epochs streaming.Races.promoted
                         (List.length reference.Races.racy_addrs)
                         reference.Races.epochs reference.Races.promoted),
                    proven_racy )
                else if expect_race_free && Races.racy streaming then
                  let r = List.hd streaming.Races.races in
                  ( Fail
                      (Printf.sprintf
                         "DRF-by-construction program proven racy: addr %d \
                          in epoch %d (node %d pc %d vs node %d pc %d)"
                         r.Races.r_addr r.Races.r_epoch
                         r.Races.r_first.Races.a_node
                         r.Races.r_first.Races.a_pc
                         r.Races.r_second.Races.a_node
                         r.Races.r_second.Races.a_pc),
                    proven_racy )
                else
                  match
                    Cachier.Epoch_info.build ~nodes
                      ~block_size:machine.Wwt.Machine.block_size records
                  with
                  | exception _ ->
                      (Pass, proven_racy) (* oracle 5 reports this *)
                  | einfo -> (
                      match drfs_mismatch einfo streaming with
                      | Some m -> (Fail m, proven_racy)
                      | None -> (Pass, proven_racy)))
        | r -> (Skip ("trace collection: " ^ describe r), false)
      in
      (* -- oracle 1: engine equivalence. The tree walk is the
         independent reference, so a mismatch points at a compiler bug. -- *)
      let engine_pairs =
        [
          ("trace mode", "tree-walk", tw_tr, "compiled", co_tr);
          ("perf mode", "tree-walk", tw_pf, "compiled", co_pf);
          ("perf mode with directives", "tree-walk", tw_pa, "compiled", co_pa);
        ]
        @ List.map
            (fun (l, tw, co) -> (l ^ " perf mode", "tree-walk", tw, "compiled", co))
            annotated_runs
      in
      let engines =
        Obs.span "fuzz.oracle.engines" @@ fun () ->
        List.fold_left
          (fun acc (name, la, a, lb, b) ->
            match acc with
            | Fail _ -> acc
            | _ -> (
                match (a, b) with
                | Done x, Done y -> (
                    match outcome_mismatch x y with
                    | None -> acc
                    | Some field ->
                        Fail
                          (Printf.sprintf "%s: %s and %s disagree on %s" name
                             la lb field))
                | Runtime _, Runtime _ | Deadlock _, Deadlock _ -> acc
                | Timeout, _ | _, Timeout -> acc
                | Violation _, _ | _, Violation _ -> acc
                | a, b ->
                    Fail
                      (Printf.sprintf "%s: %s %s but %s %s" name la
                         (describe a) lb (describe b))))
          Pass engine_pairs
      in
      (* -- oracle 2: annotations preserve semantics -- *)
      let semantics =
        Obs.span "fuzz.oracle.semantics" @@ fun () ->
        if proven_racy then
          Skip "program proven racy: per-node results are timing-dependent"
        else
        match co_pf with
        | Done base ->
            let variants =
              (("program with its own directives executed", co_pa)
              :: List.map (fun (l, _, co) -> (l, co)) annotated_runs)
            in
            let annot_error =
              List.find_map
                (fun (l, r) ->
                  match r with Error e -> Some (l, e) | Ok _ -> None)
                [ ("Performance", perf_r); ("Programmer", prog_r) ]
            in
            (match annot_error with
            | Some (l, e) -> Fail (Printf.sprintf "%s annotator raised %s" l e)
            | None ->
                List.fold_left
                  (fun acc (label, r) ->
                    match acc with
                    | Fail _ -> acc
                    | _ -> (
                        match r with
                        | Done o ->
                            if same_signature ~nodes base o then acc
                            else
                              Fail
                                (label
                                 ^ " changes per-node output or final shared \
                                    memory")
                        | Timeout -> acc
                        | Violation _ -> acc
                        | r ->
                            Fail
                              (Printf.sprintf "%s: baseline completed but %s"
                                 label (describe r))))
                  Pass variants)
        | Timeout -> Skip "baseline run timed out"
        | Violation _ -> Skip "baseline run tripped the protocol audit"
        | r -> Skip ("baseline run: " ^ describe r)
      in
      (* -- oracle 3: annotation is a fixpoint -- *)
      let idempotence =
        Obs.span "fuzz.oracle.idempotence" @@ fun () ->
        match ref_tr with
        | Done tr ->
            let fixpoint label options r =
              match r with
              | Ok (Some res) -> (
                  let once = res.Cachier.Annotate.annotated in
                  match
                    Cachier.Annotate.annotate_with_trace ~machine ~options once
                      tr.Wwt.Interp.trace
                  with
                  | res2 ->
                      let s1 = Lang.Pretty.program_to_string once in
                      let s2 =
                        Lang.Pretty.program_to_string
                          res2.Cachier.Annotate.annotated
                      in
                      if String.equal s1 s2 then Ok ()
                      else Error (label ^ " re-annotation is not a fixpoint")
                  | exception e ->
                      Error
                        (Printf.sprintf "%s re-annotation raised %s" label
                           (Printexc.to_string e)))
              | Ok None -> Ok ()
              | Error e -> Error (label ^ " annotator raised " ^ e)
            in
            let combine = function
              | Error e -> Fail e
              | Ok () -> Pass
            in
            (match fixpoint "Performance" perf_options perf_r with
            | Error e -> Fail e
            | Ok () -> combine (fixpoint "Programmer" prog_options prog_r))
        | r -> Skip ("trace collection: " ^ describe r)
      in
      (* -- oracle 4: protocol invariants (active backend's audit) -- *)
      let protocol =
        Obs.span "fuzz.oracle.protocol" @@ fun () ->
        match !violations with
        | m :: _ -> Fail m
        | [] -> if !completed then Pass else Skip "no run completed"
      in
      (* -- oracle 5: equation and cost-model sanity -- *)
      let equations =
        Obs.span "fuzz.oracle.equations" @@ fun () ->
        match ref_tr with
        | Done tr -> (
            match
              Cachier.Epoch_info.build ~nodes ~block_size:machine.Wwt.Machine.block_size
                tr.Wwt.Interp.trace
            with
            | einfo -> (
                match subset_mismatch einfo with
                | Some m -> Fail m
                | None -> (
                    let annotated_stats =
                      List.find_map
                        (fun (_, _, co) ->
                          match co with
                          | Done o -> Some o.Wwt.Interp.stats
                          | _ -> None)
                        annotated_runs
                    in
                    match cost_model_mismatch ~machine annotated_stats with
                    | Some m -> Fail m
                    | None -> Pass))
            | exception e ->
                Fail ("trace assimilation raised " ^ Printexc.to_string e))
        | r -> Skip ("trace collection: " ^ describe r)
      in
      (* -- oracle 7: incremental re-annotation. A deterministic
         single-token edit of the pretty-printed source is served once by
         the delta engine and once from scratch; the annotated source and
         the base's summary must be byte-identical and the report and
         epoch info equal. The candidate index is hashed from the source,
         so a campaign replays exactly; the edit's value is irrelevant to
         the engine's reuse-vs-resim decision, which depends only on the
         span's position — both branches are exercised across a
         campaign. -- *)
      let delta =
        Obs.span "fuzz.oracle.delta" @@ fun () ->
        match co_tr with
        | Done _ -> (
            let source = Lang.Pretty.program_to_string p in
            match Delta.Splice.int_literals source with
            | [] -> Skip "no int-literal edit candidates"
            | exception e ->
                Fail ("edit enumeration raised " ^ Printexc.to_string e)
            | lits -> (
                let span, v =
                  List.nth lits (Hashtbl.hash source mod List.length lits)
                in
                let text = string_of_int (v + 1) in
                let edited = Delta.Splice.apply_edit source span text in
                let attempt f =
                  match f () with v -> Ok v | exception e -> Error e
                in
                let exn_class = function
                  | Wwt.Interp.Runtime_error _ -> "runtime error"
                  | Wwt.Sched.Deadlock _ -> "deadlock"
                  | Memsys.Protocol.Invariant_violation _ ->
                      "protocol violation"
                  | Lang.Sema.Error _ -> "sema error"
                  | Lang.Parser.Error _ -> "parse error"
                  | e -> Printexc.to_string e
                in
                let cold =
                  attempt (fun () ->
                      let ep = Lang.Parser.parse edited in
                      ignore (Lang.Sema.check ep);
                      let tr = Wwt.Run.collect_trace ~machine ep in
                      Cachier.Annotate.annotate_with_trace ~machine
                        ~options:perf_options ep tr.Wwt.Interp.trace)
                in
                let incr_ =
                  attempt (fun () ->
                      let base =
                        Delta.Engine.base_of ~machine ~options:perf_options
                          ~source (Lang.Parser.parse source)
                      in
                      (Delta.Engine.annotate_delta ~machine
                         ~options:perf_options ~base ~source span text)
                        .Delta.Engine.base)
                in
                match (cold, incr_) with
                | Ok c, Ok { Delta.Engine.result = d; summary; _ } ->
                    if
                      not
                        (String.equal
                           (Cachier.Annotate.to_source c)
                           (Cachier.Annotate.to_source d))
                    then Fail "delta output differs from from-scratch"
                    else if
                      compare c.Cachier.Annotate.report
                        d.Cachier.Annotate.report
                      <> 0
                    then Fail "delta report differs from from-scratch"
                    else if
                      compare c.Cachier.Annotate.einfo
                        d.Cachier.Annotate.einfo
                      <> 0
                    then Fail "delta epoch info differs from from-scratch"
                    else if
                      not (String.equal (Cachier.Annotate.summary c) summary)
                    then Fail "delta summary differs from from-scratch"
                    else Pass
                | Error a, Error b ->
                    if String.equal (exn_class a) (exn_class b) then Pass
                    else
                      Fail
                        (Printf.sprintf
                           "paths reject differently: from-scratch %s, delta \
                            %s"
                           (exn_class a) (exn_class b))
                | Ok _, Error e ->
                    Fail
                      ("delta raised but from-scratch succeeded: "
                      ^ exn_class e)
                | Error e, Ok _ ->
                    Fail
                      ("from-scratch raised but delta succeeded: "
                      ^ exn_class e)))
        | r -> Skip ("trace collection: " ^ describe r)
      in
      { engines; semantics; idempotence; protocol; equations; races; delta }
