(* annotate-cold: what cachier_cli does, in process, on texts the process
   has not seen — a Figure 6 program with its SEED redrawn per op, round
   robin over the five programs at 8 and 16 nodes on the 16 KB 4-way
   Dir1SW machine of perfbench/config.json. *)

open Util

let options = Cachier.Placement.default_options

type kind = {
  name : string;
  prog : string;
  machine : Wwt.Machine.t;
  before_seed : string;  (** source text up to the SEED literal *)
  after_seed : string;  (** source text after it *)
}

(* Split a suite source around the value of [const SEED = v;]. *)
let split_seed src =
  let key = "const SEED = " in
  let kl = String.length key in
  let rec find i =
    if String.sub src i kl = key then i + kl else find (i + 1)
  in
  let start = find 0 in
  let stop = String.index_from src start ';' in
  (String.sub src 0 start, String.sub src stop (String.length src - stop))

let kinds () =
  Array.of_list
    (List.concat_map
       (fun prog ->
         List.map
           (fun nodes ->
             let b = Benchmarks.Suite.find ~nodes prog in
             let before_seed, after_seed = split_seed b.Benchmarks.Suite.source in
             {
               name = Printf.sprintf "%s-%d" prog nodes;
               prog;
               machine = Config.machine ~nodes;
               before_seed;
               after_seed;
             })
           Config.annotate_nodes)
       Config.programs)

let text k seed = k.before_seed ^ string_of_int seed ^ k.after_seed

(* Per-op counts kept beside the digest, by index. *)
let c_records = 0
let c_epochs = 1
let c_edits = 2

(* The op, exactly as cachier_cli runs it: parse, check, trace run,
   annotate from the trace, print the program and the summary. *)
let cli_op (k, src) =
  let machine = k.machine in
  let program = Lang.Parser.parse src in
  ignore (Lang.Sema.check program);
  let outcome = Wwt.Run.collect_trace ~machine program in
  let r =
    Cachier.Annotate.annotate_with_trace ~machine ~options program
      outcome.Wwt.Interp.trace
  in
  (Cachier.Annotate.to_source r, Service.Oneshot.annotate_summary r, outcome, r)

let out_of (payload, summary, (outcome : Wwt.Interp.outcome), (r : Cachier.Annotate.result)) =
  {
    Batch.digest = digest_strings [ payload; summary ];
    accesses = Memsys.Stats.total_accesses outcome.Wwt.Interp.stats;
    counts =
      [|
        float_of_int (List.length outcome.Wwt.Interp.trace);
        float_of_int (Cachier.Epoch_info.n_epochs r.Cachier.Annotate.einfo);
        float_of_int r.Cachier.Annotate.n_edits;
      |];
  }

(* ---- the traced composition ---- *)

let stages =
  [|
    "lang.parse"; "lang.sema"; "wwt.trace_run"; "core.epoch_info";
    "core.placement"; "core.rewrite"; "lang.pretty"; "service.render";
  |]

(* Words allocated per stage of the current traced op. *)
let stage_alloc = Array.make (Array.length stages) 0.

let stage i f =
  Obs.span ("bench." ^ stages.(i)) (fun () ->
      let r, words = with_alloc f in
      stage_alloc.(i) <- words;
      r)

(* The calls annotate_program makes, in its order, each under a span;
   byte-identical to [cli_op] (checked op by op). *)
let traced_op (k, src) =
  let machine = k.machine in
  let nodes = machine.Wwt.Machine.nodes
  and block_size = machine.Wwt.Machine.block_size in
  let payload, summary, outcome, r, alloc =
    Obs.span "bench.op" (fun () ->
        let program = stage 0 (fun () -> Lang.Parser.parse src) in
        let stripped, layout =
          stage 1 (fun () ->
              ignore (Lang.Sema.check program);
              let stripped = Lang.Ast.strip_annotations program in
              let info = Lang.Sema.check stripped in
              ( stripped,
                Lang.Label.layout ~block_size
                  ~elem_size:machine.Wwt.Machine.elem_size info ))
        in
        let outcome = stage 2 (fun () -> Wwt.Run.collect_trace ~machine program) in
        let einfo =
          stage 3 (fun () ->
              Cachier.Epoch_info.build ~nodes ~block_size outcome.Wwt.Interp.trace)
        in
        let plan =
          stage 4 (fun () ->
              Cachier.Placement.plan_traces ~program:stripped ~layout ~machine
                ~einfos:[ einfo ] ~options)
        in
        let r =
          stage 5 (fun () ->
              let annotated =
                Cachier.Placement.assign_fresh_sids
                  (Cachier.Placement.apply_edits stripped plan.Cachier.Placement.edits)
              in
              {
                Cachier.Annotate.annotated;
                report = Cachier.Report.build ~layout einfo;
                notes = plan.Cachier.Placement.notes;
                einfo;
                n_edits = List.length plan.Cachier.Placement.edits;
              })
        in
        let payload =
          stage 6 (fun () ->
              let note sid = List.assoc_opt sid r.Cachier.Annotate.notes in
              Lang.Pretty.program_to_string ~note r.Cachier.Annotate.annotated)
        in
        let summary = stage 7 (fun () -> Service.Oneshot.annotate_summary r) in
        (payload, summary, outcome, r, Array.copy stage_alloc))
  in
  let o = out_of (payload, summary, outcome, r) in
  { o with Batch.counts = Array.append o.Batch.counts alloc }

(* ---- verification ---- *)

(* An independent derivation: the tree-walk interpreter's trace, the
   library's annotate_with_trace, and a re-annotation that must be a
   fixpoint. *)
let verify (k, src) digest =
  let machine = k.machine in
  let program = Lang.Parser.parse src in
  let tw = Wwt.Run.collect_trace ~engine:Wwt.Run.Tree_walk ~machine program in
  let r =
    Cachier.Annotate.annotate_with_trace ~machine ~options program
      tw.Wwt.Interp.trace
  in
  let same =
    digest_strings
      [ Cachier.Annotate.to_source r; Service.Oneshot.annotate_summary r ]
    = digest
  in
  let again =
    Cachier.Annotate.annotate_with_trace ~machine ~options
      r.Cachier.Annotate.annotated tw.Wwt.Interp.trace
  in
  same
  && Lang.Pretty.program_to_string r.Cachier.Annotate.annotated
     = Lang.Pretty.program_to_string again.Cachier.Annotate.annotated

(* ---- the workload ---- *)

let max_ops = 100_000

(* Traced runs replay this many rounds over the kinds. *)
let traced_rounds ~seconds = max 1 (int_of_float seconds / 4)

let spec ~kinds ~seeds =
  let kind i = kinds.(i mod Array.length kinds) in
  let input i = (kind i, text (kind i) seeds.(i)) in
  {
    Batch.kinds = Array.map (fun k -> k.name) kinds;
    edit_kind =
      (fun k ->
        kinds.(k).machine.Wwt.Machine.nodes = Config.service_nodes
        && List.mem kinds.(k).prog Config.edit_bases);
    label = (fun i -> Printf.sprintf "%s:%d" (kind i).name seeds.(i));
    prepare = input;
    run = cli_op;
    finish = out_of;
    traced = (fun i -> traced_op (input i));
    verify = (fun i d -> verify (input i) d);
  }

(* Set-up: inputs from the seed, then one untimed op per kind. *)
let setup ~seed () =
  let kinds = kinds () in
  let st = rng seed in
  let seeds = Array.init max_ops (fun _ -> draw_seed st) in
  let warm = rng 0 in
  Array.iter
    (fun k ->
      setup_step ();
      ignore (cli_op (k, text k (draw_seed warm))))
    kinds;
  spec ~kinds ~seeds

let layer_metrics (spec : _ Batch.spec) ~untraced ~outs ~traced =
  let count i = Array.map (fun o -> o.Batch.counts.(i)) outs in
  let ratio name unit_ stage ~scale denom =
    Batch.stage_metric traced name unit_ (( = ) stage) (fun ns ->
        Batch.stage_geomean spec
          (Array.mapi (fun i v -> v *. scale /. Float.max 1. denom.(i)) ns))
  in
  let ms_metric name stage =
    ratio name "ms" stage ~scale:1e-6 (Array.make (Array.length outs) 1.)
  in
  let records = count c_records in
  let accesses = Array.map (fun o -> float_of_int o.Batch.accesses) outs in
  [
    ms_metric "lang.parse_ms" "lang.parse";
    ms_metric "lang.sema_ms" "lang.sema";
    ms_metric "lang.pretty_ms" "lang.pretty";
    ms_metric "wwt.trace_run_ms" "wwt.trace_run";
    ratio "wwt.trace_run_ns_per_access" "ns" "wwt.trace_run" ~scale:1. accesses;
    ms_metric "core.epoch_info_ms" "core.epoch_info";
    ratio "core.epoch_info_ns_per_record" "ns" "core.epoch_info" ~scale:1. records;
    ms_metric "core.placement_ms" "core.placement";
    ratio "core.placement_us_per_record" "us" "core.placement" ~scale:1e-3 records;
    metric "core.placement_edits" "count" (Batch.mean (count c_edits));
    ms_metric "core.rewrite_ms" "core.rewrite";
    ms_metric "service.render_ms" "service.render";
    metric "trace.records" "count" (Batch.mean records);
    metric "trace.epochs" "count" (Batch.mean (count c_epochs));
  ]
  @ Array.to_list
      (Array.mapi
         (fun i s ->
           metric (s ^ "_alloc_kw") "kw" (Batch.mean (count (3 + i)) /. 1000.))
         stages)
  @ Batch.trace_quality spec ~untraced (fst traced)
