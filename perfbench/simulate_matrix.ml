(* simulate-matrix: one Wwt.Run.measure cell per op on the 8-node machine
   of perfbench/config.json and the compiled engine, over the repo's two
   headline artefacts —
   Figure 6 ({plain, hand, cachier, cachier+prefetch} x 5 programs under
   dir1sw) and the protocol x annotation matrix ({plain, cachier} x 5
   programs under sisd and commute): 40 kinds, eval seeds redrawn per
   pass. The annotated variants are built in set-up. *)

open Util

type variant = Plain | Hand | Cachier | Cachier_pf

let variant_name = function
  | Plain -> "plain"
  | Hand -> "hand"
  | Cachier -> "cachier"
  | Cachier_pf -> "cachier_pf"

let protocols = Memsys.Protocol_id.[ Dir1sw; Sisd; Commute ]

let variants_of = function
  | Memsys.Protocol_id.Dir1sw -> [ Plain; Hand; Cachier; Cachier_pf ]
  | _ -> [ Plain; Cachier ]

type kind = {
  name : string;
  proto : Memsys.Protocol_id.t;
  prog_index : int;
  prog : string;
  variant : variant;
  program : Lang.Ast.program;  (** the variant, built in set-up *)
  annotations : bool;
  prefetch : bool;
}

let nprogs = List.length Config.programs
let machine = Config.machine ~nodes:Config.matrix_nodes

(* Annotations always come from the Dir1SW reference trace, as in the
   bench harness's proto-matrix. *)
let build_kinds () =
  let annotate options p =
    (Cachier.Annotate.annotate_program ~machine ~options p)
      .Cachier.Annotate.annotated
  in
  let variants =
    List.map
      (fun name ->
        setup_step ();
        let b = Benchmarks.Suite.find ~nodes:machine.Wwt.Machine.nodes name in
        let plain = Lang.Parser.parse b.Benchmarks.Suite.source in
        let opts = Cachier.Placement.default_options in
        ( name,
          [
            (Plain, plain);
            (Hand, Lang.Parser.parse b.Benchmarks.Suite.hand_source);
            (Cachier, annotate opts plain);
            ( Cachier_pf,
              annotate { opts with Cachier.Placement.prefetch = true } plain );
          ] ))
      Config.programs
  in
  Array.of_list
    (List.concat_map
       (fun proto ->
         List.concat
           (List.mapi
              (fun prog_index (prog, vs) ->
                List.map
                  (fun v ->
                    {
                      name =
                        Printf.sprintf "%s/%s/%s"
                          (Memsys.Protocol_id.to_string proto)
                          prog (variant_name v);
                      proto;
                      variant = v;
                      prog_index;
                      prog;
                      program = List.assoc v vs;
                      annotations = v <> Plain;
                      prefetch = v = Cachier_pf;
                    })
                  (variants_of proto))
              variants))
       protocols)

let machine_of k = { machine with Wwt.Machine.protocol = k.proto }

let measure ?engine (k, program) =
  Wwt.Run.measure ?engine ~machine:(machine_of k) ~annotations:k.annotations
    ~prefetch:k.prefetch program

(* Counts kept per cell, by index. *)
let c_misses = 0
let c_messages = 1
let c_write_faults = 2
let c_sw_traps = 3
let c_cycles = 4
let c_alloc = 5

(* Time, statistics and output, marshalled without sharing so equal
   outcomes digest equally whichever engine produced them. *)
let outcome_digest (o : Wwt.Interp.outcome) =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          (o.Wwt.Interp.time, o.Wwt.Interp.stats, o.Wwt.Interp.output)
          [ Marshal.No_sharing ]))

let out_of ?(alloc = 0.) (o : Wwt.Interp.outcome) =
  let s = o.Wwt.Interp.stats in
  {
    Batch.digest = outcome_digest o;
    accesses = Memsys.Stats.total_accesses s;
    counts =
      [|
        float_of_int (Memsys.Stats.total_misses s);
        float_of_int s.Memsys.Stats.messages;
        float_of_int s.Memsys.Stats.write_faults;
        float_of_int s.Memsys.Stats.sw_traps;
        float_of_int o.Wwt.Interp.time;
        alloc;
      |];
  }

let max_passes = 5_000
let traced_rounds ~seconds = max 1 (int_of_float seconds / 8)

let spec ~kinds ~seeds =
  let nk = Array.length kinds in
  let seed i = seeds.(i / nk).(kinds.(i mod nk).prog_index) in
  let reseeded i =
    let k = kinds.(i mod nk) in
    (k, Benchmarks.Suite.reseed k.program (seed i))
  in
  {
    Batch.kinds = Array.map (fun k -> k.name) kinds;
    edit_kind = (fun k -> List.mem kinds.(k).prog Config.edit_bases);
    label = (fun i -> Printf.sprintf "%s:%d" kinds.(i mod nk).name (seed i));
    prepare = reseeded;
    run = (fun input -> measure input);
    finish = (fun o -> out_of o);
    traced =
      (fun i ->
        let ((k, _) as input) = reseeded i in
        let o, alloc =
          Obs.span "bench.op" (fun () ->
              Obs.span
                (Printf.sprintf "bench.cell.%s.%s"
                   (Memsys.Protocol_id.to_string k.proto)
                   (variant_name k.variant))
                (fun () -> with_alloc (fun () -> measure input)))
        in
        out_of ~alloc o);
    verify =
      (fun i digest ->
        outcome_digest (measure ~engine:Wwt.Run.Tree_walk (reseeded i)) = digest);
  }

(* Set-up: the annotated variants, a seed per program per pass, and one
   untimed cell per kind. *)
let setup ~seed () =
  let kinds = build_kinds () in
  let st = rng seed in
  let seeds =
    Array.init max_passes (fun _ -> Array.init nprogs (fun _ -> draw_seed st))
  in
  let warm = rng 0 in
  let warm_seeds = Array.init nprogs (fun _ -> draw_seed warm) in
  Array.iter
    (fun k ->
      setup_step ();
      ignore
        (measure (k, Benchmarks.Suite.reseed k.program warm_seeds.(k.prog_index))))
    kinds;
  (kinds, spec ~kinds ~seeds)

let layer_metrics kinds (spec : _ Batch.spec) ~untraced ~outs ~traced =
  let nk = Array.length kinds in
  let passes = float_of_int (Array.length outs / nk) in
  let per_proto proto =
    let name = Memsys.Protocol_id.to_string proto in
    let mine i = kinds.(i mod nk).proto = proto in
    let total f =
      let s = ref 0. in
      Array.iteri (fun i o -> if mine i then s := !s +. f o) outs;
      !s
    in
    let count c = total (fun o -> o.Batch.counts.(c)) /. passes in
    let accesses = total (fun o -> float_of_int o.Batch.accesses) in
    let cells = fun _ -> true in
    [
      Batch.stage_metric traced ("wwt.measure_ms." ^ name) "ms" cells (fun ns ->
          kind_geomean ~keep:(fun k -> kinds.(k).proto = proto) ~stat:median
            (by_kind ~kinds:nk
               (Array.to_list (Array.mapi (fun i d -> (i mod nk, d /. 1e6)) ns))));
      Batch.stage_metric traced ("wwt.measure_ns_per_access." ^ name) "ns" cells
        (fun ns ->
          let s = ref 0. in
          Array.iteri (fun i d -> if mine i then s := !s +. d) ns;
          !s /. accesses);
      metric ("memsys.accesses." ^ name) "count" (accesses /. passes);
      metric ("memsys.misses." ^ name) "count" (count c_misses);
      metric ("memsys.messages." ^ name) "count" (count c_messages);
      metric ("memsys.write_faults." ^ name) "count" (count c_write_faults);
      metric ("memsys.sw_traps." ^ name) "count" (count c_sw_traps);
      metric ("memsys.cycles." ^ name) "count" (count c_cycles);
    ]
  in
  List.concat_map per_proto protocols
  @ [
      metric "wwt.measure_alloc_kw" "kw"
        (Batch.mean (Array.map (fun o -> o.Batch.counts.(c_alloc)) outs) /. 1000.);
    ]
  @ Batch.trace_quality spec ~untraced (fst traced)
