(* Golden annotate output: the five Figure 6 programs at 8 and 16 nodes,
   in Performance CICO and in Programmer CICO with prefetch, on the
   default 16 KB 4-way machine. Each digest covers the annotated source
   and the summary block (edit count plus the race / false-sharing
   report), so any change to placement, notes or the report shows here.
   The expected values were produced by the annotator before its
   per-epoch miss index existed; a speed-only change must keep them. *)

let perf = Cachier.Placement.default_options

let prog_pf =
  { Cachier.Placement.mode = Cachier.Equations.Programmer; prefetch = true }

let golden =
  [
    ("matmul", 8, "perf", "2a8a1c7dc32f9d40d22cd9a17300061e");
    ("matmul", 8, "prog+pf", "e95acd2970bb78f642a80748debd556d");
    ("barnes", 8, "perf", "fea89b590a3e8ed5708e59c46f7c0cbc");
    ("barnes", 8, "prog+pf", "cc031b3d3efe9ac682034ce3c41df8e2");
    ("tomcatv", 8, "perf", "948db4c66c325c27a714a0f18db6f6d4");
    ("tomcatv", 8, "prog+pf", "2da30d02f259a6467e5050c688556ac9");
    ("ocean", 8, "perf", "794a4abe5fd93b5a833895ee87d765de");
    ("ocean", 8, "prog+pf", "6a8fb76f19c7c087e4c6590897a19994");
    ("mp3d", 8, "perf", "15153af7ceb5aae9314ccb18546f133e");
    ("mp3d", 8, "prog+pf", "ba98c42dfd1df396044c61f87222dd1c");
    ("matmul", 16, "perf", "27c793a88c23286161c8f19561c7ac13");
    ("matmul", 16, "prog+pf", "e47ec30ae72eefc8bce5b9967d3ed220");
    ("barnes", 16, "perf", "17216bb888ad68b534b171cff0841b38");
    ("barnes", 16, "prog+pf", "a9f7e65801f73f3d45c21607beab0dbd");
    ("tomcatv", 16, "perf", "a3cf54592e4ed5d0fac98be8d137d437");
    ("tomcatv", 16, "prog+pf", "c14f3d54c4a06b34093a4e05a29a3686");
    ("ocean", 16, "perf", "5ae40ab1a5884ee41ecab74b2e122b66");
    ("ocean", 16, "prog+pf", "df4a37d72fa059db9525a1630c1ea8bc");
    ("mp3d", 16, "perf", "840a9df50e394940d336807d526d2e94");
    ("mp3d", 16, "prog+pf", "c66968dd6877d7d764fa2261d7b936de");
  ]

let digest_of ~name ~nodes ~options =
  let b = Benchmarks.Suite.find ~nodes name in
  let machine = { Wwt.Machine.default with Wwt.Machine.nodes } in
  let r =
    Cachier.Annotate.annotate_source ~machine ~options b.Benchmarks.Suite.source
  in
  Digest.to_hex
    (Digest.string
       (Cachier.Annotate.to_source r ^ Service.Oneshot.annotate_summary r))

let test_golden () =
  List.iter
    (fun (name, nodes, mode, want) ->
      let options = if mode = "perf" then perf else prog_pf in
      Alcotest.(check string)
        (Printf.sprintf "%s-%d %s" name nodes mode)
        want
        (digest_of ~name ~nodes ~options))
    golden

(* More annotate digests, on inputs the suite digests above do not
   cover, each the smallest found that shows one placement rule:
   - the race path's preference for read-miss pcs in a check-out
     (partial_lock.sm and rw_unsync.sm in Programmer mode);
   - a check-in whose span does not resolve still proceeds (barnes on a
     4 KB 2-way cache);
   - applying a placement re-checks the budget earlier subscripts left
     (ocean on a 4 KB 2-way cache in Programmer mode);
   - loops enclosing both barriers keep their variables symbolic, the
     paper's parametric ranges (lu). *)

let prog = { prog_pf with Cachier.Placement.prefetch = false }

let small_cache nodes =
  { Wwt.Machine.default with Wwt.Machine.nodes; cache_bytes = 4096; assoc = 2 }

let default_machine nodes = { Wwt.Machine.default with Wwt.Machine.nodes }

let suite_source name nodes =
  (Benchmarks.Suite.find ~nodes name).Benchmarks.Suite.source

let rule_golden =
  [
    ( "partial_lock.sm-2 prog",
      (fun () -> T_obs.read_file "corpus_races/partial_lock.sm"),
      default_machine 2, prog, "900fbff3b8ef3f4cfa60e34599c9810c" );
    ( "rw_unsync.sm-2 prog",
      (fun () -> T_obs.read_file "corpus_races/rw_unsync.sm"),
      default_machine 2, prog, "eba21cb8c9f80dba7d75b4fad04af6fd" );
    ( "barnes-4 4k2 perf", (fun () -> suite_source "barnes" 4), small_cache 4,
      perf, "e706f39126b8d8aaa0a0931d56e74704" );
    ( "ocean-4 4k2 prog", (fun () -> suite_source "ocean" 4), small_cache 4,
      prog, "70340cb1a91cb49b4e0f3d15baefa97f" );
    ( "lu-4 perf", (fun () -> Benchmarks.Lu.source ~nodes:4 ()),
      default_machine 4, perf, "578c65ca854301ec6416419b41701acf" );
    ( "lu-4 prog", (fun () -> Benchmarks.Lu.source ~nodes:4 ()),
      default_machine 4, prog, "005bb9f505f4538d264f0dccff2e2410" );
  ]

let test_rule_golden () =
  List.iter
    (fun (label, source, machine, options, want) ->
      let r = Cachier.Annotate.annotate_source ~machine ~options (source ()) in
      Alcotest.(check string) label want
        (Digest.to_hex
           (Digest.string
              (Cachier.Annotate.to_source r
              ^ Service.Oneshot.annotate_summary r))))
    rule_golden

(* Golden perf-mode outcomes: the 40 cells of the protocol x annotation
   matrix on the default 8-node machine and each program's eval seed —
   Figure 6's {plain, hand, cachier, cachier+pf} under dir1sw, and
   {plain, cachier} under sisd and commute, with annotations placed from
   the Dir1SW trace. Each digest covers the simulated time and every
   Stats counter, so a change to any backend's transitions, costs or
   counters shows here; the engine oracle cannot see one, because every
   engine drives the same Memsys.Protocol. *)

let measure_golden =
  [
    ("dir1sw", "matmul", "plain", "f9cdfc823bd24f9057e2736ae736976a");
    ("dir1sw", "matmul", "hand", "476cedb98fcc778907359b6c963787c1");
    ("dir1sw", "matmul", "cachier", "fb3390694898f3fe90817f6a72867ad6");
    ("dir1sw", "matmul", "cachier+pf", "8bf4d7b6b984b6742d4e9f8d1e7ddef7");
    ("sisd", "matmul", "plain", "7f42fe0dd8302e10946d324cc24bc524");
    ("sisd", "matmul", "cachier", "dceb5269c14f9e0e3151b6a6e79eddea");
    ("commute", "matmul", "plain", "d41ccbee8ee3b2966128f1dae0824bec");
    ("commute", "matmul", "cachier", "0caf8729988574d2889b2fb0c983c963");
    ("dir1sw", "barnes", "plain", "2ff604eb3b493535d9314af327a30cc7");
    ("dir1sw", "barnes", "hand", "6472d492bda3d35f4df8d4fd140c0c15");
    ("dir1sw", "barnes", "cachier", "4e69fcc7216c794b98c26a5fda9e84a8");
    ("dir1sw", "barnes", "cachier+pf", "9253ac7af5538722fd84f449806ee652");
    ("sisd", "barnes", "plain", "7e7b68a416d3a4419a3f59e6d9984657");
    ("sisd", "barnes", "cachier", "9d879edcef5284fd26509ccf5f9054d6");
    ("commute", "barnes", "plain", "131f8579ce058e0cc0891c58338e0fad");
    ("commute", "barnes", "cachier", "c065d7cb9530e7832d6d1c93791c41e9");
    ("dir1sw", "tomcatv", "plain", "4e364079cd509640076970ae88925661");
    ("dir1sw", "tomcatv", "hand", "7020ba3772d6bb61aec57be8401f60fb");
    ("dir1sw", "tomcatv", "cachier", "fd3558baf7bf0306da8a06e2a764a6ba");
    ("dir1sw", "tomcatv", "cachier+pf", "23e6d01643319dfe8a8382aedc7051e3");
    ("sisd", "tomcatv", "plain", "451b37bed637a3b11cafd1a599f88e0c");
    ("sisd", "tomcatv", "cachier", "1b0c0ce85626fd312fea8728d9bd61d7");
    ("commute", "tomcatv", "plain", "4e364079cd509640076970ae88925661");
    ("commute", "tomcatv", "cachier", "fd3558baf7bf0306da8a06e2a764a6ba");
    ("dir1sw", "ocean", "plain", "11f815efbd6910f6d6b6e2dba270fe13");
    ("dir1sw", "ocean", "hand", "5f43dc95c6c7db6c995cc7e267e61c09");
    ("dir1sw", "ocean", "cachier", "06d9a7cef017496113610acce02bec1e");
    ("dir1sw", "ocean", "cachier+pf", "6174316b41e7655f7a0b4b786fb7b30e");
    ("sisd", "ocean", "plain", "4372858126a36358ecd1a32856948f85");
    ("sisd", "ocean", "cachier", "6de22baa54eadcae592f40a4a6e02da7");
    ("commute", "ocean", "plain", "1f84b4a9571d9f81f9d2724b493e7760");
    ("commute", "ocean", "cachier", "797b78fdef4179bcf2be41564312f6d3");
    ("dir1sw", "mp3d", "plain", "4bf8bcab275bc83a2c465f2a3240f1f9");
    ("dir1sw", "mp3d", "hand", "51bb008554268b2dd34ce9566d872a89");
    ("dir1sw", "mp3d", "cachier", "4b0300f1f50cfb5fee34b349cae137ab");
    ("dir1sw", "mp3d", "cachier+pf", "186f8c4f6c7c0416ae3d6a68477c8a97");
    ("sisd", "mp3d", "plain", "37db1e33eebfece9cfca1a8df79fbb7d");
    ("sisd", "mp3d", "cachier", "21c05260cf4c30c9b5ea9b8e2c4a63e2");
    ("commute", "mp3d", "plain", "dabafb3f221198b2557ac28d5f1a4b56");
    ("commute", "mp3d", "cachier", "003a15a03f469a2a37a45b2295a16aab");
  ]

let machine8 = { Wwt.Machine.default with Wwt.Machine.nodes = 8 }

let variants_of = function
  | Memsys.Protocol_id.Dir1sw -> [ "plain"; "hand"; "cachier"; "cachier+pf" ]
  | Memsys.Protocol_id.Sisd | Memsys.Protocol_id.Commute ->
      [ "plain"; "cachier" ]

let measure_digests () =
  List.concat_map
    (fun name ->
      let b = Benchmarks.Suite.find ~nodes:8 name in
      let plain = Lang.Parser.parse b.Benchmarks.Suite.source in
      let annotate options =
        (Cachier.Annotate.annotate_program ~machine:machine8 ~options plain)
          .Cachier.Annotate.annotated
      in
      let program = function
        | "plain" -> plain
        | "hand" -> Lang.Parser.parse b.Benchmarks.Suite.hand_source
        | "cachier" -> annotate perf
        | _ -> annotate { perf with Cachier.Placement.prefetch = true }
      in
      List.concat_map
        (fun proto ->
          List.map
            (fun variant ->
              let o =
                Wwt.Run.measure
                  ~machine:{ machine8 with Wwt.Machine.protocol = proto }
                  ~annotations:(variant <> "plain")
                  ~prefetch:(variant = "cachier+pf")
                  (Benchmarks.Suite.reseed (program variant)
                     b.Benchmarks.Suite.eval_seed)
              in
              ( Memsys.Protocol_id.to_string proto,
                name,
                variant,
                Digest.to_hex
                  (Digest.string
                     (Marshal.to_string
                        (o.Wwt.Interp.time, o.Wwt.Interp.stats)
                        [ Marshal.No_sharing ])) ))
            (variants_of proto))
        Memsys.Protocol_id.all)
    Benchmarks.Suite.names

let test_measure_golden () =
  let got = measure_digests () in
  Alcotest.(check int) "cells" 40 (List.length got);
  List.iter
    (fun (proto, name, variant, want) ->
      let _, _, _, d =
        List.find (fun (p, n, v, _) -> p = proto && n = name && v = variant) got
      in
      Alcotest.(check string)
        (Printf.sprintf "%s/%s/%s" proto name variant)
        want d)
    measure_golden

(* Golden trace-mode outcomes: the five Figure 6 programs at 8 and 16
   nodes through [Run.collect_trace], each digest covering the simulated
   time, every Stats counter, the trace records and the printed output.
   [Sched] and [Lang.Value] serve both engines, so the engine oracle
   cannot see a change to either; these digests, the 40 perf cells above
   and the paper-scale goldens pin the schedule itself. *)

let trace_golden =
  [
    ("matmul", 8, "93fddbdc05da8ca56338de51bd6db95e");
    ("barnes", 8, "f11eeed7165234e00fdc45262100458d");
    ("tomcatv", 8, "7364404ac2ee2180f8f6b49a8b25800c");
    ("ocean", 8, "f41c79fde385f9f8a1800fe72dc4dd1a");
    ("mp3d", 8, "b2e3a7f1e88a2f05094c7d559fc47b7c");
    ("matmul", 16, "62b3e2514922ee40b311fe22090ecd46");
    ("barnes", 16, "03758035d358e0ce41c88ac3cb660a60");
    ("tomcatv", 16, "4a201107f09aee7144ac78bb63ae0150");
    ("ocean", 16, "750b0c0938417b8a1dd32edafa47b6a5");
    ("mp3d", 16, "a19343638c6ab3530e456286afc15139");
  ]

let outcome_digest (o : Wwt.Interp.outcome) =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          ( o.Wwt.Interp.time,
            o.Wwt.Interp.stats,
            o.Wwt.Interp.trace,
            o.Wwt.Interp.output )
          [ Marshal.No_sharing ]))

let trace_digest ~name ~nodes =
  let b = Benchmarks.Suite.find ~nodes name in
  let machine = { Wwt.Machine.default with Wwt.Machine.nodes } in
  outcome_digest
    (Wwt.Run.collect_trace ~machine
       (Lang.Parser.parse b.Benchmarks.Suite.source))

let test_trace_golden () =
  List.iter
    (fun (name, nodes, want) ->
      Alcotest.(check string)
        (Printf.sprintf "%s-%d trace" name nodes)
        want (trace_digest ~name ~nodes))
    trace_golden

(* Golden race payloads: [Oneshot.races_report] (the bytes [simulate
   --races], [trace_stats --races] and the daemon's [races] op serve) for
   the five Figure 6 programs at 8 and 16 nodes and for every labelled
   program under test/corpus_races/ at 4 nodes. t_races holds
   [Races.detect] and [Races.naive] to equal reports; these digests pin
   the bytes every surface serves. *)

let races_golden =
  [
    ("matmul", 8, "4598d8f37b6b832af96c7166149c4592");
    ("barnes", 8, "4b6198dd8bde403fb8787206c2e02b67");
    ("tomcatv", 8, "009175b48211c7c3fd5792371121d62b");
    ("ocean", 8, "b4ced79c284e7b4c77cf9af1450d8994");
    ("mp3d", 8, "787d07a9f34c8161fe1a438aa5301145");
    ("matmul", 16, "6af550fca62b88c40204e03683ab8a33");
    ("barnes", 16, "cea95da008b5880c1b29cf576e4dde93");
    ("tomcatv", 16, "aaccd765114d2772e079c951e5dc7153");
    ("ocean", 16, "57c613b1b0b6564cb1bb2fc0c8968a48");
    ("mp3d", 16, "8e03ffa9636761790086f53821baa854");
  ]

let races_corpus_golden =
  [
    ("barrier_groups.sm", "ccc6adce0dab541838be023fe093df1b");
    ("fs_not_race.sm", "147b4f08e944646131d1fe543eb3eb87");
    ("late_race.sm", "c1dadab9f33a4ff496acd8707accb978");
    ("lock_disjoint.sm", "803d5cf5bb32ed57c7539f3ac14d9444");
    ("lock_protected.sm", "75bd35595fbf278d3e760d967d695e5a");
    ("mp3d_scatter.sm", "142b438eae91c3fc89c70e596d2157c6");
    ("nested_lock.sm", "75bd35595fbf278d3e760d967d695e5a");
    ("own_chunk.sm", "dd124930342ad6fa09e26cf1dc7c40e7");
    ("partial_lock.sm", "9df7a3c8ea8281ea5cd40c77559431e9");
    ("read_only.sm", "dd124930342ad6fa09e26cf1dc7c40e7");
    ("rw_across_epochs.sm", "ee1c09c7a782420ac920a9ac7182345a");
    ("rw_unsync.sm", "0bdde168a785c8da6e8de1befaed31d4");
    ("single_node.sm", "b52266038fe38cb24125ee42c02ab4b5");
    ("ww_unsync.sm", "f6136615dccd2c9378b4b53f8b9c5102");
  ]

let races_digest ~nodes program =
  let machine = { Wwt.Machine.default with Wwt.Machine.nodes } in
  Digest.to_hex
    (Digest.string
       (Service.Oneshot.races_report ~nodes
          (Wwt.Run.collect_trace ~machine program).Wwt.Interp.trace))

let test_races_golden () =
  List.iter
    (fun (name, nodes, want) ->
      let b = Benchmarks.Suite.find ~nodes name in
      let program = Lang.Parser.parse b.Benchmarks.Suite.source in
      Alcotest.(check string)
        (Printf.sprintf "%s-%d races" name nodes)
        want
        (races_digest ~nodes program))
    races_golden

let test_races_corpus_golden () =
  List.iter
    (fun (file, want) ->
      let ic = open_in_bin (Filename.concat "corpus_races" file) in
      let source =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      Alcotest.(check string) (file ^ " races") want
        (races_digest ~nodes:4 (Lang.Parser.parse source)))
    races_corpus_golden

let suite =
  [
    Alcotest.test_case "suite x {8,16} x {perf, prog+pf} digests" `Slow test_golden;
    Alcotest.test_case "perf-mode matrix: 40 cells x (time, Stats) digests"
      `Slow test_measure_golden;
    Alcotest.test_case "trace mode: suite x {8,16} x outcome digests" `Slow
      test_trace_golden;
    Alcotest.test_case "races payloads: suite x {8,16} digests" `Slow
      test_races_golden;
    Alcotest.test_case "races payloads: corpus_races at 4 nodes digests"
      `Quick test_races_corpus_golden;
    Alcotest.test_case "annotate digests: placement-rule inputs" `Quick
      test_rule_golden;
  ]
