(* Golden annotate output: the five Figure 6 programs at 8 and 16 nodes,
   in Performance CICO and in Programmer CICO with prefetch, on the
   default 16 KB 4-way machine. Each digest covers the annotated source
   and the summary block (edit count plus the race / false-sharing
   report), so any change to placement, notes or the report shows here.
   The expected values were produced by the annotator before its
   per-epoch miss index existed; a speed-only change must keep them. *)

let perf = Cachier.Placement.default_options

let prog_pf =
  {
    Cachier.Placement.default_options with
    Cachier.Placement.mode = Cachier.Equations.Programmer;
    prefetch = true;
  }

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

let suite =
  [ Alcotest.test_case "suite x {8,16} x {perf, prog+pf} digests" `Slow test_golden ]
