let simulate_report (outcome : Wwt.Interp.outcome) =
  let buf = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  List.iter (fun line -> pr "%s\n" line) outcome.Wwt.Interp.output;
  pr "execution time: %d cycles\n" outcome.Wwt.Interp.time;
  pr "%s\n" (Fmt.str "%a" Memsys.Stats.pp outcome.Wwt.Interp.stats);
  Buffer.contents buf

let annotate_summary (result : Cachier.Annotate.result) =
  Fmt.str "@.%d annotation(s) inserted@." result.Cachier.Annotate.n_edits
  ^ Fmt.str "--- report ---@.%s@."
      (Cachier.Report.to_string result.Cachier.Annotate.report)

let trace_stats_report ~nodes records =
  let summary = Trace.Summary.analyze ~nodes ~labels:[] records in
  let tail =
    match Trace.Summary.hottest_region summary with
    | Some name -> Fmt.str "@.hottest region: %s@." name
    | None -> Fmt.str "@.trace contains no misses@."
  in
  Trace.Summary.to_string summary ^ "\n" ^ tail

let races_report ~nodes records =
  Races.render (Races.detect ~nodes (Trace.Buf.of_records records))

let race_report ~machine program records =
  Cachier.Report.to_string
    (Cachier.Annotate.report_with_trace ~machine program records)
  ^ "\n"

let parse_report program = Lang.Pretty.program_to_string program
