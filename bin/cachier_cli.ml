(* cachier — annotate a shared-memory program with CICO annotations.

   Reads a mini-language source file (or a named built-in benchmark), runs
   it once on the simulated Dir1SW machine to collect its trace, inserts
   CICO annotations, and prints the annotated program together with the
   data-race / false-sharing report. *)

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_source input nodes =
  match input with
  | `File path -> read_file path
  | `Bench name -> (Benchmarks.Suite.find ~nodes name).Benchmarks.Suite.source

(* Annotate via the incremental engine: build the base file's base once,
   diff the two sources into a span edit, and serve it against that
   base. Output is byte-identical to a from-scratch run on the edited
   file (the delta-smoke CI step compares the two). *)
let run_delta ~machine ~options ~base_path src =
  let base_src = read_file base_path in
  let base =
    Delta.Engine.base_of ~machine ~options ~source:base_src
      (Lang.Parser.parse base_src)
  in
  let span, text =
    match Delta.Splice.diff_span base_src src with
    | Some (span, text) -> (span, text)
    | None -> ({ Delta.Splice.start = 0; len = 0 }, "")
  in
  let outcome =
    Delta.Engine.annotate_delta ~machine ~options ~base
      (Delta.Engine.edit ~source:base_src span text)
  in
  let base = outcome.Delta.Engine.base in
  print_string (Cachier.Annotate.to_source base.Delta.Engine.result);
  prerr_string base.Delta.Engine.summary;
  Fmt.epr "delta: %s@."
    (Delta.Engine.reuse_to_string outcome.Delta.Engine.reuse);
  0

let annotate input machine mode prefetch trace_out show_trace_stats measure
    explain train_seeds delta_from =
  let nodes = machine.Wwt.Machine.nodes in
  let src = load_source input nodes in
  let program = Lang.Parser.parse src in
  ignore (Lang.Sema.check program);
  let options =
    {
      Cachier.Placement.mode =
        (match mode with
        | `Performance -> Cachier.Equations.Performance
        | `Programmer -> Cachier.Equations.Programmer);
      prefetch;
    }
  in
  match delta_from with
  | Some base_path -> run_delta ~machine ~options ~base_path src
  | None ->
  let trace_outcome = Wwt.Run.collect_trace ~machine program in
  (match trace_out with
  | Some path ->
      Trace.Trace_file.save ~protocol:machine.Wwt.Machine.protocol path trace_outcome.Wwt.Interp.trace;
      Fmt.epr "trace written to %s@." path
  | None -> ());
  let result =
    match train_seeds with
    | [] ->
        Cachier.Annotate.annotate_with_trace ~machine ~options program
          trace_outcome.Wwt.Interp.trace
    | seeds ->
        Cachier.Annotate.annotate_training ~machine ~options
          ~seed_const:"SEED" ~seeds program
  in
  print_string (Cachier.Annotate.to_source result);
  prerr_string (Service.Oneshot.annotate_summary result);
  if show_trace_stats then
    Fmt.epr "--- trace-run statistics ---@.%a@." Memsys.Stats.pp
      trace_outcome.Wwt.Interp.stats;
  if explain then begin
    let layout = trace_outcome.Wwt.Interp.layout in
    let explanation =
      Cachier.Explain.build
        ~mode:options.Cachier.Placement.mode ~layout
        result.Cachier.Annotate.einfo
    in
    Fmt.epr "--- rationale ---@.%s@." (Cachier.Explain.to_string explanation)
  end;
  if measure then begin
    let base = Wwt.Run.measure ~machine ~annotations:false ~prefetch:false program in
    let ann =
      Wwt.Run.measure ~machine ~annotations:true ~prefetch
        result.Cachier.Annotate.annotated
    in
    Fmt.epr "--- measurement ---@.";
    Fmt.epr "unannotated: %d cycles@." base.Wwt.Interp.time;
    Fmt.epr "annotated:   %d cycles (%.1f%% of unannotated)@."
      ann.Wwt.Interp.time
      (100.0 *. float_of_int ann.Wwt.Interp.time /. float_of_int base.Wwt.Interp.time)
  end;
  0

(* A program's own parse or runtime error is a one-line diagnostic. *)
let run input machine mode prefetch trace_out show_trace_stats measure explain
    train_seeds delta_from (_obs : Obs.mode) =
  let file = match input with `File path -> path | `Bench name -> name in
  match
    Service.Cli.catch_program_error ~file (fun () ->
        annotate input machine mode prefetch trace_out show_trace_stats
          measure explain train_seeds delta_from)
  with
  | Ok code -> code
  | Error line ->
      prerr_endline ("cachier: " ^ line);
      1

open Cmdliner

let input =
  let file =
    Arg.(value & opt (some file) None & info [ "f"; "file" ] ~docv:"FILE"
           ~doc:"Source file to annotate.")
  in
  let bench =
    let names = List.map (fun n -> (n, n)) Benchmarks.Suite.names in
    Arg.(value & opt (some (enum names)) None & info [ "b"; "benchmark" ]
           ~docv:"NAME"
           ~doc:("Annotate a built-in benchmark: " ^ doc_alts_enum names ^ "."))
  in
  let combine file bench =
    match (file, bench) with
    | Some f, None -> `Ok (`File f)
    | None, Some b -> `Ok (`Bench b)
    | None, None -> `Error (true, "provide --file or --benchmark")
    | Some _, Some _ -> `Error (true, "--file and --benchmark are exclusive")
  in
  Term.(ret (const combine $ file $ bench))

let mode =
  Arg.(value & opt (enum [ ("performance", `Performance); ("programmer", `Programmer) ])
         `Performance
       & info [ "m"; "mode" ] ~docv:"MODE"
           ~doc:"Annotation flavour: $(b,performance) (memory-system directives) or $(b,programmer) (expose all communication).")

let prefetch =
  Arg.(value & flag & info [ "p"; "prefetch" ] ~doc:"Also insert prefetch annotations.")

let trace_out =
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE"
         ~doc:"Write the collected execution trace to $(docv).")

let stats =
  Arg.(value & flag & info [ "stats" ] ~doc:"Print trace-run memory-system statistics.")

let measure =
  Arg.(value & flag & info [ "measure" ]
         ~doc:"Also measure annotated vs unannotated execution time.")

let explain =
  Arg.(value & flag & info [ "explain" ]
         ~doc:"Print the per-epoch rationale for every annotation set.")

let train_seeds =
  Arg.(value & opt (list int) [] & info [ "train-seeds" ] ~docv:"SEEDS"
         ~doc:"Annotate from the union of traces collected with each of \
               these SEED values (the Section 4.5 training-set mode).")

let delta_from =
  Arg.(value & opt (some file) None & info [ "delta-from" ] ~docv:"BASE"
         ~doc:"Annotate incrementally: treat the input as an edit of \
               $(docv), run the full pipeline once for $(docv), and serve \
               the edit through the delta engine (trace-preserving edits \
               reuse the base placement plan). Output is byte-identical \
               to a from-scratch run; the reuse decision is reported on \
               stderr.")

let cmd =
  let doc = "automatically insert CICO annotations into shared-memory programs" in
  Cmd.v
    (Cmd.info "cachier" ~doc)
    Term.(const run $ input $ Service.Cli.machine_term $ mode $ prefetch
          $ trace_out $ stats $ measure $ explain $ train_seeds
          $ delta_from $ Service.Cli.obs_term)

let () = exit (Cmd.eval' cmd)
