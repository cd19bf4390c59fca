(* simulate — run mini-language programs on the simulated Dir1SW machine
   and report execution time and memory-system statistics.

   Several FILE arguments run concurrently on separate domains (see
   --jobs / CACHIER_BENCH_JOBS); each simulation owns all its mutable
   state, and reports print in argument order regardless of the job
   count. *)

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse_checked path =
  let program = Lang.Parser.parse (read_file path) in
  ignore (Lang.Sema.check program);
  program

let render_file machine engine annotations prefetch trace_mode races
    trace_out print_memory delta_from ~many file =
  let buf = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  if many then pr "--- %s ---\n" file;
  let program = parse_checked file in
  (* --delta-from: when the delta prover certifies that the whole
     outcome (output, time, statistics, trace) is identical to the base
     program's, simulate the base instead — its artifacts may be warm —
     and report the proof; otherwise fall through to a full run. *)
  let program =
    match delta_from with
    | None -> program
    | Some (base_path, base) -> (
        match Delta.Engine.prove_simulate ~base ~edited:program with
        | Ok () ->
            Printf.eprintf
              "delta: %s proven outcome-identical to %s; simulating the \
               base\n"
              file base_path;
            base
        | Error why ->
            Printf.eprintf "delta: full simulation of %s (%s)\n" file why;
            program)
  in
  (* race detection is only sound on trace-mode executions (caches flush
     at barriers, so every node's first access per epoch is a recorded
     miss) — --races implies --trace *)
  let trace_mode = trace_mode || races in
  let outcome =
    if trace_mode then Wwt.Run.collect_trace ~engine ~machine program
    else Wwt.Run.measure ~engine ~machine ~annotations ~prefetch program
  in
  Buffer.add_string buf (Service.Oneshot.simulate_report outcome);
  if races then
    Buffer.add_string buf
      (Service.Oneshot.races_report ~nodes:machine.Wwt.Machine.nodes
         outcome.Wwt.Interp.trace);
  (match trace_out with
  | Some path ->
      (* with several inputs, write one trace per input *)
      let path =
        if many then
          Filename.concat (Filename.dirname path)
            (Filename.basename file ^ "." ^ Filename.basename path)
        else path
      in
      Trace.Trace_file.save ~protocol:machine.Wwt.Machine.protocol path outcome.Wwt.Interp.trace;
      pr "trace written to %s (%d records)\n" path
        (List.length outcome.Wwt.Interp.trace)
  | None -> ());
  if print_memory then begin
    pr "--- final shared memory ---\n";
    List.iter
      (fun (e : Lang.Label.entry) ->
        let elems = min e.Lang.Label.elems 16 in
        let values =
          List.init elems (fun i ->
              Lang.Value.to_string
                (Wwt.Interp.shared_value outcome e.Lang.Label.name i))
        in
        pr "%s[0..%d] = %s%s\n" e.Lang.Label.name (elems - 1)
          (String.concat " " values)
          (if e.Lang.Label.elems > elems then " ..." else ""))
      (Lang.Label.entries outcome.Wwt.Interp.layout)
  end;
  Buffer.contents buf

(* A program's own parse or runtime error is a one-line diagnostic. *)
let simulate_file machine engine annotations prefetch trace_mode races
    trace_out print_memory delta_from ~many file =
  Service.Cli.catch_program_error ~file (fun () ->
      render_file machine engine annotations prefetch trace_mode races
        trace_out print_memory delta_from ~many file)

let run files machine engine annotations prefetch trace_mode races trace_out
    print_memory delta_from jobs (_obs : Obs.mode) =
  (* refused at startup, as the bench harness does, even when --jobs
     makes it moot *)
  let env_jobs =
    try Wwt.Jobs.default_jobs ()
    with Invalid_argument _ ->
      Printf.eprintf "simulate: %s must be a positive integer (got %S)\n%!"
        Wwt.Jobs.env_var
        (Option.value ~default:"" (Sys.getenv_opt Wwt.Jobs.env_var));
      exit 2
  in
  (* parsed once for every input, so its own errors name it *)
  let delta_from =
    Option.map
      (fun path ->
        match
          Service.Cli.catch_program_error ~file:path (fun () ->
              parse_checked path)
        with
        | Ok base -> (path, base)
        | Error line ->
            prerr_endline ("simulate: " ^ line);
            exit 1)
      delta_from
  in
  let engine =
    match engine with
    | "interp" -> Wwt.Run.Tree_walk
    | "compiled" -> Wwt.Run.Compiled
    | other ->
        prerr_endline
          ("simulate: unknown engine " ^ other ^ " (expected interp or compiled)");
        exit 2
  in
  let many = List.length files > 1 in
  let reports =
    Wwt.Jobs.map
      ~jobs:(Option.value jobs ~default:env_jobs)
      (simulate_file machine engine annotations prefetch trace_mode races
         trace_out print_memory delta_from ~many)
      files
  in
  List.iter
    (function
      | Ok report -> print_string report
      | Error line -> prerr_endline ("simulate: " ^ line))
    reports;
  if List.for_all Result.is_ok reports then 0 else 1

open Cmdliner

let files =
  Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE"
         ~doc:"Program(s) to simulate. Several files fan out across domains.")

let annotations =
  Arg.(value & flag & info [ "a"; "annotations" ]
         ~doc:"Execute CICO annotations as memory-system directives.")

let prefetch =
  Arg.(value & flag & info [ "p"; "prefetch" ] ~doc:"Also execute prefetch annotations.")

let trace_mode =
  Arg.(value & flag & info [ "t"; "trace" ]
         ~doc:"Trace-collection mode: flush caches at barriers and record misses.")

let races =
  Arg.(value & flag & info [ "races" ]
         ~doc:"Run the sound streaming race detector on the collected \
               trace and append its report (implies $(b,--trace)).")

let trace_out =
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE"
         ~doc:"Write the trace to $(docv) (use with --trace; with several \
               inputs each trace goes to $(i,input).$(docv)).")

let print_memory =
  Arg.(value & flag & info [ "memory" ] ~doc:"Dump the first elements of each shared array.")

let delta_from =
  Arg.(value & opt (some file) None & info [ "delta-from" ] ~docv:"BASE"
         ~doc:"Treat each input as an edit of $(docv): when the delta \
               prover certifies the outcome identical to $(docv)'s, \
               simulate the base instead (reusing its warm artifacts) \
               and note the proof on stderr; otherwise run the input in \
               full.")

let jobs =
  Arg.(value & opt (some Service.Cli.positive_int) None
       & info [ "j"; "jobs" ] ~docv:"N"
         ~doc:"Run up to $(docv) simulations concurrently on separate \
               domains (default: $(b,CACHIER_BENCH_JOBS) or the \
               recommended domain count).")

let engine =
  Arg.(value & opt string "compiled"
       & info [ "engine" ] ~docv:"ENGINE"
           ~doc:"Execution engine: $(b,interp) (tree walk) or \
                 $(b,compiled) (closure compiler, default). Results are \
                 bit-identical.")

let cmd =
  let doc = "simulate shared-memory programs on a Dir1SW machine" in
  Cmd.v
    (Cmd.info "simulate" ~doc)
    Term.(const run $ files $ Service.Cli.machine_term $ engine
          $ annotations $ prefetch $ trace_mode $ races $ trace_out
          $ print_memory $ delta_from $ jobs $ Service.Cli.obs_term)

let () = exit (Cmd.eval' cmd)
