(* cachier_fuzz — differential fuzzing of the whole Cachier pipeline.

   Generates well-formed SPMD programs and checks seven oracles on each:
   engine equivalence, semantics preservation under annotation,
   annotation idempotence, protocol invariants, equation / cost-model
   sanity, race-detector soundness (streaming report equal to the naive
   one, DRF-by-construction programs proven race-free, the DRFS
   predicate and the detector agreeing both ways), and delta
   re-annotation. --protocols rotates the coherence backend: every
   program runs the whole battery once per listed backend, with
   per-protocol counterexample corpora. Failures are shrunk and saved to
   a corpus directory as .cico files that replay deterministically
   (--replay), and can be shrunk further offline (--minimise).

   Exit status: 0 when every oracle passed on every program, 1 when a
   counterexample was found, 2 on usage errors. *)

let calendar_week_seed () =
  let tm = Unix.gmtime (Unix.time ()) in
  (((tm.Unix.tm_year + 1900) * 100) + (tm.Unix.tm_yday / 7)) land max_int

let parse_seed = function
  | "from-calendar-week" -> Ok (calendar_week_seed ())
  | s -> (
      match int_of_string_opt s with
      | Some n -> Ok n
      | None -> Error (`Msg (Printf.sprintf "seed must be an integer or 'from-calendar-week', got %S" s)))

let machine_of_entry (e : Fuzz.Corpus.entry) =
  {
    Wwt.Machine.default with
    Wwt.Machine.nodes = e.Fuzz.Corpus.nodes;
    protocol = e.Fuzz.Corpus.protocol;
  }

let report_entry ~budget_s (path, (e : Fuzz.Corpus.entry)) =
  match Lang.Parser.parse e.Fuzz.Corpus.source with
  | exception Lang.Parser.Error m ->
      Printf.printf "%s: parse error: %s\n" path m;
      true
  | program ->
      let machine = machine_of_entry e in
      let report = Fuzz.Oracle.run_all ~budget_s ~machine program in
      Format.printf "%s (expected failing oracle: %s)@.%a" path
        e.Fuzz.Corpus.oracle Fuzz.Oracle.pp report;
      Fuzz.Oracle.first_failure report <> None

let replay_paths ~budget_s paths =
  let entries =
    List.concat_map
      (fun p ->
        if Sys.is_directory p then Fuzz.Corpus.load_dir p
        else [ (p, Fuzz.Corpus.load p) ])
      paths
  in
  if entries = [] then begin
    print_endline "no corpus entries found";
    0
  end
  else
    let failed = List.filter (report_entry ~budget_s) entries in
    Printf.printf "%d/%d corpus entries still fail\n" (List.length failed)
      (List.length entries);
    if failed = [] then 0 else 1

let minimise_path ~budget_s ~fuel path =
  let e = Fuzz.Corpus.load path in
  let program = Lang.Parser.parse e.Fuzz.Corpus.source in
  let machine = machine_of_entry e in
  let report = Fuzz.Oracle.run_all ~budget_s ~machine program in
  match Fuzz.Oracle.first_failure report with
  | None ->
      Printf.printf "%s: no oracle fails any more; nothing to minimise\n" path;
      0
  | Some (oracle, _) ->
      let shrunk =
        Fuzz.Runner.shrink ~machine ~budget_s ~fuel ~oracle program
      in
      Printf.printf
        "%s: %s oracle, %d -> %d AST nodes\n--- minimised program ---\n%s" path
        oracle
        (Fuzz.Gen.size_program program)
        (Fuzz.Gen.size_program shrunk)
        (Lang.Pretty.program_to_string shrunk);
      1

let fuzz seed budget_s count nodes protocols corpus_dir per_program_budget_s
    shrink_fuel quiet replay minimise (_obs : Obs.mode) =
  match (replay, minimise) with
  | _ :: _, Some _ ->
      prerr_endline "--replay and --minimise are mutually exclusive";
      2
  | _ :: _, None -> replay_paths ~budget_s:per_program_budget_s replay
  | [], Some path ->
      minimise_path ~budget_s:per_program_budget_s ~fuel:shrink_fuel path
  | [], None ->
      let cfg =
        {
          Fuzz.Runner.seed;
          budget_s;
          max_programs = count;
          nodes;
          protocols;
          corpus_dir;
          per_program_budget_s;
          shrink_fuel;
          log = (if quiet then ignore else print_endline);
        }
      in
      Printf.printf
        "fuzzing: seed %d, budget %.0fs%s, machines up to %d nodes, \
         protocols %s\n\
         %!"
        seed budget_s
        (if count > 0 then Printf.sprintf ", at most %d programs" count else "")
        nodes
        (String.concat ","
           (List.map Memsys.Protocol_id.to_string protocols));
      let stats = Fuzz.Runner.run cfg in
      Format.printf "@[<v>%a@]@." Fuzz.Runner.pp_stats stats;
      if stats.Fuzz.Runner.failures = [] then 0 else 1

open Cmdliner

let seed_conv = Arg.conv (parse_seed, fun ppf n -> Format.fprintf ppf "%d" n)

let seed =
  Arg.(value & opt seed_conv 0 & info [ "s"; "seed" ] ~docv:"SEED"
         ~doc:"Master seed for the campaign: an integer, or \
               $(b,from-calendar-week) to derive a fresh deterministic seed \
               each ISO week (used by the CI smoke job).")

let budget_s =
  Arg.(value & opt float 60.0 & info [ "b"; "budget-s" ] ~docv:"SECONDS"
         ~doc:"Wall-clock budget for the whole campaign.")

let count =
  Arg.(value & opt int 0 & info [ "n"; "count" ] ~docv:"N"
         ~doc:"Stop after $(docv) generated programs (0: budget only).")

let nodes =
  Arg.(value & opt int 8 & info [ "nodes" ] ~docv:"N"
         ~doc:"Largest simulated machine to cycle through.")

let protocols =
  let proto_conv =
    Arg.conv
      ( (fun s ->
          match Memsys.Protocol_id.of_string s with
          | Some p -> Ok p
          | None ->
              Error
                (`Msg
                   (Printf.sprintf "unknown protocol %S (dir1sw, sisd or commute)"
                      s))),
        fun ppf p ->
          Format.pp_print_string ppf (Memsys.Protocol_id.to_string p) )
  in
  Arg.(
    value
    & opt (list proto_conv) [ Memsys.Protocol_id.default ]
    & info [ "protocols" ] ~docv:"PROTOCOLS"
        ~doc:
          "Comma-separated coherence backends to rotate ($(b,dir1sw), \
           $(b,sisd), $(b,commute)); every generated program runs the whole \
           oracle battery once per backend.")

let corpus_dir =
  Arg.(value & opt (some string) None & info [ "corpus" ] ~docv:"DIR"
         ~doc:"Save shrunk counterexamples to $(docv) as replayable .cico \
               files.")

let per_program_budget_s =
  Arg.(value & opt float 2.0 & info [ "program-budget-s" ] ~docv:"SECONDS"
         ~doc:"Oracle budget per generated program.")

let shrink_fuel =
  Arg.(value & opt int 300 & info [ "shrink-fuel" ] ~docv:"N"
         ~doc:"Oracle re-runs allowed while shrinking one counterexample.")

let quiet =
  Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"No per-failure progress output.")

let replay =
  Arg.(value & opt_all string [] & info [ "replay" ] ~docv:"PATH"
         ~doc:"Replay corpus entries ($(docv) is a .cico file or a \
               directory of them) instead of fuzzing; exits 1 if any still \
               fails its oracle.")

let minimise =
  Arg.(value & opt (some string) None & info [ "minimise"; "minimize" ]
         ~docv:"FILE"
         ~doc:"Shrink the corpus entry $(docv) further and print the \
               minimised program instead of fuzzing.")

let cmd =
  let doc = "differential fuzzing of the Cachier annotator and simulator" in
  Cmd.v
    (Cmd.info "cachier_fuzz" ~doc)
    Term.(const fuzz $ seed $ budget_s $ count $ nodes $ protocols $ corpus_dir
          $ per_program_budget_s $ shrink_fuel $ quiet $ replay $ minimise
          $ Service.Cli.obs_term)

let () = exit (Cmd.eval' cmd)
