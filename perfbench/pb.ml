(* The benchmark's entry point:

     pb.exe --workload NAME --seed N --seconds S --trace 0|1

   It runs one workload and prints its result as the last stdout line;
   perfbench/run.py builds this binary and completes the line. Run it
   from the repository root: it reads perfbench/config.json. *)

open Util

let usage () =
  prerr_endline
    "usage: pb.exe --workload {annotate-cold|simulate-matrix|service-mix} \
     --seed N --seconds S --trace {0|1}";
  exit 2

let parse_args () =
  let get = Hashtbl.create 4 in
  let rec go = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        Hashtbl.replace get (String.sub k 2 (String.length k - 2)) v;
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  let field k conv =
    match Option.bind (Hashtbl.find_opt get k) conv with
    | Some v -> v
    | None -> usage ()
  in
  {
    workload = field "workload" Option.some;
    seed = field "seed" int_of_string_opt;
    seconds = field "seconds" float_of_string_opt;
    trace =
      field "trace" (function "0" -> Some false | "1" -> Some true | _ -> None);
  }

(* A batch workload: set-up, then either the timed phase (end-to-end
   metrics) or the traced run (per-layer metrics), verification last. *)
let batch ~args ~dir ~setup ~rounds ~layers =
  let (kinds, spec), setup = repeated_setup (setup ~seed:args.seed) in
  if not args.trace then begin
    let samples = Batch.timed_phase spec ~seconds:args.seconds in
    let metrics = Batch.end_to_end spec ~setup samples in
    let errors = Batch.errors samples in
    let checked, mismatched = Batch.verify spec ~seed:args.seed samples in
    say "%d ops, %d errors, %d verified, %d mismatched" (Array.length samples)
      errors checked mismatched;
    let failed = errors + mismatched in
    print_result ~workload:args.workload ~correct:(failed = 0)
      ~attempted:(Array.length samples) ~failed metrics
  end
  else begin
    let n = rounds ~seconds:args.seconds * Array.length spec.Batch.kinds in
    let untraced, outs, traced, differ = Batch.traced_run spec ~n ~dir in
    let metrics = layers kinds spec ~untraced ~outs ~traced in
    let errors = Batch.errors untraced in
    let _, mismatched = Batch.verify spec ~seed:args.seed untraced in
    let failed = errors + mismatched + differ in
    say "traced run, %d ops: %d errors, %d mismatched, %d composed != untraced" n
      errors mismatched differ;
    let digests =
      ( digest_strings (List.init n spec.Batch.label),
        digest_strings (Array.to_list (Array.map (fun o -> o.Batch.digest) outs)) )
    in
    print_result ~digests ~workload:args.workload ~correct:(failed = 0)
      ~attempted:(3 * n) ~failed metrics
  end

let () =
  let args = parse_args () in
  if args.seconds <= 0. then usage ();
  let dir = work_dir () in
  Fun.protect
    ~finally:(fun () -> remove_tree dir)
    (fun () ->
      match args.workload with
      | "annotate-cold" ->
          batch ~args ~dir
            ~setup:(fun ~seed () -> ((), Annotate_cold.setup ~seed ()))
            ~rounds:Annotate_cold.traced_rounds
            ~layers:(fun () -> Annotate_cold.layer_metrics)
      | "simulate-matrix" ->
          batch ~args ~dir ~setup:Simulate_matrix.setup
            ~rounds:Simulate_matrix.traced_rounds
            ~layers:Simulate_matrix.layer_metrics
      | "service-mix" -> Service_mix.main ~args ~dir
      | w ->
          prerr_endline ("unknown workload " ^ w);
          exit 2)
