(* Bad configuration is refused at the binaries' front door: a one-line
   diagnostic that names what was wrong, a distinct exit code, and no
   work done. The bench harness and simulate check CACHIER_BENCH_* at
   startup and exit 2; numeric flags of simulate and cachierd and
   cachier's --benchmark are usage errors (exit 124, like a malformed
   --protocol), and an unknown --engine exits 2. A program's own parse or
   runtime error is a one-line diagnostic from simulate and cachier
   (exit 1), not an internal error. *)

(* dune runs the test binary in _build/default/test; fall back to the
   workspace-root path for manual `dune exec` runs *)
let exe dir name =
  List.find_opt Sys.file_exists
    [
      Filename.concat ".." (Filename.concat dir name);
      Filename.concat "_build"
        (Filename.concat "default" (Filename.concat dir name));
    ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let temp_path suffix =
  let path = Filename.temp_file "cachier_refusal" suffix in
  Sys.remove path;
  path

(* Run [cmd] with stdout and stderr captured; returns (exit code, stdout,
   stderr). *)
let run cmd =
  let out = temp_path ".out" and err = temp_path ".err" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ out; err ])
    (fun () ->
      let code =
        Sys.command
          (Printf.sprintf "%s >%s 2>%s" cmd (Filename.quote out)
             (Filename.quote err))
      in
      (code, read_file out, read_file err))

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

let check_contains what text sub =
  if not (contains text sub) then
    Alcotest.failf "%s: expected %S in:\n%s" what sub text

(* Each case sets one variable to a bad value; the third field is the
   start of what the diagnostic says the variable accepts. A refusal that
   failed to fire would run the harness, so FAST and a one-experiment
   ONLY keep that failure quick; the JSON must not be written. *)
let bench_cases =
  let known = "a comma-separated list of figure6, proto-matrix, delta, " in
  [
    ("CACHIER_BENCH_NODES", "x", "an integer in [1, 62]");
    ("CACHIER_BENCH_NODES", "0", "an integer in [1, 62]");
    ("CACHIER_BENCH_NODES", "63", "an integer in [1, 62]");
    ("CACHIER_BENCH_SCALE", "abc", "a positive finite number");
    ("CACHIER_BENCH_SCALE", "-1", "a positive finite number");
    ("CACHIER_BENCH_SCALE", "nan", "a positive finite number");
    ("CACHIER_BENCH_SCALE", "0", "a positive finite number");
    ("CACHIER_BENCH_JOBS", "0", "a positive integer");
    ("CACHIER_BENCH_ONLY", "nosuch", known);
    ("CACHIER_BENCH_ONLY", "figure6-par", known);
    ("CACHIER_BENCH_ONLY", "figure6,nosuch", known);
    ("CACHIER_BENCH_ONLY", "", known);
  ]

let bench_refuses () =
  match exe "bench" "main.exe" with
  | None -> Alcotest.skip ()
  | Some bench ->
      List.iter
        (fun (var, value, accepted) ->
          let json = temp_path ".json" in
          let defaults =
            [
              ("CACHIER_BENCH_FAST", "1");
              ("CACHIER_BENCH_ONLY", "fig4");
              ("CACHIER_BENCH_JSON", json);
            ]
          in
          let env =
            (var, value) :: List.filter (fun (v, _) -> v <> var) defaults
          in
          let cmd =
            String.concat " "
              ("env"
              :: List.map (fun (v, x) -> v ^ "=" ^ Filename.quote x) env
              @ [ Filename.quote bench ])
          in
          let what = Printf.sprintf "%s=%S" var value in
          let code, out, err = run cmd in
          Alcotest.(check int) (what ^ ": exit code") 2 code;
          Alcotest.(check string) (what ^ ": nothing on stdout") "" out;
          Alcotest.(check int)
            (what ^ ": one line on stderr")
            1
            (List.length (String.split_on_char '\n' (String.trim err)));
          check_contains what err (var ^ " must be " ^ accepted);
          check_contains what err (Printf.sprintf "(got %S)" value);
          Alcotest.(check bool)
            (what ^ ": no JSON written") false (Sys.file_exists json))
        bench_cases

(* (arguments, exit code, expected diagnostic fragment) *)
let simulate_cases =
  [
    ("--nodes 0", 124, "option '--nodes': invalid value '0', expected a \
                        positive integer");
    ("--nodes=-3", 124, "option '--nodes': invalid value '-3'");
    ("--cache-kb 0", 124, "option '--cache-kb': invalid value '0'");
    ("--assoc 0", 124, "option '--assoc': invalid value '0'");
    ("--block 0", 124, "option '--block': invalid value '0'");
    ("--nodes 63", 124, "--nodes 63: at most 62 nodes are supported");
    ("--cache-kb 3", 124,
     "--cache-kb 3, --assoc 4, --block 32: number of sets must be a power \
      of two");
    ("--assoc 3", 124,
     "--cache-kb 16, --assoc 3, --block 32: size must be a multiple of \
      assoc * block size");
    ("--block 24", 124,
     "--cache-kb 16, --assoc 4, --block 24: block size must be a power of \
      two");
    ("--engine par", 2, "unknown engine par (expected interp or compiled)");
  ]

(* Runs [cmd], whose stdin is empty, and checks the exit code, the empty
   stdout, the fragment on stderr and that no exception escaped. *)
let check_refused what cmd ~code:want_code fragment =
  let code, out, err = run (cmd ^ " </dev/null") in
  Alcotest.(check int) (what ^ ": exit code") want_code code;
  Alcotest.(check string) (what ^ ": nothing on stdout") "" out;
  check_contains what err fragment;
  if contains err "exception" then
    Alcotest.failf "%s: an exception escaped:\n%s" what err

let simulate_refuses () =
  match (exe "bin" "simulate.exe", T_obs.example "jacobi.sm") with
  | Some sim, Some src ->
      List.iter
        (fun (args, code, fragment) ->
          check_refused args
            (Printf.sprintf "%s %s %s" (Filename.quote sim)
               (Filename.quote src) args)
            ~code fragment)
        (simulate_cases
        @ [ ("-n 4 --jobs 0", 124, "option '--jobs': invalid value '0'") ]);
      check_refused "CACHIER_BENCH_JOBS=x"
        (Printf.sprintf "env CACHIER_BENCH_JOBS=x %s %s -n 4"
           (Filename.quote sim) (Filename.quote src))
        ~code:2
        "simulate: CACHIER_BENCH_JOBS must be a positive integer (got \"x\")"
  | _ -> Alcotest.skip ()

(* cachierd would serve stdio if a refusal failed to fire; its stdin is
   empty, so it would exit 0 at once *)
let cachierd_cases =
  [
    ("--workers=-3", "option '--workers': invalid value '-3', expected a \
                      positive integer");
    ("--workers 0", "option '--workers': invalid value '0'");
    ("--listeners 0", "option '--listeners': invalid value '0'");
    ("--cache-budget-mb=-1", "option '--cache-budget-mb': invalid value \
                              '-1'");
    ("--cache-budget-mb 0", "option '--cache-budget-mb': invalid value '0'");
    ("--queue-capacity=-1", "option '--queue-capacity': invalid value \
                             '-1'");
    ("--idle-timeout-ms=-1", "option '--idle-timeout-ms': invalid value \
                              '-1'");
    ("--drain-ms=-5", "option '--drain-ms': invalid value '-5'");
  ]

let cachierd_refuses () =
  match exe "bin" "cachierd.exe" with
  | None -> Alcotest.skip ()
  | Some daemon ->
      List.iter
        (fun (args, fragment) ->
          check_refused args
            (Printf.sprintf "%s %s" (Filename.quote daemon) args)
            ~code:124 fragment)
        cachierd_cases

(* An unknown --benchmark is a usage error naming the flag and listing
   the suite, like a malformed --protocol. *)
let cachier_refuses_unknown_benchmark () =
  match exe "bin" "cachier_cli.exe" with
  | None -> Alcotest.skip ()
  | Some cli ->
      let cmd = Filename.quote cli ^ " --benchmark nosuch" in
      check_refused "--benchmark nosuch" cmd ~code:124
        "option '--benchmark': invalid value 'nosuch', expected one of";
      let _, _, err = run (cmd ^ " </dev/null") in
      List.iter
        (fun name -> check_contains "--benchmark nosuch" err ("'" ^ name ^ "'"))
        Benchmarks.Suite.names

(* A program's own failure: one stderr line naming the file, the kind
   and the message, and exit 1. jacobi.sm is sized for 4 nodes and
   indexes out of bounds at the default 8. *)
let program_errors_are_diagnostics () =
  match
    ( exe "bin" "simulate.exe",
      exe "bin" "cachier_cli.exe",
      T_obs.example "jacobi.sm" )
  with
  | Some sim, Some cli, Some jacobi ->
      let bad = Filename.temp_file "cachier_refusal" ".sm" in
      Fun.protect
        ~finally:(fun () -> Sys.remove bad)
        (fun () ->
          Out_channel.with_open_bin bad (fun oc ->
              output_string oc "proc main() {\n  x = ;\n}\n");
          List.iter
            (fun (prefix, cmd, file, kind, message) ->
              let what = Printf.sprintf "%s %s" prefix file in
              let code, out, err =
                run (Printf.sprintf "%s %s" cmd (Filename.quote file))
              in
              Alcotest.(check int) (what ^ ": exit code") 1 code;
              Alcotest.(check string) (what ^ ": nothing on stdout") "" out;
              Alcotest.(check string)
                (what ^ ": one diagnostic line")
                (Printf.sprintf "%s: %s: %s: %s\n" prefix file kind message)
                err)
            [
              ( "simulate", Filename.quote sim, jacobi, "runtime_error",
                "index 4096 out of bounds for shared array V[4096]" );
              ( "cachier", Filename.quote cli ^ " -f", jacobi, "runtime_error",
                "index 4096 out of bounds for shared array V[4096]" );
              ( "simulate", Filename.quote sim, bad, "parse_error",
                "line 2: expected expression, found ;" );
              (* a broken delta base is named, not the input *)
              ( "simulate",
                Printf.sprintf "%s -n 4 %s --delta-from" (Filename.quote sim)
                  (Filename.quote jacobi),
                bad, "parse_error", "line 2: expected expression, found ;" );
              ( "cachier", Filename.quote cli ^ " -f", bad, "parse_error",
                "line 2: expected expression, found ;" );
            ])
  | _ -> Alcotest.skip ()

(* A good configuration is not refused: every section runs at the
   paper's node count. The restructuring section picks its matrix size
   from the node count, so at 32 nodes it runs N = 32 and exits 0. *)
let bench_restructuring_at_paper_nodes () =
  match exe "bench" "main.exe" with
  | None -> Alcotest.skip ()
  | Some bench ->
      let json = temp_path ".json" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove json with Sys_error _ -> ())
        (fun () ->
          let code, out, err =
            run
              (Printf.sprintf
                 "env CACHIER_BENCH_FAST=1 CACHIER_BENCH_NODES=32 \
                  CACHIER_BENCH_ONLY=restructuring CACHIER_BENCH_JSON=%s %s"
                 (Filename.quote json) (Filename.quote bench))
          in
          Alcotest.(check int) ("exit code; stderr: " ^ err) 0 code;
          check_contains "restructuring at 32 nodes" out "N=32, P=32")

let suite =
  [
    Alcotest.test_case "bench harness refuses malformed config" `Quick
      bench_refuses;
    Alcotest.test_case "simulate refuses bad machine flags" `Quick
      simulate_refuses;
    Alcotest.test_case "cachierd refuses bad numeric flags" `Quick
      cachierd_refuses;
    Alcotest.test_case "cachier refuses an unknown benchmark" `Quick
      cachier_refuses_unknown_benchmark;
    Alcotest.test_case "program errors are diagnostics" `Quick
      program_errors_are_diagnostics;
    Alcotest.test_case "bench restructuring runs at 32 nodes" `Quick
      bench_restructuring_at_paper_nodes;
  ]
