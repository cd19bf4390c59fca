(* Shared test glue: qcheck-alcotest wiring, plus a check that an
   environment knob refuses malformed values.

   Every property suite runs from one fixed seed so `dune runtest` is
   deterministic; set CACHIER_QCHECK_SEED to explore other schedules or
   to replay a failure. The seed in use is printed once per run, and a
   failing property reports it again next to qcheck's own shrunk
   counterexample, so the reproduction recipe is always in the output. *)

let default_seed = 20260806

(* [refuses_env var bad ~valid ~msg f] sets [var] to each value in [bad]
   and checks that [f] raises [Invalid_argument msg]; then it resets
   [var] (there is no unsetenv) to its value before the test, or to
   [valid], and checks that [f] succeeds. *)
let refuses_env var bad ~valid ~msg f =
  let reset = Option.value (Sys.getenv_opt var) ~default:valid in
  Fun.protect
    ~finally:(fun () -> Unix.putenv var reset)
    (fun () ->
      List.iter
        (fun v ->
          Unix.putenv var v;
          Alcotest.check_raises
            (Printf.sprintf "%s=%S" var v)
            (Invalid_argument msg)
            (fun () -> ignore (f ())))
        bad);
  ignore (f ())

let seed =
  match Sys.getenv_opt "CACHIER_QCHECK_SEED" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n -> n
      | None ->
          Printf.eprintf
            "CACHIER_QCHECK_SEED=%S is not an integer; using default %d\n%!" s
            default_seed;
          default_seed)
  | None -> default_seed

let announced = ref false

let announce () =
  if not !announced then begin
    announced := true;
    Printf.printf "qcheck seed: %d (override with CACHIER_QCHECK_SEED)\n%!" seed
  end

(* Wrap a qcheck test for alcotest, pinning the RNG to [seed]. On failure
   qcheck prints the shrunk counterexample; we add the seed so the run
   reproduces with CACHIER_QCHECK_SEED=<seed> dune runtest. *)
let qtest test =
  let name, speed, run =
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |]) test
  in
  let run' () =
    announce ();
    try run ()
    with e ->
      Printf.printf "replay with: CACHIER_QCHECK_SEED=%d dune runtest\n%!" seed;
      raise e
  in
  Alcotest.test_case name speed run'
