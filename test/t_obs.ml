(* The observability layer: span well-formedness (including across
   exceptions and domains), metric semantics, sink output shape, the
   zero-allocation promise of the disabled path, and stdout purity of
   the --obs flag on the simulate CLI. *)

module Json = Service.Json

let with_mode mode f =
  Obs.configure mode;
  Fun.protect ~finally:(fun () -> Obs.configure Obs.Off) f

let with_temp_file suffix f =
  let path = Filename.temp_file "cachier_obs" suffix in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

(* ---- mode parsing ---- *)

let test_mode_parsing () =
  let round m =
    match Obs.mode_of_string (Obs.mode_to_string m) with
    | Ok m' -> m' = m
    | Error _ -> false
  in
  Alcotest.(check bool) "off round-trips" true (round Obs.Off);
  Alcotest.(check bool) "summary round-trips" true (round Obs.Summary);
  Alcotest.(check bool) "ndjson round-trips" true
    (round (Obs.Ndjson "/tmp/x.ndjson"));
  (match Obs.mode_of_string "ndjson:" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty ndjson path accepted");
  match Obs.mode_of_string "nonsense" with
  | Error msg ->
      Alcotest.(check bool) "error names the input" true
        (String.length msg > 0)
  | Ok _ -> Alcotest.fail "nonsense mode accepted"

(* ---- span events: parse every NDJSON line, check nesting ---- *)

type span_ev = { name : string; dom : int; depth : int; ts : int; dur : int }

let span_events path =
  List.filter_map
    (fun line ->
      let j = Json.of_string line in
      match Json.(to_string_opt (member "ev" j)) with
      | Some "span" ->
          let int k =
            match Json.(to_int_opt (member k j)) with
            | Some v -> v
            | None -> Alcotest.failf "span event missing %s: %s" k line
          in
          let name =
            match Json.(to_string_opt (member "name" j)) with
            | Some n -> n
            | None -> Alcotest.failf "span event missing name: %s" line
          in
          Some
            {
              name;
              dom = int "dom";
              depth = int "depth";
              ts = int "ts_ns";
              dur = int "dur_ns";
            }
      | _ -> None)
    (read_lines path)

(* Well-formedness of an exit-ordered span stream: every span closes
   after its children, and children nest inside the parent's interval.
   The fold mirrors scripts/obs_report: per (dom, depth), closed spans
   wait for the next close one level up, which must contain them. *)
let check_well_formed events =
  let awaiting : (int * int, span_ev list) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun ev ->
      Alcotest.(check bool) "non-negative depth" true (ev.depth >= 0);
      Alcotest.(check bool) "non-negative duration" true (ev.dur >= 0);
      let children =
        Option.value ~default:[]
          (Hashtbl.find_opt awaiting (ev.dom, ev.depth + 1))
      in
      List.iter
        (fun (c : span_ev) ->
          if not (c.ts >= ev.ts && c.ts + c.dur <= ev.ts + ev.dur) then
            Alcotest.failf "child %s [%d,+%d] escapes parent %s [%d,+%d]"
              c.name c.ts c.dur ev.name ev.ts ev.dur)
        children;
      Hashtbl.remove awaiting (ev.dom, ev.depth + 1);
      Hashtbl.replace awaiting (ev.dom, ev.depth)
        (ev :: Option.value ~default:[]
                 (Hashtbl.find_opt awaiting (ev.dom, ev.depth))))
    events;
  (* nothing may wait at depth > 0: every child saw a parent close *)
  Hashtbl.iter
    (fun (_, depth) evs ->
      if depth > 0 && evs <> [] then
        Alcotest.failf "%d orphan span(s) at depth %d" (List.length evs)
          depth)
    awaiting

(* Random span trees, some of which raise: every enter must still
   produce exactly one exit event, and the stream must nest. *)
let gen_tree =
  QCheck.Gen.(
    sized_size (int_bound 5) (fix (fun self n ->
        if n = 0 then map (fun b -> `Leaf b) bool
        else
          frequency
            [
              (1, map (fun b -> `Leaf b) bool);
              (3, map2 (fun l r -> `Node (l, r)) (self (n / 2)) (self (n / 2)));
            ])))

exception Probe

let prop_span_nesting =
  QCheck.Test.make ~name:"span nesting survives exceptions" ~count:30
    (QCheck.make gen_tree) (fun tree ->
      with_temp_file ".ndjson" (fun path ->
          let entered = ref 0 in
          with_mode (Obs.Ndjson path) (fun () ->
              let rec go i t =
                incr entered;
                Obs.span (Printf.sprintf "t.%d" i) (fun () ->
                    match t with
                    | `Leaf false -> ()
                    | `Leaf true -> raise Probe
                    | `Node (l, r) ->
                        (try go (i + 1) l with Probe -> ());
                        go (i + 1) r)
              in
              (try go 0 tree with Probe -> ());
              Obs.flush ());
          let events = span_events path in
          check_well_formed events;
          List.length events = !entered))

(* ---- histogram buckets ---- *)

let prop_bucket_monotone =
  QCheck.Test.make ~name:"histogram buckets are monotone" ~count:200
    QCheck.(pair (int_bound 2_000_000_000) (int_bound 2_000_000_000))
    (fun (a, b) ->
      let lo, hi = (min a b, max a b) in
      let ba = Obs.Histogram.bucket_of lo and bb = Obs.Histogram.bucket_of hi in
      ba <= bb
      && (ba >= Obs.Histogram.buckets || lo <= Obs.Histogram.bound_of ba)
      && (ba = 0 || Obs.Histogram.bound_of (ba - 1) < lo))

let test_histogram_observe () =
  let reg = Obs.Registry.create () in
  let h = Obs.Registry.histogram ~registry:reg "t" in
  List.iter (Obs.Histogram.observe h) [ 0; 1; 2; 3; 1000; -5 ];
  let s = Obs.Histogram.snapshot h in
  Alcotest.(check int) "count" 6 s.Obs.Histogram.count;
  Alcotest.(check int) "negative clamps to 0 in sum" 1006
    s.Obs.Histogram.sum;
  Alcotest.(check int) "slot total matches count" 6
    (Array.fold_left ( + ) 0 s.Obs.Histogram.slots)

(* ---- counter atomicity across Wwt.Jobs domains ---- *)

let test_counter_atomicity () =
  let reg = Obs.Registry.create () in
  let c = Obs.Registry.counter ~registry:reg "atomic" in
  let workers = 4 and per_worker = 50_000 in
  ignore
    (Wwt.Jobs.map ~jobs:workers
       (fun _ ->
         for _ = 1 to per_worker do
           Obs.Counter.incr c
         done)
       (List.init workers Fun.id));
  Alcotest.(check int) "no lost increments" (workers * per_worker)
    (Obs.Counter.value c);
  (* get-or-create returns the same metric for the same name *)
  Obs.Counter.add (Obs.Registry.counter ~registry:reg "atomic") 5;
  Alcotest.(check int) "named lookup is stable" ((workers * per_worker) + 5)
    (Obs.Counter.value c)

(* ---- NDJSON output parses and round-trips through Service.Json ---- *)

let test_ndjson_round_trip () =
  with_temp_file ".ndjson" (fun path ->
      with_mode (Obs.Ndjson path) (fun () ->
          Obs.span "outer \"quoted\"\nname" (fun () ->
              Obs.span "inner" (fun () -> ()));
          Obs.Counter.incr
            (Obs.Registry.counter "t_obs.ndjson_round_trip");
          Obs.flush ());
      let lines = read_lines path in
      Alcotest.(check bool) "emits lines" true (List.length lines >= 3);
      (* every line is one JSON object and survives a re-encode cycle *)
      List.iter
        (fun line ->
          let j = Json.of_string line in
          let j' = Json.of_string (Json.to_string j) in
          if j <> j' then Alcotest.failf "re-encode changed %s" line)
        lines;
      let meta = Json.of_string (List.hd lines) in
      Alcotest.(check (option string)) "first line is the meta event"
        (Some "meta")
        Json.(to_string_opt (member "ev" meta));
      let names =
        List.filter_map (fun (e : span_ev) -> Some e.name) (span_events path)
      in
      Alcotest.(check bool) "escaped span name survives" true
        (List.mem "outer \"quoted\"\nname" names))

(* ---- summary mode aggregates ---- *)

let test_span_summary () =
  with_mode Obs.Summary (fun () ->
      for _ = 1 to 3 do
        Obs.span "agg.a" (fun () -> ignore (Sys.opaque_identity 1))
      done;
      Obs.span "agg.b" (fun () -> ());
      let summary = Obs.span_summary () in
      let a = List.assoc "agg.a" summary in
      Alcotest.(check int) "count aggregates" 3 a.Obs.s_count;
      Alcotest.(check bool) "max <= total" true
        (a.Obs.s_max_ns <= a.Obs.s_total_ns);
      Alcotest.(check bool) "sorted by name" true
        (List.map fst summary = List.sort compare (List.map fst summary)))

(* ---- the zero-allocation promise of the disabled path ---- *)

let test_disabled_path_allocates_nothing () =
  Obs.configure Obs.Off;
  let c = Obs.Registry.counter "t_obs.alloc_probe" in
  let measure f =
    (* first call warms up; second measures *)
    f ();
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  let baseline = measure (fun () -> ()) in
  let obs_loop =
    measure (fun () ->
        for _ = 1 to 10_000 do
          let t0 = Obs.start () in
          if Obs.enabled () then Obs.Counter.incr c;
          Obs.finish "t_obs.alloc" t0
        done)
  in
  (* both measurements carry the same constant overhead (boxing the
     Gc.minor_words results); the loop itself must add nothing *)
  Alcotest.(check (float 0.0)) "disabled obs loop allocates zero words"
    baseline obs_loop

(* ---- Metrics keeps its JSON shape on top of the registry ---- *)

let test_metrics_json_shape () =
  let m = Service.Metrics.create () in
  Service.Metrics.record_request m ~op:"simulate" ~elapsed_us:120;
  Service.Metrics.record_request m ~op:"simulate" ~elapsed_us:80;
  Service.Metrics.record_error m ~kind:"bad_request";
  Service.Metrics.record_hit m ~stage:"parse";
  Service.Metrics.record_miss m ~stage:"trace";
  Alcotest.(check int) "requests" 2 (Service.Metrics.requests m);
  Alcotest.(check int) "hits" 1 (Service.Metrics.hits m ~stage:"parse");
  Alcotest.(check int) "misses" 1 (Service.Metrics.misses m ~stage:"trace");
  let j =
    Service.Metrics.to_json m ~evictions:1 ~cache_bytes:2 ~cache_entries:3 ()
  in
  Alcotest.(check (option int)) "requests field" (Some 2)
    Json.(to_int_opt (member "requests" j));
  Alcotest.(check (option int)) "errors.bad_request" (Some 1)
    Json.(to_int_opt (member "bad_request" (member "errors" j)));
  Alcotest.(check (option int)) "hits.parse" (Some 1)
    Json.(to_int_opt (member "parse" (member "hits" j)));
  Alcotest.(check (option int)) "misses.trace" (Some 1)
    Json.(to_int_opt (member "trace" (member "misses" j)));
  Alcotest.(check (option int)) "evictions" (Some 1)
    Json.(to_int_opt (member "evictions" j));
  let lat = Json.member "simulate" (Json.member "latency" j) in
  Alcotest.(check (option int)) "latency.simulate.count" (Some 2)
    Json.(to_int_opt (member "count" lat));
  Alcotest.(check (option int)) "latency.simulate.sum_us" (Some 200)
    Json.(to_int_opt (member "sum_us" lat));
  Alcotest.(check (option int)) "latency.simulate.mean_us" (Some 100)
    Json.(to_int_opt (member "mean_us" lat))

(* ---- golden CLI runs: stdout byte-identity and span coverage ---- *)

let simulate_exe =
  (* dune runs the test binary in _build/default/test; fall back to the
     workspace-root path for manual `dune exec` runs *)
  List.find_opt Sys.file_exists
    [
      Filename.concat ".." (Filename.concat "bin" "simulate.exe");
      Filename.concat "_build"
        (Filename.concat "default" (Filename.concat "bin" "simulate.exe"));
    ]

let example program =
  List.find_opt Sys.file_exists
    [
      Filename.concat ".."
        (Filename.concat "examples" (Filename.concat "programs" program));
      Filename.concat "examples" (Filename.concat "programs" program);
    ]

let run_simulate exe ~args ~out ~err =
  Sys.command
    (Printf.sprintf "%s %s >%s 2>%s" (Filename.quote exe) args
       (Filename.quote out) (Filename.quote err))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let check_stdout_identity program =
  match (simulate_exe, example program) with
  | Some exe, Some src ->
      with_temp_file ".off" (fun off_out ->
          with_temp_file ".sum" (fun sum_out ->
              with_temp_file ".err" (fun err ->
                  let base_args = Printf.sprintf "-n 4 %s" (Filename.quote src) in
                  let c0 =
                    run_simulate exe ~args:(base_args ^ " --obs=off")
                      ~out:off_out ~err
                  in
                  Alcotest.(check int) (program ^ ": obs=off exit") 0 c0;
                  let c1 =
                    run_simulate exe ~args:(base_args ^ " --obs=summary")
                      ~out:sum_out ~err
                  in
                  Alcotest.(check int) (program ^ ": obs=summary exit") 0 c1;
                  Alcotest.(check string)
                    (program ^ ": stdout byte-identical under --obs=summary")
                    (read_file off_out) (read_file sum_out);
                  (* the summary itself lands on stderr, timing and all;
                     normalise by keeping only the first column *)
                  let summary = read_file err in
                  Alcotest.(check bool)
                    (program ^ ": summary names the engine span") true
                    (String.length summary > 0))))
  | _ -> Alcotest.skip ()

let test_golden_matmul () = check_stdout_identity "matmul.sm"
let test_golden_jacobi () = check_stdout_identity "jacobi.sm"

let test_ndjson_span_coverage () =
  match (simulate_exe, example "matmul.sm") with
  | Some exe, Some src ->
      with_temp_file ".ndjson" (fun ndjson ->
          with_temp_file ".out" (fun out ->
              with_temp_file ".err" (fun err ->
                  let code =
                    run_simulate exe
                      ~args:
                        (Printf.sprintf "-n 4 --obs=ndjson:%s %s"
                           (Filename.quote ndjson) (Filename.quote src))
                      ~out ~err
                  in
                  Alcotest.(check int) "exit" 0 code;
                  let events = span_events ndjson in
                  check_well_formed events;
                  let names =
                    List.sort_uniq compare
                      (List.map (fun (e : span_ev) -> e.name) events)
                  in
                  Alcotest.(check bool)
                    (Printf.sprintf "at least 4 distinct span names (got %s)"
                       (String.concat ", " names))
                    true
                    (List.length names >= 4);
                  List.iter
                    (fun expected ->
                      Alcotest.(check bool) ("span " ^ expected) true
                        (List.mem expected names))
                    [
                      "sched.epoch"; "sched.run"; "engine.compiled";
                      "protocol.create";
                    ])))
  | _ -> Alcotest.skip ()

let suite =
  [
    Alcotest.test_case "mode parsing round-trips" `Quick test_mode_parsing;
    QCheck_alcotest.to_alcotest prop_span_nesting;
    QCheck_alcotest.to_alcotest prop_bucket_monotone;
    Alcotest.test_case "histogram observe semantics" `Quick
      test_histogram_observe;
    Alcotest.test_case "counter atomicity across domains" `Quick
      test_counter_atomicity;
    Alcotest.test_case "ndjson round-trips through Service.Json" `Quick
      test_ndjson_round_trip;
    Alcotest.test_case "summary aggregates per span" `Quick test_span_summary;
    Alcotest.test_case "disabled path allocates nothing" `Quick
      test_disabled_path_allocates_nothing;
    Alcotest.test_case "Metrics JSON shape is preserved" `Quick
      test_metrics_json_shape;
    Alcotest.test_case "simulate --obs=summary stdout identity (matmul)"
      `Quick test_golden_matmul;
    Alcotest.test_case "simulate --obs=summary stdout identity (jacobi)"
      `Quick test_golden_jacobi;
    Alcotest.test_case "simulate --obs=ndjson span coverage" `Quick
      test_ndjson_span_coverage;
  ]
