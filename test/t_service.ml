(* The cachierd service: protocol codecs, byte-identity with the
   one-shot CLIs, caching/determinism, deadlines, overload, and
   persistence across restarts. *)

open Service

(* ---- helpers ---- *)

let small_machine = { Protocol.nodes = 4; cache_kb = 16; assoc = 4; block = 32; protocol = Memsys.Protocol_id.default }

let request ?(id = 1) ?(machine = small_machine) ?seed ?deadline_ms op =
  { Protocol.id; machine; seed; deadline_ms; op }

let memory_config =
  { Server.default_config with machine_defaults = small_machine; workers = 1 }

let with_server ?(config = memory_config) f =
  let server = Server.create config in
  Fun.protect ~finally:(fun () -> Server.shutdown server) (fun () -> f server)

let ok_payload = function
  | Protocol.Ok_response { payload; _ } -> payload
  | Protocol.Error_response { message; error; _ } ->
      Alcotest.failf "unexpected error %s: %s"
        (Protocol.error_kind_to_string error)
        message

let ok_cached = function
  | Protocol.Ok_response { cached; _ } -> cached
  | Protocol.Error_response { message; _ } ->
      Alcotest.failf "unexpected error: %s" message

let error_kind = function
  | Protocol.Error_response { error; _ } -> Protocol.error_kind_to_string error
  | Protocol.Ok_response _ -> Alcotest.fail "expected an error response"

let extra field = function
  | Protocol.Ok_response { extra; _ } -> List.assoc_opt field extra
  | Protocol.Error_response _ -> None

(* ---- JSON ---- *)

let test_json_roundtrip () =
  let samples =
    [
      {|null|};
      {|true|};
      {|-42|};
      {|3.5|};
      {|"he said \"hi\"\n\ttab \\ slash"|};
      {|[1,[2,3],{"a":null}]|};
      {|{"id":7,"op":"simulate","nested":{"x":[true,false]},"s":""}|};
    ]
  in
  List.iter
    (fun s ->
      let j = Json.of_string s in
      Alcotest.(check string) s s (Json.to_string j);
      (* reparse of the printed form is a fixpoint *)
      Alcotest.(check string) ("fixpoint " ^ s) (Json.to_string j)
        (Json.to_string (Json.of_string (Json.to_string j))))
    samples

let test_json_escapes () =
  Alcotest.(check string) "control chars escaped" "\"a\\u0001b\127\""
    (Json.to_string (Json.String "a\001b\127"));
  Alcotest.(check string) "surrogate pair" "\xf0\x9f\x99\x82"
    (match Json.of_string {|"🙂"|} with
    | Json.String s -> s
    | _ -> Alcotest.fail "expected string");
  (match Json.of_string "{\"a\":1} trailing" with
  | _ -> Alcotest.fail "trailing input accepted"
  | exception Json.Parse_error _ -> ());
  match Json.of_string "{broken" with
  | _ -> Alcotest.fail "malformed input accepted"
  | exception Json.Parse_error _ -> ()

let test_request_roundtrip () =
  let reqs =
    [
      request ~id:3 ~seed:11 ~deadline_ms:500
        (Protocol.Simulate
           { source = Bench "matmul"; annotations = true; prefetch = false;
             trace = false });
      request ~id:4
        (Protocol.Annotate
           { source = Text "begin x := 1 end"; mode = Programmer;
             prefetch = true });
      request ~id:5 (Protocol.Trace_stats { source = None; trace_text = Some "R 0 1 2 3 4 5 r" });
      request ~id:6 Protocol.Stats;
      request ~id:7 Protocol.Ping;
      request ~id:8 Protocol.Shutdown;
      request ~id:9 (Protocol.Parse { source = Bench "mp3d" });
      request ~id:10 (Protocol.Race_report { source = Bench "matmul" });
      request ~id:11 (Protocol.Races { source = Bench "mp3d" });
      request ~id:12
        (Protocol.Annotate_delta
           { base = "0123456789abcdef0123456789abcdef"; start = 3; len = 2;
             text = "42"; mode = Performance; prefetch = false });
      request ~id:13
        (Protocol.Annotate_delta
           { base = "cafe"; start = 0; len = 0; text = ""; mode = Programmer;
             prefetch = true });
    ]
  in
  List.iter
    (fun r ->
      match Protocol.request_of_json (Protocol.request_to_json r) with
      | Ok r' ->
          Alcotest.(check bool)
            (Printf.sprintf "request %d roundtrips" r.Protocol.id)
            true (r = r')
      | Error msg -> Alcotest.fail msg)
    reqs

let test_request_defaults_and_validation () =
  (match Protocol.read_request {|{"id":1,"op":"ping"}|} with
  | Ok r ->
      Alcotest.(check bool) "machine defaults applied" true
        (r.Protocol.machine = Protocol.default_machine)
  | Error msg -> Alcotest.fail msg);
  List.iter
    (fun line ->
      match Protocol.read_request line with
      | Ok _ -> Alcotest.failf "accepted %s" line
      | Error _ -> ())
    [
      {|{"id":1,"op":"no_such_op"}|};
      {|{"id":1,"op":"simulate"}|};
      (* no source *)
      {|{"id":1,"op":"ping","nodes":0}|};
      {|{"id":1,"op":"ping","block":4}|};
      {|not json at all|};
    ]

let test_response_roundtrip () =
  let rs =
    [
      Protocol.Ok_response
        { id = 2; op = "simulate"; cached = true; elapsed_us = 17;
          payload = "out\n"; extra = [ ("report", Json.String "r\n") ] };
      Protocol.Error_response
        { id = 9; error = Protocol.Overloaded; message = "queue full" };
    ]
  in
  List.iter
    (fun r ->
      match Protocol.response_of_json (Protocol.response_to_json r) with
      | Ok r' -> Alcotest.(check bool) "response roundtrips" true (r = r')
      | Error msg -> Alcotest.fail msg)
    rs

(* ---- byte-identity and caching ---- *)

(* Compose what the one-shot CLIs print through direct library calls (the
   same pipeline the binaries run) and demand the served payload is
   byte-identical. *)
let cli_simulate_output ~machine_config name =
  let machine = Protocol.to_machine machine_config in
  let bench =
    Benchmarks.Suite.find ~nodes:machine.Wwt.Machine.nodes name
  in
  let program = Lang.Parser.parse bench.Benchmarks.Suite.source in
  ignore (Lang.Sema.check program);
  let outcome =
    Wwt.Run.measure ~machine ~annotations:false ~prefetch:false program
  in
  Oneshot.simulate_report outcome

let cli_annotate_output ~machine_config ~prefetch name =
  let machine = Protocol.to_machine machine_config in
  let bench =
    Benchmarks.Suite.find ~nodes:machine.Wwt.Machine.nodes name
  in
  let program = Lang.Parser.parse bench.Benchmarks.Suite.source in
  ignore (Lang.Sema.check program);
  let options =
    { Cachier.Placement.default_options with
      mode = Cachier.Equations.Performance; prefetch }
  in
  let trace_outcome = Wwt.Run.collect_trace ~machine program in
  let result =
    Cachier.Annotate.annotate_with_trace ~machine ~options program
      trace_outcome.Wwt.Interp.trace
  in
  (Cachier.Annotate.to_source result, Oneshot.annotate_summary result)

let test_simulate_byte_identity_and_cache () =
  with_server (fun server ->
      List.iter
        (fun name ->
          let req =
            request
              (Protocol.Simulate
                 { source = Bench name; annotations = false; prefetch = false;
                   trace = false })
          in
          let cold = Server.handle server req in
          let warm = Server.handle server req in
          let expected = cli_simulate_output ~machine_config:small_machine name in
          Alcotest.(check string)
            (name ^ ": payload = CLI stdout") expected (ok_payload cold);
          Alcotest.(check string)
            (name ^ ": warm payload identical") (ok_payload cold)
            (ok_payload warm);
          Alcotest.(check bool) (name ^ ": cold miss") false (ok_cached cold);
          Alcotest.(check bool) (name ^ ": warm hit") true (ok_cached warm))
        [ "matmul"; "mp3d" ])

(* The protocol backend is part of every cache key: the same request
   under a different backend must miss (and compute different numbers),
   never serve another backend's cached payload. *)
let test_protocol_in_cache_key () =
  with_server (fun server ->
      let req protocol =
        request
          ~machine:{ small_machine with Protocol.protocol }
          (Protocol.Simulate
             { source = Bench "matmul"; annotations = false; prefetch = false;
               trace = false })
      in
      let dir = Server.handle server (req Memsys.Protocol_id.Dir1sw) in
      let sisd = Server.handle server (req Memsys.Protocol_id.Sisd) in
      let commute = Server.handle server (req Memsys.Protocol_id.Commute) in
      Alcotest.(check bool) "dir1sw cold miss" false (ok_cached dir);
      Alcotest.(check bool) "sisd misses despite warm dir1sw" false
        (ok_cached sisd);
      Alcotest.(check bool) "commute misses despite warm dir1sw/sisd" false
        (ok_cached commute);
      Alcotest.(check bool) "sisd payload differs from dir1sw" true
        (ok_payload sisd <> ok_payload dir);
      Alcotest.(check bool) "commute payload differs from dir1sw" true
        (ok_payload commute <> ok_payload dir);
      let sisd_warm = Server.handle server (req Memsys.Protocol_id.Sisd) in
      Alcotest.(check bool) "same-backend repeat hits" true
        (ok_cached sisd_warm);
      Alcotest.(check string) "warm sisd byte-identical" (ok_payload sisd)
        (ok_payload sisd_warm))

let test_annotate_byte_identity_and_cache () =
  with_server (fun server ->
      List.iter
        (fun name ->
          let req =
            request
              (Protocol.Annotate
                 { source = Bench name; mode = Performance; prefetch = false })
          in
          let cold = Server.handle server req in
          let warm = Server.handle server req in
          let expected_out, expected_summary =
            cli_annotate_output ~machine_config:small_machine ~prefetch:false
              name
          in
          Alcotest.(check string)
            (name ^ ": payload = cachier stdout") expected_out
            (ok_payload cold);
          Alcotest.(check string)
            (name ^ ": warm byte-identical to cold") (ok_payload cold)
            (ok_payload warm);
          Alcotest.(check bool) (name ^ ": warm hit") true (ok_cached warm);
          match (extra "report" cold, extra "report" warm) with
          | Some (Json.String c), Some (Json.String w) ->
              Alcotest.(check string)
                (name ^ ": report = cachier stderr") expected_summary c;
              Alcotest.(check string)
                (name ^ ": warm report identical") c w
          | _ -> Alcotest.fail "annotate response missing report")
        [ "matmul"; "mp3d" ])

(* annotate_delta: the incremental path must be byte-identical to a
   from-scratch annotate of the edited text, repeats must hit the delta
   cache, and the result must be written through so a plain annotate of
   the edited source is already warm. *)
let test_annotate_delta_byte_identity_and_cache () =
  with_server (fun server ->
      let base =
        Server.handle server
          (request
             (Protocol.Annotate
                { source = Bench "matmul"; mode = Performance;
                  prefetch = false }))
      in
      let artifact =
        match extra "artifact" base with
        | Some (Json.String a) -> a
        | _ -> Alcotest.fail "annotate response missing artifact id"
      in
      let source = (Benchmarks.Suite.find ~nodes:4 "matmul").source in
      let span, v =
        match Delta.Splice.int_literals source with
        | [] -> Alcotest.fail "matmul has no int-literal edit candidates"
        | (span, v) :: _ -> (span, v)
      in
      let text = string_of_int (v + 1) in
      let edited = Delta.Splice.apply_edit source span text in
      let delta_req =
        request
          (Protocol.Annotate_delta
             { base = artifact; start = span.Delta.Splice.start;
               len = span.Delta.Splice.len; text; mode = Performance;
               prefetch = false })
      in
      let delta = Server.handle server delta_req in
      let delta2 = Server.handle server delta_req in
      (* from-scratch annotation of the identical edited text, on a fresh
         server so nothing the delta path wrote through can leak in *)
      let scratch =
        with_server (fun fresh ->
            ok_payload
              (Server.handle fresh
                 (request
                    (Protocol.Annotate
                       { source = Text edited; mode = Performance;
                         prefetch = false }))))
      in
      Alcotest.(check string) "delta payload = from-scratch annotate" scratch
        (ok_payload delta);
      Alcotest.(check bool) "first delta is a miss" false (ok_cached delta);
      Alcotest.(check bool) "repeat delta is a hit" true (ok_cached delta2);
      Alcotest.(check string) "repeat payload identical" (ok_payload delta)
        (ok_payload delta2);
      (match extra "reuse" delta with
      | Some (Json.String r) ->
          Alcotest.(check bool)
            (Printf.sprintf "reuse %S is a known outcome" r)
            true
            (r = "noop" || r = "plan-reuse"
            || String.length r >= 5 && String.sub r 0 5 = "resim")
      | _ -> Alcotest.fail "delta response missing reuse extra");
      (match extra "reuse" delta2 with
      | Some (Json.String r) -> Alcotest.(check string) "hit reuse" "cached" r
      | _ -> Alcotest.fail "cached delta response missing reuse extra");
      (* write-through: a plain annotate of the edited text is warm *)
      let warm =
        Server.handle server
          (request
             (Protocol.Annotate
                { source = Text edited; mode = Performance; prefetch = false }))
      in
      Alcotest.(check bool) "plain annotate of edited text is warm" true
        (ok_cached warm);
      Alcotest.(check string) "write-through payload identical"
        (ok_payload delta) (ok_payload warm);
      (* a no-op edit reproduces the base annotation *)
      let noop =
        Server.handle server
          (request
             (Protocol.Annotate_delta
                { base = artifact; start = 0; len = 0; text = "";
                  mode = Performance; prefetch = false }))
      in
      Alcotest.(check string) "no-op edit reproduces the base payload"
        (ok_payload base) (ok_payload noop);
      match extra "reuse" noop with
      | Some (Json.String r) -> Alcotest.(check string) "no-op reuse" "noop" r
      | _ -> Alcotest.fail "no-op delta response missing reuse extra")

let test_annotate_delta_errors () =
  with_server (fun server ->
      let unknown =
        Server.handle server
          (request
             (Protocol.Annotate_delta
                { base = "feedfacefeedfacefeedfacefeedface"; start = 0;
                  len = 0; text = ""; mode = Performance; prefetch = false }))
      in
      Alcotest.(check string) "unknown base rejected" "bad_request"
        (error_kind unknown);
      let artifact =
        match
          extra "artifact"
            (Server.handle server
               (request
                  (Protocol.Annotate
                     { source = Bench "matmul"; mode = Performance;
                       prefetch = false })))
        with
        | Some (Json.String a) -> a
        | _ -> Alcotest.fail "annotate response missing artifact id"
      in
      let oob =
        Server.handle server
          (request
             (Protocol.Annotate_delta
                { base = artifact; start = 1_000_000; len = 1; text = "x";
                  mode = Performance; prefetch = false }))
      in
      Alcotest.(check string) "out-of-bounds span rejected" "bad_request"
        (error_kind oob);
      let seeded =
        Server.handle server
          (request ~seed:7
             (Protocol.Annotate_delta
                { base = artifact; start = 0; len = 0; text = "";
                  mode = Performance; prefetch = false }))
      in
      Alcotest.(check string) "seed substitution rejected" "bad_request"
        (error_kind seeded))

let test_parse_and_race_and_trace_stats () =
  with_server (fun server ->
      let parse =
        Server.handle server (request (Protocol.Parse { source = Bench "matmul" }))
      in
      let bench = Benchmarks.Suite.find ~nodes:4 "matmul" in
      let program = Lang.Parser.parse bench.Benchmarks.Suite.source in
      ignore (Lang.Sema.check program);
      Alcotest.(check string) "parse payload is the pretty program"
        (Oneshot.parse_report program) (ok_payload parse);
      let race =
        Server.handle server
          (request (Protocol.Race_report { source = Bench "matmul" }))
      in
      Alcotest.(check bool) "race report non-empty" true
        (String.length (ok_payload race) > 0);
      let machine = Protocol.to_machine small_machine in
      let outcome = Wwt.Run.collect_trace ~machine program in
      (* the races op serves the exact simulate --races payload *)
      let races =
        Server.handle server (request (Protocol.Races { source = Bench "matmul" }))
      in
      Alcotest.(check string) "races payload = detector render"
        (Oneshot.races_report ~nodes:4 outcome.Wwt.Interp.trace)
        (ok_payload races);
      let races2 =
        Server.handle server (request (Protocol.Races { source = Bench "matmul" }))
      in
      Alcotest.(check bool) "second races request is cached" true
        (ok_cached races2);
      Alcotest.(check string) "cached races byte-identical"
        (ok_payload races) (ok_payload races2);
      let ts =
        Server.handle server
          (request
             (Protocol.Trace_stats { source = Some (Bench "matmul");
                                     trace_text = None }))
      in
      Alcotest.(check string) "trace_stats payload = CLI stdout"
        (Oneshot.trace_stats_report ~nodes:4 outcome.Wwt.Interp.trace)
        (ok_payload ts);
      (* second trace-derived request reuses the cached trace *)
      let ts2 =
        Server.handle server
          (request
             (Protocol.Trace_stats { source = Some (Bench "matmul");
                                     trace_text = None }))
      in
      Alcotest.(check bool) "second trace_stats hits" true (ok_cached ts2))

let test_race_report_stage () =
  with_server (fun server ->
      let req = request (Protocol.Race_report { source = Bench "matmul" }) in
      let m = Server.metrics server in
      let counts () =
        [
          Metrics.hits m ~stage:"race_report";
          Metrics.misses m ~stage:"race_report";
          Metrics.hits m ~stage:"annotate";
          Metrics.misses m ~stage:"annotate";
        ]
      in
      let cold = Server.handle server req in
      Alcotest.(check (list int))
        "miss: race_report hits/misses, annotate hits/misses" [ 0; 1; 0; 0 ]
        (counts ());
      let warm = Server.handle server req in
      Alcotest.(check bool) "repeat is cached" true (ok_cached warm);
      Alcotest.(check string) "repeat byte-identical" (ok_payload cold)
        (ok_payload warm);
      Alcotest.(check (list int))
        "hit: race_report hits/misses, annotate hits/misses" [ 1; 1; 0; 0 ]
        (counts ());
      (* the payload is the report a full annotation attaches *)
      let bench = Benchmarks.Suite.find ~nodes:4 "matmul" in
      let r =
        Cachier.Annotate.annotate_source
          ~machine:(Protocol.to_machine small_machine)
          ~options:Cachier.Placement.default_options bench.Benchmarks.Suite.source
      in
      Alcotest.(check string) "payload = annotate's report"
        (Cachier.Report.to_string r.Cachier.Annotate.report ^ "\n")
        (ok_payload cold))

let test_malformed_inline_trace () =
  with_server (fun server ->
      let r =
        Server.handle server
          (request
             (Protocol.Trace_stats
                { source = None; trace_text = Some "R not-a-trace" }))
      in
      Alcotest.(check string) "malformed trace is parse_error" "parse_error"
        (error_kind r))

let test_unknown_benchmark () =
  with_server (fun server ->
      let r =
        Server.handle server
          (request (Protocol.Parse { source = Bench "nonesuch" }))
      in
      Alcotest.(check string) "unknown benchmark" "unknown_benchmark"
        (error_kind r))

let test_seed_distinguishes_cache_entries () =
  with_server (fun server ->
      let simulate seed =
        Server.handle server
          (request ?seed
             (Protocol.Simulate
                { source =
                    Text
                      "const SEED = 1;\n\
                       shared a[16];\n\
                       proc main() {\n\
                       \  for i = 0 to 15 { a[i] = SEED + i; }\n\
                       }\n";
                  annotations = false; prefetch = false; trace = false }))
      in
      let a = simulate (Some 1) in
      let b = simulate (Some 2) in
      let a' = simulate (Some 1) in
      Alcotest.(check bool) "different seeds are different entries" false
        (ok_cached b);
      Alcotest.(check bool) "same seed hits" true (ok_cached a');
      Alcotest.(check string) "hit is byte-identical" (ok_payload a)
        (ok_payload a'))

(* ---- deadlines ---- *)

let test_deadline_exceeded_leaves_pool_serving () =
  with_server (fun server ->
      let sim =
        request ~deadline_ms:5
          (Protocol.Simulate
             { source = Bench "matmul"; annotations = false; prefetch = false;
               trace = false })
      in
      (* anchor the request a second in the past so the deadline has
         already expired however fast the machine is *)
      let received = Unix.gettimeofday () -. 1.0 in
      let r = Server.handle ~received server sim in
      Alcotest.(check string) "deadline exceeded" "deadline_exceeded"
        (error_kind r);
      (* the server must keep serving afterwards *)
      let ok =
        Server.handle server
          (request
             (Protocol.Simulate
                { source = Bench "matmul"; annotations = false;
                  prefetch = false; trace = false }))
      in
      Alcotest.(check bool) "subsequent request succeeds" true
        (String.length (ok_payload ok) > 0))

let test_deadline_cancels_running_simulation () =
  with_server (fun server ->
      (* an unsatisfiable deadline anchored now: the poll hook must abandon
         the simulation mid-flight rather than run it to completion *)
      let r =
        Server.handle server
          (request ~deadline_ms:0
             (Protocol.Simulate
                { source = Bench "mp3d"; annotations = false; prefetch = false;
                  trace = false }))
      in
      Alcotest.(check string) "cancelled mid-simulation" "deadline_exceeded"
        (error_kind r);
      let ok =
        Server.handle server
          (request
             (Protocol.Simulate
                { source = Bench "matmul"; annotations = false;
                  prefetch = false; trace = false }))
      in
      Alcotest.(check bool) "still serving" true
        (String.length (ok_payload ok) > 0))

(* ---- the NDJSON loop: overload and shutdown ---- *)

let serve_lines ~config lines =
  (* run [serve] over pipes, feed it [lines], return the response lines *)
  let req_r, req_w = Unix.pipe () and resp_r, resp_w = Unix.pipe () in
  let ic = Unix.in_channel_of_descr req_r
  and oc = Unix.out_channel_of_descr resp_w in
  let writer = Unix.out_channel_of_descr req_w
  and reader = Unix.in_channel_of_descr resp_r in
  let server = Server.create config in
  let outcome = ref `Eof in
  let server_domain =
    Domain.spawn (fun () ->
        outcome := Server.serve server ic oc;
        close_out_noerr oc)
  in
  List.iter (fun l -> output_string writer (l ^ "\n")) lines;
  close_out writer;
  let responses = ref [] in
  (try
     while true do
       responses := input_line reader :: !responses
     done
   with End_of_file -> ());
  Domain.join server_domain;
  Server.shutdown server;
  close_in_noerr ic;
  close_in_noerr reader;
  (!outcome, List.rev_map Json.of_string !responses)

let response_by_id id responses =
  match
    List.find_opt
      (fun j -> Json.(to_int_opt (member "id" j)) = Some id)
      responses
  with
  | Some j -> j
  | None -> Alcotest.failf "no response with id %d" id

let test_serve_overload_structured_error () =
  (* capacity 0: every pooled request is refused deterministically *)
  let config =
    { memory_config with workers = 1; queue_capacity = 0 }
  in
  let outcome, responses =
    serve_lines ~config
      [
        {|{"id":1,"op":"simulate","bench":"matmul","nodes":4}|};
        {|{"id":2,"op":"ping"}|};
      ]
  in
  Alcotest.(check bool) "eof outcome" true (outcome = `Eof);
  let overloaded = response_by_id 1 responses in
  Alcotest.(check (option string)) "structured overloaded error"
    (Some "overloaded")
    Json.(to_string_opt (member "error" overloaded));
  (* ping is handled on the reader thread and still answered *)
  let ping = response_by_id 2 responses in
  Alcotest.(check (option string)) "ping still served" (Some "ping")
    Json.(to_string_opt (member "op" ping))

let test_serve_shutdown_and_bad_line () =
  let outcome, responses =
    serve_lines ~config:memory_config
      [
        {|this is not json|};
        {|{"id":41,"op":"simulate","bench":"matmul","nodes":4}|};
        {|{"id":42,"op":"shutdown"}|};
      ]
  in
  Alcotest.(check bool) "shutdown outcome" true (outcome = `Shutdown);
  let bad = response_by_id 0 responses in
  Alcotest.(check (option string)) "bad line -> bad_request"
    (Some "bad_request")
    Json.(to_string_opt (member "error" bad));
  let sim = response_by_id 41 responses in
  Alcotest.(check bool) "in-flight request answered before shutdown" true
    (Json.(to_string_opt (member "payload" sim)) <> None);
  ignore (response_by_id 42 responses)

(* ---- persistence across restarts ---- *)

let test_trace_persistence_across_restart () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "cachierd_test_%d" (Unix.getpid ()))
  in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      (* best-effort: a failing removal must not mask the test outcome or
         abandon the remaining files *)
      Array.iter
        (fun f ->
          try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (try Sys.readdir dir with Sys_error _ -> [||]);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () ->
      let config = { memory_config with cache_dir = Some dir } in
      let trace_req =
        request
          (Protocol.Simulate
             { source = Bench "matmul"; annotations = false; prefetch = false;
               trace = true })
      in
      let ann_req =
        request
          (Protocol.Annotate
             { source = Bench "matmul"; mode = Performance; prefetch = false })
      in
      let cold_trace, cold_ann =
        with_server ~config (fun server ->
            ( ok_payload (Server.handle server trace_req),
              ok_payload (Server.handle server ann_req) ))
      in
      Alcotest.(check bool) "trace file persisted" true
        (Array.exists
           (fun f -> Filename.check_suffix f ".trace")
           (Sys.readdir dir));
      (* a fresh process-equivalent: new server, same cache_dir — the
         trace stage must come from disk, skipping simulation *)
      with_server ~config (fun server ->
          let warm = Server.handle server trace_req in
          Alcotest.(check bool) "restart serves from disk" true
            (ok_cached warm);
          Alcotest.(check string) "disk-warm byte-identical" cold_trace
            (ok_payload warm);
          (* annotation recomputed from the persisted trace is identical *)
          Alcotest.(check string) "annotate identical across restart" cold_ann
            (ok_payload (Server.handle server ann_req))))

(* ---- the two-tier cache: every priced stage survives a restart ---- *)

let with_cache_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "cachierd_tier_%d_%d" (Unix.getpid ()) (Random.bits ()))
  in
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f ->
          try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (try Sys.readdir dir with Sys_error _ -> [||]);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let test_two_tier_restart_all_stages () =
  with_cache_dir (fun dir ->
      let config = { memory_config with cache_dir = Some dir } in
      let reqs =
        [
          ( "simulate",
            request
              (Protocol.Simulate
                 { source = Bench "matmul"; annotations = false;
                   prefetch = false; trace = false }) );
          ( "annotate",
            request
              (Protocol.Annotate
                 { source = Bench "matmul"; mode = Performance;
                   prefetch = false }) );
          ( "race_report",
            request (Protocol.Race_report { source = Bench "matmul" }) );
          ("races", request (Protocol.Races { source = Bench "matmul" }));
          ( "trace_stats",
            request
              (Protocol.Trace_stats
                 { source = Some (Bench "matmul"); trace_text = None }) );
        ]
      in
      let cold =
        with_server ~config (fun server ->
            List.map
              (fun (name, req) -> (name, Server.handle server req))
              reqs)
      in
      (* fresh server, same directory: every stage must be answered from
         the disk tier, byte-identically, without simulating *)
      with_server ~config (fun server ->
          List.iter2
            (fun (name, req) (_, cold_resp) ->
              let warm = Server.handle server req in
              Alcotest.(check bool) (name ^ " warm from disk") true
                (ok_cached warm);
              Alcotest.(check string) (name ^ " byte-identical")
                (ok_payload cold_resp) (ok_payload warm);
              match (extra "report" cold_resp, extra "report" warm) with
              | Some c, Some w ->
                  Alcotest.(check string) (name ^ " summary restored")
                    (Json.to_string c) (Json.to_string w)
              | None, None -> ()
              | _ -> Alcotest.failf "%s: report field lost across restart" name)
            reqs cold;
          Alcotest.(check int) "no simulation after restart" 0
            (Metrics.misses (Server.metrics server) ~stage:"trace"
            + Metrics.misses (Server.metrics server) ~stage:"measure"
            + Metrics.misses (Server.metrics server) ~stage:"annotate");
          match Server.store server with
          | Some s ->
              Alcotest.(check bool) "disk hits recorded" true (Store.hits s > 0)
          | None -> Alcotest.fail "server has no store"))

let test_corrupt_artifact_degrades_to_miss () =
  with_cache_dir (fun dir ->
      let config = { memory_config with cache_dir = Some dir } in
      let ann =
        request
          (Protocol.Annotate
             { source = Bench "matmul"; mode = Performance; prefetch = false })
      in
      let cold =
        with_server ~config (fun server -> Server.handle server ann)
      in
      (* smash every artifact on disk *)
      Array.iter
        (fun f ->
          if Filename.check_suffix f ".art" || Filename.check_suffix f ".trace"
          then begin
            let oc = open_out_bin (Filename.concat dir f) in
            output_string oc "\x00garbage";
            close_out oc
          end)
        (Sys.readdir dir);
      with_server ~config (fun server ->
          let resp = Server.handle server ann in
          Alcotest.(check bool) "recomputed, not failed" true
            (match resp with Protocol.Ok_response _ -> true | _ -> false);
          Alcotest.(check bool) "recomputed from scratch" false
            (ok_cached resp);
          Alcotest.(check string) "recomputation byte-identical"
            (ok_payload cold) (ok_payload resp);
          match Server.store server with
          | Some s ->
              Alcotest.(check bool) "corruption counted" true
                (Store.corrupt s > 0)
          | None -> Alcotest.fail "server has no store"))

(* A corrupted persisted race report must degrade to a miss and be
   recomputed byte-identically — never surface as a failed request. *)
let test_corrupt_races_report_degrades_to_miss () =
  with_cache_dir (fun dir ->
      let config = { memory_config with cache_dir = Some dir } in
      let races = request (Protocol.Races { source = Bench "matmul" }) in
      let cold =
        with_server ~config (fun server -> Server.handle server races)
      in
      Array.iter
        (fun f ->
          if Filename.check_suffix f ".art" || Filename.check_suffix f ".trace"
          then begin
            let oc = open_out_bin (Filename.concat dir f) in
            output_string oc "\x00garbage";
            close_out oc
          end)
        (Sys.readdir dir);
      with_server ~config (fun server ->
          let resp = Server.handle server races in
          Alcotest.(check bool) "recomputed, not failed" true
            (match resp with Protocol.Ok_response _ -> true | _ -> false);
          Alcotest.(check bool) "served as a miss" false (ok_cached resp);
          Alcotest.(check string) "recomputed report byte-identical"
            (ok_payload cold) (ok_payload resp)))

(* ---- the sharded socket front end ---- *)

let await ?(timeout = 10.0) pred =
  let deadline = Unix.gettimeofday () +. timeout in
  while (not (pred ())) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  pred ()

let connect_sock path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
  fd

let write_str fd s =
  let b = Bytes.of_string s in
  let off = ref 0 in
  while !off < Bytes.length b do
    off := !off + Unix.write fd b !off (Bytes.length b - !off)
  done

let read_json_lines fd n =
  let framing = Aio.Framing.create () in
  let buf = Bytes.create 8192 in
  let lines = ref [] in
  while List.length !lines < n do
    (match Unix.read fd buf 0 (Bytes.length buf) with
    | 0 -> Alcotest.fail "server closed the connection early"
    | got -> Aio.Framing.feed framing buf 0 got
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        Alcotest.fail "timed out waiting for a response");
    let rec drain () =
      match Aio.Framing.next_line framing with
      | Some l ->
          lines := Json.of_string l :: !lines;
          drain ()
      | None -> ()
    in
    drain ()
  done;
  List.rev !lines

let with_shard_server ?(config = memory_config) ?(listeners = 2) f =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "cachierd_shard_%d_%d.sock" (Unix.getpid ())
         (Random.bits ()))
  in
  let server = Server.create config in
  let stop = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        Server.serve_shards server ~path
          ~options:
            { Server.listeners; idle_timeout_s = 30.; drain_grace_s = 5. }
          ~stop ())
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join d;
      Server.shutdown server)
    (fun () ->
      Alcotest.(check bool) "socket appears" true
        (await (fun () -> Sys.file_exists path));
      f ~path ~server ~stop)

let sim_line ~id =
  Printf.sprintf
    {|{"id":%d,"op":"simulate","bench":"matmul","nodes":4,"cache_kb":16}|} id

let test_shard_server_end_to_end () =
  (* the reference payload comes from the in-process path: the socket
     front end must serve the same bytes *)
  let reference =
    with_server (fun server ->
        ok_payload
          (Server.handle server
             (request
                (Protocol.Simulate
                   { source = Bench "matmul"; annotations = false;
                     prefetch = false; trace = false }))))
  in
  with_shard_server (fun ~path ~server:_ ~stop:_ ->
      let fd = connect_sock path in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          (* one request split at pathological byte boundaries, with a
             pipelined ping in the same final chunk *)
          let line = sim_line ~id:7 in
          write_str fd (String.sub line 0 5);
          Unix.sleepf 0.05;
          write_str fd (String.sub line 5 (String.length line - 5));
          write_str fd "\n{\"id\":8,\"op\":\"ping\"}\n";
          let responses = read_json_lines fd 2 in
          let by_id id =
            match
              List.find_opt
                (fun j -> Json.(to_int_opt (member "id" j)) = Some id)
                responses
            with
            | Some j -> j
            | None -> Alcotest.failf "no response with id %d" id
          in
          Alcotest.(check (option string)) "socket payload byte-identical"
            (Some reference)
            Json.(to_string_opt (member "payload" (by_id 7)));
          Alcotest.(check (option string)) "pipelined ping answered"
            (Some "pong")
            Json.(to_string_opt (member "payload" (by_id 8)));
          (* same request again: served from the artifact cache *)
          write_str fd (sim_line ~id:9 ^ "\n");
          match read_json_lines fd 1 with
          | [ j ] ->
              Alcotest.(check (option bool)) "warm hit over socket"
                (Some true)
                Json.(
                  match member "cached" j with
                  | Bool b -> Some b
                  | _ -> None);
              Alcotest.(check (option string)) "warm hit byte-identical"
                (Some reference)
                Json.(to_string_opt (member "payload" j))
          | _ -> Alcotest.fail "expected one response"))

let test_shard_server_concurrent_conns () =
  with_shard_server (fun ~path ~server:_ ~stop:_ ->
      let fd1 = connect_sock path and fd2 = connect_sock path in
      Fun.protect
        ~finally:(fun () ->
          (try Unix.close fd1 with Unix.Unix_error _ -> ());
          try Unix.close fd2 with Unix.Unix_error _ -> ())
        (fun () ->
          (* interleave partial writes across two connections *)
          let l1 = sim_line ~id:21 and l2 = sim_line ~id:22 in
          write_str fd1 (String.sub l1 0 10);
          write_str fd2 (String.sub l2 0 17);
          write_str fd1 (String.sub l1 10 (String.length l1 - 10) ^ "\n");
          write_str fd2 (String.sub l2 17 (String.length l2 - 17) ^ "\n");
          let r1 = read_json_lines fd1 1 and r2 = read_json_lines fd2 1 in
          let payload j = Json.(to_string_opt (member "payload" j)) in
          Alcotest.(check bool) "conn1 answered its own request" true
            (Json.(to_int_opt (member "id" (List.hd r1))) = Some 21);
          Alcotest.(check bool) "conn2 answered its own request" true
            (Json.(to_int_opt (member "id" (List.hd r2))) = Some 22);
          Alcotest.(check bool) "identical work, identical bytes" true
            (payload (List.hd r1) = payload (List.hd r2)
            && payload (List.hd r1) <> None)))

let test_shard_server_shutdown_request () =
  let path_holder = ref "" in
  with_shard_server (fun ~path ~server:_ ~stop:_ ->
      path_holder := path;
      let fd = connect_sock path in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          (* a work request immediately followed by shutdown: both are
             answered, then the server drains and exits *)
          write_str fd (sim_line ~id:31 ^ "\n");
          write_str fd {|{"id":32,"op":"shutdown"}|};
          write_str fd "\n";
          let responses = read_json_lines fd 2 in
          Alcotest.(check int) "both answered" 2 (List.length responses)));
  (* with_shard_server joined the domain: serve_shards returned and
     removed the socket file *)
  Alcotest.(check bool) "socket file removed" false
    (Sys.file_exists !path_holder)

(* a disconnect mid-request must not wedge the server *)
let test_shard_server_mid_request_disconnect () =
  with_shard_server (fun ~path ~server:_ ~stop:_ ->
      let fd = connect_sock path in
      write_str fd (String.sub (sim_line ~id:41) 0 12);
      Unix.close fd;
      (* the server keeps serving *)
      let fd2 = connect_sock path in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd2 with Unix.Unix_error _ -> ())
        (fun () ->
          write_str fd2 "{\"id\":42,\"op\":\"ping\"}\n";
          Alcotest.(check int) "still serving after disconnect" 1
            (List.length (read_json_lines fd2 1))))

(* ---- stats ---- *)

let test_stats_counters () =
  with_server (fun server ->
      let sim =
        request
          (Protocol.Simulate
             { source = Bench "matmul"; annotations = false; prefetch = false;
               trace = false })
      in
      ignore (Server.handle server sim);
      ignore (Server.handle server sim);
      match Server.handle server (request Protocol.Stats) with
      | Protocol.Ok_response { extra; _ } -> (
          match List.assoc_opt "stats" extra with
          | Some stats ->
              Alcotest.(check (option int)) "requests counted" (Some 2)
                Json.(to_int_opt (member "requests" stats));
              Alcotest.(check (option int)) "simulate latency histogram"
                (Some 2)
                Json.(
                  to_int_opt
                    (member "count" (member "simulate" (member "latency" stats))));
              Alcotest.(check (option int)) "measure-stage hit counted"
                (Some 1)
                Json.(to_int_opt (member "measure" (member "hits" stats)))
          | None -> Alcotest.fail "stats response missing stats field")
      | Protocol.Error_response { message; _ } -> Alcotest.fail message)

let suite =
  [
    Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "json escapes and errors" `Quick test_json_escapes;
    Alcotest.test_case "request roundtrip" `Quick test_request_roundtrip;
    Alcotest.test_case "request defaults and validation" `Quick
      test_request_defaults_and_validation;
    Alcotest.test_case "response roundtrip" `Quick test_response_roundtrip;
    Alcotest.test_case "simulate byte-identity + cache" `Quick
      test_simulate_byte_identity_and_cache;
    Alcotest.test_case "protocol backend is part of the cache key" `Quick
      test_protocol_in_cache_key;
    Alcotest.test_case "annotate byte-identity + cache" `Quick
      test_annotate_byte_identity_and_cache;
    Alcotest.test_case "annotate_delta byte-identity + cache" `Quick
      test_annotate_delta_byte_identity_and_cache;
    Alcotest.test_case "annotate_delta rejects bad requests" `Quick
      test_annotate_delta_errors;
    Alcotest.test_case "parse / race_report / trace_stats" `Quick
      test_parse_and_race_and_trace_stats;
    Alcotest.test_case "race_report books its own stage" `Quick
      test_race_report_stage;
    Alcotest.test_case "malformed inline trace" `Quick
      test_malformed_inline_trace;
    Alcotest.test_case "unknown benchmark" `Quick test_unknown_benchmark;
    Alcotest.test_case "seed distinguishes cache entries" `Quick
      test_seed_distinguishes_cache_entries;
    Alcotest.test_case "deadline exceeded leaves pool serving" `Quick
      test_deadline_exceeded_leaves_pool_serving;
    Alcotest.test_case "deadline cancels a running simulation" `Quick
      test_deadline_cancels_running_simulation;
    Alcotest.test_case "serve: overload is a structured error" `Quick
      test_serve_overload_structured_error;
    Alcotest.test_case "serve: shutdown drains, bad lines answered" `Quick
      test_serve_shutdown_and_bad_line;
    Alcotest.test_case "trace persistence across restart" `Quick
      test_trace_persistence_across_restart;
    Alcotest.test_case "two-tier: all stages survive a restart" `Quick
      test_two_tier_restart_all_stages;
    Alcotest.test_case "corrupt artifact degrades to miss" `Quick
      test_corrupt_artifact_degrades_to_miss;
    Alcotest.test_case "corrupt races report degrades to miss" `Quick
      test_corrupt_races_report_degrades_to_miss;
    Alcotest.test_case "shards: end-to-end over the socket" `Quick
      test_shard_server_end_to_end;
    Alcotest.test_case "shards: concurrent connections" `Quick
      test_shard_server_concurrent_conns;
    Alcotest.test_case "shards: shutdown request drains and exits" `Quick
      test_shard_server_shutdown_request;
    Alcotest.test_case "shards: mid-request disconnect" `Quick
      test_shard_server_mid_request_disconnect;
    Alcotest.test_case "stats counters" `Quick test_stats_counters;
  ]
