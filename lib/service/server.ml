type config = {
  machine_defaults : Protocol.machine_config;
  budget_bytes : int;
  cache_dir : string option;
  workers : int;
  queue_capacity : int;
}

let default_config =
  {
    machine_defaults = Protocol.default_machine;
    budget_bytes = 64 * 1024 * 1024;
    cache_dir = None;
    workers = 2;
    queue_capacity = 64;
  }

(* Global observability seams (the per-server [Metrics.t] remains the
   protocol-visible stats source; these feed the process-wide --obs
   pipeline). Updates are gated on [Obs.enabled]. *)
let obs_requests = Obs.Registry.counter "service.requests"
let obs_cache_hits = Obs.Registry.counter "service.cache_hits"
let obs_cache_misses = Obs.Registry.counter "service.cache_misses"
let obs_coalesced = Obs.Registry.counter "service.coalesced"

(* Stage artifacts. ASTs are cached post-sema and treated as immutable by
   every consumer (the engines and the annotator copy before rewriting),
   so one cached program may serve concurrent requests. *)
type artifact =
  | Ast of Lang.Ast.program
  | Trace_art of { records : Trace.Event.record list; payload : string }
  | Annotate_art of { payload : string; summary : string }
  | Text of string

type t = {
  config : config;
  cache : artifact Cache.t;  (* hot tier: in-memory, byte-budgeted LRU *)
  store : Store.t option;  (* cold tier: on-disk artifact files *)
  flight : (string * bool * (string * Json.t) list) Flight.t;
  metrics : Metrics.t;
  pool : Wwt.Jobs.Pool.t;
  dag : Delta.Dag.t;  (* incremental-annotation artifact DAG *)
}

let create config =
  {
    config;
    cache = Cache.create ~budget:config.budget_bytes;
    store = Option.map (fun dir -> Store.create ~dir) config.cache_dir;
    flight = Flight.create ();
    metrics = Metrics.create ();
    pool =
      Wwt.Jobs.Pool.create ~workers:(max 1 config.workers)
        ~capacity:config.queue_capacity ();
    dag = Delta.Dag.create ();
  }

let shutdown t = Wwt.Jobs.Pool.shutdown t.pool
let cache_bytes t = Cache.size t.cache
let cache_entries t = Cache.entries t.cache
let cache_evictions t = Cache.evictions t.cache
let metrics t = t.metrics
let store t = t.store
let dag t = t.dag

(* ------------------------------------------------------------------ *)
(* cache keys and sizes                                                *)

let stage_key ~stage ~machine ~seed ~source_digest =
  Printf.sprintf "%s|%s|n%d:c%d:a%d:b%d:p%s|%s" stage source_digest
    machine.Protocol.nodes machine.Protocol.cache_kb machine.Protocol.assoc
    machine.Protocol.block
    (Memsys.Protocol_id.to_string machine.Protocol.protocol)
    (match seed with Some s -> string_of_int s | None -> "-")

let digest_hex s = Digest.to_hex (Digest.string s)

(* sizes are estimates: the cache budgets memory, it does not meter it *)
let ast_size source = 64 + (8 * String.length source)
let trace_size records payload = (48 * List.length records) + String.length payload

(* ------------------------------------------------------------------ *)
(* request execution                                                   *)

exception Reject of Protocol.error_kind * string

let resolve_source ~nodes = function
  | Protocol.Text s -> s
  | Protocol.Bench name -> (
      match Benchmarks.Suite.find ~nodes name with
      | b -> b.Benchmarks.Suite.source
      | exception Not_found ->
          raise
            (Reject
               ( Protocol.Unknown_benchmark,
                 Printf.sprintf "unknown benchmark %S (expected one of %s)"
                   name
                   (String.concat ", " Benchmarks.Suite.names) )))

let make_poll ~received = function
  | None -> None
  | Some ms ->
      let deadline = received +. (float_of_int ms /. 1000.) in
      Some
        (fun () ->
          if Unix.gettimeofday () > deadline then
            raise
              (Wwt.Sched.Cancelled
                 (Printf.sprintf "deadline of %d ms exceeded" ms)))

let check_deadline ~received = function
  | Some ms when Unix.gettimeofday () > received +. (float_of_int ms /. 1000.)
    ->
      raise
        (Reject
           ( Protocol.Deadline_exceeded,
             Printf.sprintf "deadline of %d ms exceeded before execution" ms ))
  | _ -> ()

(* Stage: parse (+ sema + optional reseed). Machine-independent, so the
   key carries only source digest and seed. *)
let parsed_program t ~source ~seed =
  let key =
    stage_key ~stage:"parse" ~machine:Protocol.default_machine ~seed
      ~source_digest:(digest_hex source)
  in
  match Cache.get t.cache key with
  | Some (Ast p) ->
      Metrics.record_hit t.metrics ~stage:"parse";
      p
  | _ ->
      Metrics.record_miss t.metrics ~stage:"parse";
      let p = Lang.Parser.parse source in
      ignore (Lang.Sema.check p);
      let p =
        match seed with
        | Some s -> Lang.Ast_util.set_const p "SEED" s
        | None -> p
      in
      Cache.put t.cache ~key ~size:(ast_size source) (Ast p);
      p

(* The two-tier lookup for text-shaped artifacts: hot in-memory entry,
   then the disk store, then compute. A disk hit is promoted into the
   hot tier; a computed artifact is written through to both. *)
let text_tiers t ~key ~stage ~wrap ~unwrap ~compute =
  match Option.map unwrap (Cache.get t.cache key) with
  | Some (Some v) ->
      Metrics.record_hit t.metrics ~stage;
      (v, true)
  | _ -> (
      let from_disk =
        match t.store with
        | Some s -> Store.get_text s ~key
        | None -> None
      in
      match Option.bind from_disk (fun (payload, summary) -> wrap payload summary) with
      | Some (v, size, art) ->
          Metrics.record_hit t.metrics ~stage;
          Cache.put t.cache ~key ~size art;
          (v, true)
      | None ->
          Metrics.record_miss t.metrics ~stage;
          let v, size, art, payload, summary = compute () in
          Cache.put t.cache ~key ~size art;
          (match t.store with
          | Some s -> Store.put_text s ~key ?summary payload
          | None -> ());
          (v, false))

(* Stage: trace-mode simulation (shared by simulate --trace, annotate,
   race_report and trace_stats). Returns the artifact and whether it came
   from the cache (memory or disk). *)
let trace_stage t ~machine ~seed ~source ~poll =
  let key =
    stage_key ~stage:"trace" ~machine ~seed ~source_digest:(digest_hex source)
  in
  match Cache.get t.cache key with
  | Some (Trace_art a) ->
      Metrics.record_hit t.metrics ~stage:"trace";
      (a.records, a.payload, true)
  | _ -> (
      let from_disk =
        match t.store with
        | Some s -> Store.get_trace s ~key
        | None -> None
      in
      match from_disk with
      | Some (records, payload) ->
          Metrics.record_hit t.metrics ~stage:"trace";
          Cache.put t.cache ~key ~size:(trace_size records payload)
            (Trace_art { records; payload });
          (records, payload, true)
      | None ->
          Metrics.record_miss t.metrics ~stage:"trace";
          let program = parsed_program t ~source ~seed in
          let wm = Protocol.to_machine machine in
          let outcome = Wwt.Run.collect_trace ?poll ~machine:wm program in
          let payload = Oneshot.simulate_report outcome in
          let records = outcome.Wwt.Interp.trace in
          Cache.put t.cache ~key ~size:(trace_size records payload)
            (Trace_art { records; payload });
          (match t.store with
          | Some s -> Store.put_trace s ~key ~records ~payload
          | None -> ());
          (records, payload, false))

(* Stage: performance-mode simulation. *)
let measure_stage t ~machine ~seed ~source ~annotations ~prefetch ~poll =
  let stage =
    Printf.sprintf "measure:%c%c"
      (if annotations then 'a' else '-')
      (if prefetch then 'p' else '-')
  in
  let key = stage_key ~stage ~machine ~seed ~source_digest:(digest_hex source) in
  text_tiers t ~key ~stage:"measure"
    ~unwrap:(function Text p -> Some p | _ -> None)
    ~wrap:(fun payload _summary ->
      Some (payload, String.length payload, Text payload))
    ~compute:(fun () ->
      let program = parsed_program t ~source ~seed in
      let wm = Protocol.to_machine machine in
      let outcome =
        Wwt.Run.measure ?poll ~machine:wm ~annotations ~prefetch program
      in
      let payload = Oneshot.simulate_report outcome in
      (payload, String.length payload, Text payload, payload, None))

let mode_tag = function
  | Protocol.Performance -> "perf"
  | Protocol.Programmer -> "prog"

let annotate_stage_name ~mode ~prefetch =
  Printf.sprintf "annotate:%s:%c" (mode_tag mode) (if prefetch then 'p' else '-')

(* Stage: annotation. A hit skips parsing and simulation entirely; a miss
   reuses the cached trace when one exists. *)
let annotate_stage t ~machine ~seed ~source ~mode ~prefetch ~poll =
  let stage = annotate_stage_name ~mode ~prefetch in
  let key = stage_key ~stage ~machine ~seed ~source_digest:(digest_hex source) in
  let (payload, summary), cached =
    text_tiers t ~key ~stage:"annotate"
      ~unwrap:(function
        | Annotate_art a -> Some (a.payload, a.summary)
        | _ -> None)
      ~wrap:(fun payload summary ->
        match summary with
        | Some summary ->
            Some
              ( (payload, summary),
                String.length payload + String.length summary,
                Annotate_art { payload; summary } )
        | None -> None (* summary lost: recompute rather than degrade *))
      ~compute:(fun () ->
        let program = parsed_program t ~source ~seed in
        let records, _, _ = trace_stage t ~machine ~seed ~source ~poll in
        let options =
          {
            Cachier.Placement.default_options with
            Cachier.Placement.mode =
              (match mode with
              | Protocol.Performance -> Cachier.Equations.Performance
              | Protocol.Programmer -> Cachier.Equations.Programmer);
            prefetch;
          }
        in
        let result =
          Cachier.Annotate.annotate_with_trace
            ~machine:(Protocol.to_machine machine)
            ~options program records
        in
        let payload = Cachier.Annotate.to_source result in
        let summary = Oneshot.annotate_summary result in
        ( (payload, summary),
          String.length payload + String.length summary,
          Annotate_art { payload; summary },
          payload,
          Some summary ))
  in
  (payload, summary, cached)

(* ---- incremental re-annotation ---- *)

(* Every annotated source becomes a delta base: remembered in the DAG
   under its digest and, with a disk tier, persisted as an ["src|…"]
   text artifact so bases survive a restart (the DAG itself is
   LRU-bounded and process-local). *)
let register_base t source =
  let id = Delta.Engine.source_digest source in
  (match Delta.Engine.find_source t.dag id with
  | Some _ -> ()
  | None ->
      ignore (Delta.Engine.register_source t.dag source);
      (match t.store with
      | Some s -> Store.put_text s ~key:("src|" ^ id) source
      | None -> ()));
  id

let resolve_base t id =
  match Delta.Engine.find_source t.dag id with
  | Some source -> source
  | None -> (
      let from_store =
        match t.store with
        | Some s -> Option.map fst (Store.get_text s ~key:("src|" ^ id))
        | None -> None
      in
      match from_store with
      | Some source ->
          ignore (Delta.Engine.register_source t.dag source);
          source
      | None ->
          raise
            (Reject
               ( Protocol.Bad_request,
                 Printf.sprintf
                   "unknown base artifact %S (annotate a source first and \
                    use the returned artifact id)"
                   id )))

(* Stage: incremental re-annotation of a registered base. The result is
   keyed by the EDITED source's digest — a repeated edit is a pure hit —
   and written through to the plain annotate key as well, so a later
   [annotate] of the edited text hits without simulating. Seed
   substitution is rejected: the delta prover reasons about the source
   text as written. *)
let delta_stage t ~machine ~seed ~base ~span ~text ~mode ~prefetch =
  (match seed with
  | Some _ ->
      raise
        (Reject
           ( Protocol.Bad_request,
             "annotate_delta does not support seed substitution; edit the \
              SEED constant instead" ))
  | None -> ());
  let base_source = resolve_base t base in
  let edited =
    try Delta.Splice.apply_edit base_source span text
    with Invalid_argument msg -> raise (Reject (Protocol.Bad_request, msg))
  in
  let artifact = Delta.Engine.source_digest edited in
  let stage =
    Printf.sprintf "delta:%s:%c" (mode_tag mode) (if prefetch then 'p' else '-')
  in
  let key = stage_key ~stage ~machine ~seed:None ~source_digest:artifact in
  let (payload, summary, reuse), cached =
    text_tiers t ~key ~stage:"delta"
      ~unwrap:(function
        | Annotate_art a -> Some (a.payload, a.summary, "cached")
        | _ -> None)
      ~wrap:(fun payload summary ->
        match summary with
        | Some summary ->
            Some
              ( (payload, summary, "cached"),
                String.length payload + String.length summary,
                Annotate_art { payload; summary } )
        | None -> None)
      ~compute:(fun () ->
        let wm = Protocol.to_machine machine in
        let options =
          {
            Cachier.Placement.default_options with
            Cachier.Placement.mode =
              (match mode with
              | Protocol.Performance -> Cachier.Equations.Performance
              | Protocol.Programmer -> Cachier.Equations.Programmer);
            prefetch;
          }
        in
        let outcome =
          Delta.Engine.annotate_delta ~dag:t.dag ~machine:wm ~options
            ~base:base_source span text
        in
        let payload = Cachier.Annotate.to_source outcome.Delta.Engine.result in
        let summary = Oneshot.annotate_summary outcome.Delta.Engine.result in
        let akey =
          stage_key ~stage:(annotate_stage_name ~mode ~prefetch) ~machine
            ~seed:None ~source_digest:artifact
        in
        Cache.put t.cache ~key:akey
          ~size:(String.length payload + String.length summary)
          (Annotate_art { payload; summary });
        (match t.store with
        | Some s -> Store.put_text s ~key:akey ~summary payload
        | None -> ());
        ignore (register_base t edited);
        ( ( payload,
            summary,
            Delta.Engine.reuse_to_string outcome.Delta.Engine.reuse ),
          String.length payload + String.length summary,
          Annotate_art { payload; summary },
          payload,
          Some summary ))
  in
  (payload, summary, reuse, artifact, cached)

let race_stage t ~machine ~seed ~source ~poll =
  let key =
    stage_key ~stage:"race_report" ~machine ~seed
      ~source_digest:(digest_hex source)
  in
  text_tiers t ~key ~stage:"race_report"
    ~unwrap:(function Text p -> Some p | _ -> None)
    ~wrap:(fun payload _ -> Some (payload, String.length payload, Text payload))
    ~compute:(fun () ->
      let program = parsed_program t ~source ~seed in
      let records, _, _ = trace_stage t ~machine ~seed ~source ~poll in
      let payload =
        Oneshot.race_report ~machine:(Protocol.to_machine machine) program
          records
      in
      (payload, String.length payload, Text payload, payload, None))

(* Stage: the sound streaming race detector over the collected trace.
   Reuses the cached trace artifact; the rendered report is itself a
   priced artifact in both tiers, so a warm hit never re-simulates. *)
let races_stage t ~machine ~seed ~source ~poll =
  let key =
    stage_key ~stage:"races" ~machine ~seed ~source_digest:(digest_hex source)
  in
  text_tiers t ~key ~stage:"races"
    ~unwrap:(function Text p -> Some p | _ -> None)
    ~wrap:(fun payload _ -> Some (payload, String.length payload, Text payload))
    ~compute:(fun () ->
      let records, _, _ = trace_stage t ~machine ~seed ~source ~poll in
      let payload =
        Oneshot.races_report ~nodes:machine.Protocol.nodes records
      in
      (payload, String.length payload, Text payload, payload, None))

let trace_stats_stage t ~machine ~seed ~input ~poll =
  let text_stage ~key compute =
    text_tiers t ~key ~stage:"trace_stats"
      ~unwrap:(function Text p -> Some p | _ -> None)
      ~wrap:(fun payload _ ->
        Some (payload, String.length payload, Text payload))
      ~compute:(fun () ->
        let payload = compute () in
        (payload, String.length payload, Text payload, payload, None))
  in
  match input with
  | `Trace_text text ->
      let key =
        stage_key ~stage:"trace_stats:inline" ~machine ~seed:None
          ~source_digest:(digest_hex text)
      in
      text_stage ~key (fun () ->
          let records =
            try Trace.Trace_file.of_string text
            with Failure msg -> raise (Reject (Protocol.Parse_error, msg))
          in
          Oneshot.trace_stats_report ~nodes:machine.Protocol.nodes records)
  | `Source source ->
      let key =
        stage_key ~stage:"trace_stats" ~machine ~seed
          ~source_digest:(digest_hex source)
      in
      text_stage ~key (fun () ->
          let records, _, _ = trace_stage t ~machine ~seed ~source ~poll in
          Oneshot.trace_stats_report ~nodes:machine.Protocol.nodes records)

(* ------------------------------------------------------------------ *)
(* the dispatcher                                                      *)

let execute t (req : Protocol.request) ~poll =
  let nodes = req.machine.Protocol.nodes in
  match req.op with
  | Protocol.Parse { source } ->
      let source = resolve_source ~nodes source in
      let program = parsed_program t ~source ~seed:req.seed in
      (Oneshot.parse_report program, false, [])
  | Protocol.Simulate { source; annotations; prefetch; trace } ->
      let source = resolve_source ~nodes source in
      let payload, cached =
        if trace then
          let _, payload, cached =
            trace_stage t ~machine:req.machine ~seed:req.seed ~source ~poll
          in
          (payload, cached)
        else
          measure_stage t ~machine:req.machine ~seed:req.seed ~source
            ~annotations ~prefetch ~poll
      in
      (payload, cached, [])
  | Protocol.Annotate { source; mode; prefetch } ->
      let source = resolve_source ~nodes source in
      let artifact = register_base t source in
      let payload, summary, cached =
        annotate_stage t ~machine:req.machine ~seed:req.seed ~source ~mode
          ~prefetch ~poll
      in
      ( payload,
        cached,
        [
          ("report", Json.String summary); ("artifact", Json.String artifact);
        ] )
  | Protocol.Annotate_delta { base; start; len; text; mode; prefetch } ->
      let payload, summary, reuse, artifact, cached =
        delta_stage t ~machine:req.machine ~seed:req.seed ~base
          ~span:{ Delta.Splice.start; len } ~text ~mode ~prefetch
      in
      ( payload,
        cached,
        [
          ("report", Json.String summary);
          ("artifact", Json.String artifact);
          ("reuse", Json.String reuse);
        ] )
  | Protocol.Race_report { source } ->
      let source = resolve_source ~nodes source in
      let payload, cached =
        race_stage t ~machine:req.machine ~seed:req.seed ~source ~poll
      in
      (payload, cached, [])
  | Protocol.Races { source } ->
      let source = resolve_source ~nodes source in
      let payload, cached =
        races_stage t ~machine:req.machine ~seed:req.seed ~source ~poll
      in
      (payload, cached, [])
  | Protocol.Trace_stats { source; trace_text } ->
      let input =
        match (trace_text, source) with
        | Some text, _ -> `Trace_text text
        | None, Some s -> `Source (resolve_source ~nodes s)
        | None, None ->
            raise (Reject (Protocol.Bad_request, "missing trace input"))
      in
      let payload, cached =
        trace_stats_stage t ~machine:req.machine ~seed:req.seed ~input ~poll
      in
      (payload, cached, [])
  | Protocol.Stats ->
      let stats =
        Metrics.to_json t.metrics
          ~evictions:(Cache.evictions t.cache)
          ~cache_bytes:(Cache.size t.cache)
          ~cache_entries:(Cache.entries t.cache)
          ?store:t.store ()
      in
      let delta_dag =
        Json.Obj
          (List.map
             (fun (kind, (h, m)) ->
               (kind, Json.Obj [ ("hits", Json.Int h); ("misses", Json.Int m) ]))
             (Delta.Dag.stats t.dag))
      in
      let stats =
        match stats with
        | Json.Obj fields -> Json.Obj (fields @ [ ("delta_dag", delta_dag) ])
        | j -> j
      in
      ("", false, [ ("stats", stats) ])
  | Protocol.Ping -> ("pong", false, [])
  | Protocol.Shutdown -> ("shutting down", false, [])

(* ------------------------------------------------------------------ *)
(* single-flight coalescing                                            *)

(* Everything that determines a work request's result, and nothing that
   does not (id, deadline): identical concurrent requests share one
   execution. Cheap ops are never coalesced. *)
let flight_key (req : Protocol.request) =
  let src = function
    | Protocol.Text s -> "t:" ^ digest_hex s
    | Protocol.Bench b -> "b:" ^ b
  in
  let m = req.machine in
  let base op rest =
    Printf.sprintf "%s|n%d:c%d:a%d:b%d:p%s|%s|%s" op m.Protocol.nodes
      m.Protocol.cache_kb m.Protocol.assoc m.Protocol.block
      (Memsys.Protocol_id.to_string m.Protocol.protocol)
      (match req.seed with Some s -> string_of_int s | None -> "-")
      rest
  in
  match req.op with
  | Protocol.Parse { source } -> Some (base "parse" (src source))
  | Protocol.Simulate { source; annotations; prefetch; trace } ->
      Some
        (base "simulate"
           (Printf.sprintf "%s:%B:%B:%B" (src source) annotations prefetch
              trace))
  | Protocol.Annotate { source; mode; prefetch } ->
      Some
        (base "annotate"
           (Printf.sprintf "%s:%s:%B" (src source)
              (match mode with
              | Protocol.Performance -> "perf"
              | Protocol.Programmer -> "prog")
              prefetch))
  | Protocol.Annotate_delta { base = b; start; len; text; mode; prefetch } ->
      Some
        (base "annotate_delta"
           (Printf.sprintf "%s:%d:%d:%s:%s:%B" b start len (digest_hex text)
              (match mode with
              | Protocol.Performance -> "perf"
              | Protocol.Programmer -> "prog")
              prefetch))
  | Protocol.Race_report { source } -> Some (base "race_report" (src source))
  | Protocol.Races { source } -> Some (base "races" (src source))
  | Protocol.Trace_stats { source; trace_text } ->
      Some
        (base "trace_stats"
           (match (trace_text, source) with
           | Some text, _ -> "x:" ^ digest_hex text
           | None, Some s -> src s
           | None, None -> "-"))
  | Protocol.Stats | Protocol.Ping | Protocol.Shutdown -> None

(* A follower that inherited the leader's deadline cancellation retries
   (bounded): its own deadline may still have room, and poisoning every
   waiter with the leader's cancellation would defeat coalescing. *)
let inherited_cancellation = function
  | Wwt.Sched.Cancelled _ -> true
  | Reject (Protocol.Deadline_exceeded, _) -> true
  | _ -> false

(* raises; the computation a flight leader runs *)
let run_request t (req : Protocol.request) ~received =
  check_deadline ~received req.deadline_ms;
  let poll = make_poll ~received req.deadline_ms in
  execute t req ~poll

(* Map one computation result to one response, with the per-request
   metrics and Obs bookkeeping. [t0]/[obs_t0] are the request's own
   arrival stamps, so a coalesced follower reports its own latency. *)
let finish_response t (req : Protocol.request) ~t0 ~obs_t0 ~coalesced result =
  let finish resp =
    (match resp with
    | Protocol.Ok_response { op; elapsed_us; _ } ->
        Metrics.record_request t.metrics ~op ~elapsed_us
    | Protocol.Error_response { error; _ } ->
        Metrics.record_request t.metrics ~op:(Protocol.op_name req.op)
          ~elapsed_us:
            (int_of_float ((Unix.gettimeofday () -. t0) *. 1_000_000.));
        Metrics.record_error t.metrics
          ~kind:(Protocol.error_kind_to_string error));
    if Obs.enabled () then begin
      Obs.Counter.incr obs_requests;
      if coalesced then Obs.Counter.incr obs_coalesced;
      (match resp with
      | Protocol.Ok_response { cached; _ } ->
          Obs.Counter.incr (if cached then obs_cache_hits else obs_cache_misses)
      | Protocol.Error_response _ -> ());
      Obs.finish ("service." ^ Protocol.op_name req.op) obs_t0
    end;
    resp
  in
  let error kind message =
    finish (Protocol.Error_response { id = req.id; error = kind; message })
  in
  match result with
  | Ok (payload, cached, extra) ->
      let elapsed_us =
        int_of_float ((Unix.gettimeofday () -. t0) *. 1_000_000.)
      in
      finish
        (Protocol.Ok_response
           {
             id = req.id;
             op = Protocol.op_name req.op;
             cached = cached || coalesced;
             elapsed_us;
             payload;
             extra;
           })
  | Error (Reject (kind, msg)) -> error kind msg
  | Error (Lang.Parser.Error msg) -> error Protocol.Parse_error msg
  | Error (Lang.Sema.Error msg) -> error Protocol.Parse_error msg
  | Error (Wwt.Sched.Cancelled msg) -> error Protocol.Deadline_exceeded msg
  | Error (Wwt.Interp.Runtime_error msg) -> error Protocol.Runtime_error msg
  | Error (Wwt.Sched.Deadlock msg) -> error Protocol.Runtime_error msg
  | Error e -> error Protocol.Internal (Printexc.to_string e)

let handle ?received t (req : Protocol.request) =
  let received =
    match received with Some r -> r | None -> Unix.gettimeofday ()
  in
  let t0 = Unix.gettimeofday () in
  let obs_t0 = Obs.start () in
  let compute () = run_request t req ~received in
  let rec attempt tries =
    match flight_key req with
    | None -> ((try Ok (compute ()) with e -> Error e), false)
    | Some key -> (
        match Flight.run t.flight key compute with
        | Error e, true when tries < 2 && inherited_cancellation e ->
            attempt (tries + 1)
        | r, coalesced -> (r, coalesced))
  in
  let result, coalesced = attempt 0 in
  if coalesced then Metrics.record_coalesced t.metrics;
  finish_response t req ~t0 ~obs_t0 ~coalesced result

(* The event-loop entry point: never blocks the caller. Cheap ops are
   answered inline; work ops join the flight table, and only a flight
   leader submits a pool job — 10k concurrent identical requests cost
   one queue slot and one simulation. [deliver] may be called on the
   calling thread (inline ops, overload) or on a worker domain. *)
let handle_async ?received t (req : Protocol.request) ~deliver =
  let received =
    match received with Some r -> r | None -> Unix.gettimeofday ()
  in
  match flight_key req with
  | None -> deliver (handle ~received t req)
  | Some key ->
      let rec attempt tries =
        let t0 = Unix.gettimeofday () in
        let obs_t0 = Obs.start () in
        let on_result ~coalesced result =
          match result with
          | Error e when coalesced && tries < 2 && inherited_cancellation e ->
              attempt (tries + 1)
          | _ ->
              if coalesced then Metrics.record_coalesced t.metrics;
              deliver (finish_response t req ~t0 ~obs_t0 ~coalesced result)
        in
        match Flight.join t.flight key ~deliver:on_result with
        | `Joined -> ()
        | `Leader complete -> (
            match
              Wwt.Jobs.Pool.submit t.pool (fun () ->
                  complete
                    (try Ok (run_request t req ~received) with e -> Error e))
            with
            | Some _ -> ()
            | None ->
                complete
                  (Error
                     (Reject
                        ( Protocol.Overloaded,
                          Printf.sprintf "submission queue full (capacity %d)"
                            t.config.queue_capacity ))))
      in
      attempt 0

(* ------------------------------------------------------------------ *)
(* serving: blocking NDJSON loop (stdio)                               *)

let serve t ic oc =
  let out_mu = Mutex.create () in
  let send resp =
    let buf = Buffer.create 1024 in
    Protocol.write_response buf resp;
    Mutex.lock out_mu;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock out_mu)
      (fun () ->
        Buffer.output_buffer oc buf;
        flush oc)
  in
  let pending = ref [] in
  let drain () =
    List.iter (fun h -> ignore (Wwt.Jobs.Pool.await h)) !pending;
    pending := []
  in
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> `Eof
    | line when String.trim line = "" -> loop ()
    | line -> (
        match
          Protocol.read_request ~defaults:t.config.machine_defaults line
        with
        | Error msg ->
            Metrics.record_error t.metrics ~kind:"bad_request";
            send
              (Protocol.Error_response
                 { id = 0; error = Protocol.Bad_request; message = msg });
            loop ()
        | Ok req -> (
            match req.Protocol.op with
            | Protocol.Shutdown ->
                (* answer only after every in-flight request has *)
                drain ();
                send (handle t req);
                `Shutdown
            | Protocol.Stats | Protocol.Ping ->
                (* cheap and latency-sensitive: answer on the reader *)
                send (handle t req);
                loop ()
            | _ -> (
                let received = Unix.gettimeofday () in
                match
                  Wwt.Jobs.Pool.submit t.pool (fun () ->
                      send (handle ~received t req))
                with
                | Some h ->
                    pending := h :: !pending;
                    loop ()
                | None ->
                    Metrics.record_error t.metrics ~kind:"overloaded";
                    send
                      (Protocol.Error_response
                         {
                           id = req.Protocol.id;
                           error = Protocol.Overloaded;
                           message =
                             Printf.sprintf
                               "submission queue full (capacity %d)"
                               t.config.queue_capacity;
                         });
                    loop ())))
  in
  let outcome = loop () in
  drain ();
  outcome

(* ------------------------------------------------------------------ *)
(* serving: sharded event-loop front end (Unix socket)                 *)

type serve_options = {
  listeners : int;
  idle_timeout_s : float;
  drain_grace_s : float;
}

let default_serve_options =
  { listeners = 2; idle_timeout_s = 30.; drain_grace_s = 5. }

let response_line resp =
  let buf = Buffer.create 1024 in
  Protocol.write_response buf resp;
  Buffer.contents buf

let serve_shards t ~path ?(options = default_serve_options) ?stop () =
  let stop = match stop with Some s -> s | None -> Atomic.make false in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let lsock = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock lsock;
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close lsock with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.bind lsock (Unix.ADDR_UNIX path);
      Unix.listen lsock 1024;
      let shard () =
        let loop = Aio.Loop.create () in
        let on_line conn line =
          if String.trim line = "" then ()
          else
            match
              Protocol.read_request ~defaults:t.config.machine_defaults line
            with
            | Error msg ->
                Metrics.record_error t.metrics ~kind:"bad_request";
                Aio.Loop.send conn
                  (response_line
                     (Protocol.Error_response
                        { id = 0; error = Protocol.Bad_request; message = msg }))
            | Ok req -> (
                let received = Unix.gettimeofday () in
                match req.Protocol.op with
                | Protocol.Shutdown ->
                    (* reply first, then trigger the drain: every loop
                       stops accepting and finishes its in-flight work
                       within the drain grace *)
                    Aio.Loop.send conn (response_line (handle ~received t req));
                    Atomic.set stop true
                | Protocol.Stats | Protocol.Ping ->
                    (* cheap and latency-sensitive: answer on the loop *)
                    Aio.Loop.send conn (response_line (handle ~received t req))
                | _ ->
                    Aio.Loop.hold conn;
                    handle_async ~received t req ~deliver:(fun resp ->
                        Aio.Loop.post loop (fun () ->
                            Aio.Loop.send conn (response_line resp);
                            Aio.Loop.release conn)))
        in
        Aio.Loop.add_listener loop lsock ~on_accept:(fun fd ->
            ignore (Aio.Loop.add_conn loop fd ~on_line ()));
        Aio.Loop.run loop ~idle_timeout:options.idle_timeout_s
          ~drain_grace:options.drain_grace_s
          ~stop:(fun () -> Atomic.get stop)
          ()
      in
      match max 1 options.listeners with
      | 1 -> shard () (* run on the calling domain *)
      | n ->
          let shards = List.init n (fun _ -> Domain.spawn shard) in
          List.iter Domain.join shards)

let serve_socket t ~path =
  serve_shards t ~path
    ~options:{ default_serve_options with listeners = 1 }
    ()
