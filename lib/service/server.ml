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

(* Stage artifacts. ASTs are cached post-sema and treated as immutable by
   every consumer (the engines and the annotator copy before rewriting),
   so one cached program may serve concurrent requests; so are delta
   bases, which the delta engine only reads. *)
type artifact =
  | Ast of Lang.Ast.program
  | Trace_art of (Trace.Event.record list * string)  (* records, report *)
  | Annotate_art of (string * string)  (* annotated source, summary *)
  | Text of string
  | Base of Delta.Engine.base

type t = {
  config : config;
  cache : artifact Cache.t;  (* hot tier: in-memory, byte-budgeted LRU *)
  store : Store.t option;  (* cold tier: on-disk artifact files *)
  flight : (string * bool * (string * Json.t) list) Flight.t;
  metrics : Metrics.t;
  pool : Wwt.Jobs.Pool.t;
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
  }

let shutdown t = Wwt.Jobs.Pool.shutdown t.pool
let metrics t = t.metrics
let store t = t.store

(* ------------------------------------------------------------------ *)
(* cache keys                                                          *)

(* The machine and seed part of every stage and flight key. *)
let machine_seed_text (m : Protocol.machine_config) seed =
  Printf.sprintf "n%d:c%d:a%d:b%d:p%s|%s" m.nodes m.cache_kb m.assoc m.block
    (Memsys.Protocol_id.to_string m.protocol)
    (match seed with Some s -> string_of_int s | None -> "-")

let stage_key ~stage ~machine ~seed ~source_digest =
  String.concat "|" [ stage; source_digest; machine_seed_text machine seed ]

let digest_hex s = Digest.to_hex (Digest.string s)

let key_of ~stage ~machine ~seed text =
  stage_key ~stage ~machine ~seed ~source_digest:(digest_hex text)

let flag c on = if on then c else '-'

let mode_tag = function
  | Protocol.Performance -> "perf"
  | Protocol.Programmer -> "prog"

let mode_stage name ~mode ~prefetch =
  Printf.sprintf "%s:%s:%c" name (mode_tag mode) (flag 'p' prefetch)

(* ------------------------------------------------------------------ *)
(* the tiered lookup                                                   *)

(* How one kind of stage value lives in the two tiers: its hot-tier
   artifact, its size estimate (the cache budgets memory, it does not
   meter it) and its disk form. *)
type 'a codec = {
  of_art : artifact -> 'a option;
  to_art : 'a -> artifact;
  size : 'a -> int;
  load : Store.t -> key:string -> 'a option;
  save : Store.t -> key:string -> 'a -> unit;
}

let ast_bytes source = 64 + (8 * String.length source)

(* parsed programs live in memory only *)
let ast_codec source =
  {
    of_art = (function Ast p -> Some p | _ -> None);
    to_art = (fun p -> Ast p);
    size = (fun _ -> ast_bytes source);
    load = (fun _ ~key:_ -> None);
    save = (fun _ ~key:_ _ -> ());
  }

(* What one resident trace record costs: a list cell, the [Miss] box and
   the miss record (the lock lists are shared). [Obj.reachable_words] of
   the records of the matmul-8, mp3d-16, ocean-16 and tomcatv-8 traces
   gave 87.0 to 87.9 bytes per record on 64-bit OCaml 5.1. *)
let trace_record_bytes = 88

(* in the [.trace] file format, which doubles as a trace_stats input *)
let trace_codec =
  {
    of_art = (function Trace_art v -> Some v | _ -> None);
    to_art = (fun v -> Trace_art v);
    size =
      (fun (records, payload) ->
        (trace_record_bytes * List.length records) + String.length payload);
    load = (fun s ~key -> Store.get_trace s ~key);
    save =
      (fun s ~key (records, payload) ->
        Store.put_trace s ~key ~records ~payload);
  }

(* measure, races and trace_stats: one rendered report; also the sources
   of delta bases *)
let text_codec =
  {
    of_art = (function Text p -> Some p | _ -> None);
    to_art = (fun p -> Text p);
    size = String.length;
    load = (fun s ~key -> Option.map fst (Store.get_text s ~key));
    save = (fun s ~key p -> Store.put_text s ~key p);
  }

(* annotate and annotate_delta. A disk entry that lost its summary is
   recomputed rather than served degraded. *)
let annotate_codec =
  {
    of_art = (function Annotate_art v -> Some v | _ -> None);
    to_art = (fun v -> Annotate_art v);
    size =
      (fun (payload, summary) ->
        String.length payload + String.length summary);
    load =
      (fun s ~key ->
        match Store.get_text s ~key with
        | Some (payload, Some summary) -> Some (payload, summary)
        | _ -> None);
    save =
      (fun s ~key (payload, summary) -> Store.put_text s ~key ~summary payload);
  }

(* Delta bases live in memory only. A computed base is charged what
   its epoch info, item table and summary hold, which is nearly all of
   its resident size; its parse is a separate artifact. A chained base (a
   plan-reuse edit's) shares its parent's plan, epoch info, summary and
   item names, so only its two new ASTs and its table's cells and
   records are charged. *)
let base_codec size =
  {
    of_art = (function Base b -> Some b | _ -> None);
    to_art = (fun b -> Base b);
    size;
    load = (fun _ ~key:_ -> None);
    save = (fun _ ~key:_ _ -> ());
  }

(* The words of an epoch info, counted field by field: per miss, its
   record (a header and 5 fields), its cell in the epoch's trace-order
   list and its slot in the address-ordered array; per set, a header and
   its members, once however many fields share the array (an [SW] that
   is the node's writes, or an epoch's SW union when only one node
   writes); per node and per epoch, the records, slots and headers that
   hold them. *)
let miss_words = 6 + 3 + 1

(* the node's [per_node] and [sets] slots, its [node_misses] and its
   [node_sets] record *)
let node_words = 2 + 4 + 4

(* the epoch's slot and record, its pc box (an epoch shares the other
   with its neighbour), its array and row headers, its DRFS slot and
   record, and its [sw_union] and [sw_shared] slots *)
let epoch_words = 1 + 7 + 2 + 3 + 1 + 4 + 2

let einfo_words (einfo : Cachier.Epoch_info.t) =
  let module Iset = Trace.Epoch.Iset in
  let words = ref 0 in
  let set s =
    let n = Iset.cardinal s in
    if n > 0 then words := !words + n + 1
  in
  let set_unless counted s =
    if not (List.exists (( == ) s) counted) then set s
  in
  Array.iteri
    (fun e (epoch : Trace.Epoch.t) ->
      words :=
        !words + epoch_words
        + (miss_words * Array.length epoch.Trace.Epoch.by_addr);
      let sets = einfo.Cachier.Epoch_info.sets.(e) in
      Array.iteri
        (fun node (nm : Trace.Epoch.node_misses) ->
          let ns = sets.(node) in
          words := !words + node_words;
          set nm.Trace.Epoch.reads;
          set nm.Trace.Epoch.writes;
          set nm.Trace.Epoch.faults;
          set_unless [ nm.Trace.Epoch.writes; nm.Trace.Epoch.faults ]
            ns.Cachier.Epoch_info.sw;
          set_unless [ nm.Trace.Epoch.reads ] ns.Cachier.Epoch_info.sr)
        epoch.Trace.Epoch.per_node;
      let d = einfo.Cachier.Epoch_info.drfs.(e) in
      set (Cachier.Drfs.race d);
      set (Cachier.Drfs.false_shared d);
      set_unless [ Cachier.Drfs.race d; Cachier.Drfs.false_shared d ]
        (Cachier.Drfs.drfs_set d);
      let sws =
        Array.to_list (Array.map (fun ns -> ns.Cachier.Epoch_info.sw) sets)
      in
      let union = einfo.Cachier.Epoch_info.sw_union.(e) in
      set_unless sws union;
      set_unless (union :: sws) einfo.Cachier.Epoch_info.sw_shared.(e))
    einfo.Cachier.Epoch_info.epochs;
  !words

(* a string's header and its padded bytes *)
let string_words s = 2 + (String.length s / (Sys.word_size / 8))

(* an item's list cell and record *)
let item_words = 3 + 5

let computed_base_bytes (b : Delta.Engine.base) =
  (Sys.word_size / 8)
  * (einfo_words b.Delta.Engine.result.Cachier.Annotate.einfo
    + List.fold_left
        (fun w (it : Delta.Splice.item) ->
          w + item_words + string_words it.iname)
        0 b.Delta.Engine.items
    + string_words b.Delta.Engine.summary)

let chained_base_bytes ~source (b : Delta.Engine.base) =
  (2 * ast_bytes source)
  + ((Sys.word_size / 8) * item_words * List.length b.Delta.Engine.items)

let computed_base = base_codec computed_base_bytes

let chained_base source = base_codec (chained_base_bytes ~source)

let write_through t codec ~key v =
  Cache.put t.cache ~key ~size:(codec.size v) (codec.to_art v);
  Option.iter (fun s -> codec.save s ~key v) t.store

(* The one lookup every stage goes through: the hot tier, then the disk
   store, then compute. A disk hit is promoted into the hot tier; a
   computed value is written through to both. Returns the value and
   whether a tier served it. *)
let tiered t codec ~stage ~key compute =
  match Option.bind (Cache.get t.cache key) codec.of_art with
  | Some v ->
      Metrics.record_hit t.metrics ~stage;
      (v, true)
  | None -> (
      match Option.bind t.store (fun s -> codec.load s ~key) with
      | Some v ->
          Metrics.record_hit t.metrics ~stage;
          Cache.put t.cache ~key ~size:(codec.size v) (codec.to_art v);
          (v, true)
      | None ->
          Metrics.record_miss t.metrics ~stage;
          let v = compute () in
          write_through t codec ~key v;
          (v, false))

(* ------------------------------------------------------------------ *)
(* request execution                                                   *)

let reject kind message = raise (Protocol.Reject (kind, message))

let resolve_source ~nodes = function
  | Protocol.Text s -> s
  | Protocol.Bench name -> (
      match Benchmarks.Suite.find ~nodes name with
      | b -> b.Benchmarks.Suite.source
      | exception Not_found ->
          reject Protocol.Unknown_benchmark
            (Printf.sprintf "unknown benchmark %S (expected one of %s)" name
               (String.concat ", " Benchmarks.Suite.names)))

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
      reject Protocol.Deadline_exceeded
        (Printf.sprintf "deadline of %d ms exceeded before execution" ms)
  | _ -> ()

(* Stage: parse (+ sema + optional reseed). Machine-independent, so the
   key carries only source digest and seed. *)
let parsed_program t ~source ~seed =
  let key =
    key_of ~stage:"parse" ~machine:Protocol.default_machine ~seed source
  in
  fst
    (tiered t (ast_codec source) ~stage:"parse" ~key (fun () ->
         let p = Lang.Parser.parse source in
         ignore (Lang.Sema.check p);
         match seed with
         | Some s -> Lang.Ast_util.set_const p "SEED" s
         | None -> p))

(* Stage: trace-mode simulation, shared by simulate --trace, annotate,
   delta bases, races and trace_stats: the records and the simulation
   report. *)
let trace_stage t ~machine ~seed ~source ~poll =
  tiered t trace_codec ~stage:"trace"
    ~key:(key_of ~stage:"trace" ~machine ~seed source)
    (fun () ->
      let program = parsed_program t ~source ~seed in
      let outcome =
        Wwt.Run.collect_trace ?poll ~machine:(Protocol.to_machine machine)
          program
      in
      (outcome.Wwt.Interp.trace, Oneshot.simulate_report outcome))

let trace_records t ~machine ~seed ~source ~poll =
  fst (fst (trace_stage t ~machine ~seed ~source ~poll))

(* Stage: performance-mode simulation. *)
let measure_stage t ~machine ~seed ~source ~annotations ~prefetch ~poll =
  let stage =
    Printf.sprintf "measure:%c%c" (flag 'a' annotations) (flag 'p' prefetch)
  in
  tiered t text_codec ~stage:"measure"
    ~key:(key_of ~stage ~machine ~seed source)
    (fun () ->
      let program = parsed_program t ~source ~seed in
      Oneshot.simulate_report
        (Wwt.Run.measure ?poll ~machine:(Protocol.to_machine machine)
           ~annotations ~prefetch program))

let placement_options ~mode ~prefetch =
  {
    Cachier.Placement.mode =
      (match mode with
      | Protocol.Performance -> Cachier.Equations.Performance
      | Protocol.Programmer -> Cachier.Equations.Programmer);
    prefetch;
  }

let annotated result =
  (Cachier.Annotate.to_source result, Oneshot.annotate_summary result)

(* Stage: annotation. A hit skips parsing and simulation entirely; a miss
   reuses the cached trace when one exists. *)
let annotate_stage t ~machine ~seed ~source ~mode ~prefetch ~poll =
  tiered t annotate_codec ~stage:"annotate"
    ~key:
      (key_of ~stage:(mode_stage "annotate" ~mode ~prefetch) ~machine ~seed
         source)
    (fun () ->
      let program = parsed_program t ~source ~seed in
      let records = trace_records t ~machine ~seed ~source ~poll in
      annotated
        (Cachier.Annotate.annotate_with_trace
           ~machine:(Protocol.to_machine machine)
           ~options:(placement_options ~mode ~prefetch) program records))

(* ---- incremental re-annotation ---- *)

(* Stage: the source of a delta base, a text artifact under ["src|<id>"].
   Every annotated source is one, so with a disk tier a base survives a
   restart. [compute] runs when neither tier has it. *)
let base_source t id compute =
  fst (tiered t text_codec ~stage:"src" ~key:("src|" ^ id) compute)

let delta_key name ~machine ~mode ~prefetch id =
  stage_key ~stage:(mode_stage name ~mode ~prefetch) ~machine ~seed:None
    ~source_digest:id

(* Stage: the delta base of a source, built from the cached parse and
   trace. *)
let base_stage t ~machine ~mode ~prefetch ~poll ~id source =
  fst
    (tiered t computed_base ~stage:"base"
       ~key:(delta_key "base" ~machine ~mode ~prefetch id)
       (fun () ->
         Delta.Engine.base_of ~machine:(Protocol.to_machine machine)
           ~options:(placement_options ~mode ~prefetch)
           ~trace:(trace_records t ~machine ~seed:None ~source ~poll)
           ~source
           (parsed_program t ~source ~seed:None)))

(* Stage: incremental re-annotation of a known base. The result is keyed
   by the EDITED source's digest — a repeated edit is a pure hit — and
   written through to the plain annotate key as well, so a later
   [annotate] of the edited text hits without simulating. The edited
   source and its base are cached too, so an edit of the edit starts
   warm. Seed substitution is rejected: the delta prover reasons about
   the source text as written. *)
let delta_stage t ~machine ~seed ~base ~span ~text ~mode ~prefetch ~poll =
  if seed <> None then
    reject Protocol.Bad_request
      "annotate_delta does not support seed substitution; edit the SEED \
       constant instead";
  let source =
    base_source t base (fun () ->
        reject Protocol.Bad_request
          (Printf.sprintf
             "unknown base artifact %S (annotate a source first and use the \
              returned artifact id)"
             base))
  in
  let edited =
    try Delta.Splice.apply_edit source span text
    with Invalid_argument msg -> reject Protocol.Bad_request msg
  in
  let artifact = Delta.Engine.source_digest edited in
  let key name = delta_key name ~machine ~mode ~prefetch artifact in
  let reuse = ref "cached" in
  let result, cached =
    tiered t annotate_codec ~stage:"delta" ~key:(key "delta") (fun () ->
        let outcome =
          Delta.Engine.annotate_delta ?poll
            ~machine:(Protocol.to_machine machine)
            ~options:(placement_options ~mode ~prefetch)
            ~base:
              (base_stage t ~machine ~mode ~prefetch ~poll ~id:base source)
            ~source span text
        in
        let edited_base = outcome.Delta.Engine.base in
        (* a chained base's summary is its parent's, rendered once *)
        let result =
          ( Cachier.Annotate.to_source edited_base.Delta.Engine.result,
            edited_base.Delta.Engine.summary )
        in
        write_through t annotate_codec ~key:(key "annotate") result;
        let remember codec =
          write_through t text_codec ~key:("src|" ^ artifact) edited;
          write_through t codec ~key:(key "base") edited_base
        in
        (match outcome.Delta.Engine.reuse with
        | Delta.Engine.Noop -> ()
        | Delta.Engine.Plan_reuse -> remember (chained_base edited)
        | Delta.Engine.Resim _ -> remember computed_base);
        reuse := Delta.Engine.reuse_to_string outcome.Delta.Engine.reuse;
        result)
  in
  (result, !reuse, artifact, cached)

(* Stage: the sound streaming race detector over the collected trace.
   Reuses the cached trace artifact; the rendered report is itself a
   priced artifact in both tiers, so a warm hit never re-simulates. *)
let races_stage t ~machine ~seed ~source ~poll =
  tiered t text_codec ~stage:"races"
    ~key:(key_of ~stage:"races" ~machine ~seed source)
    (fun () ->
      Oneshot.races_report ~nodes:machine.Protocol.nodes
        (trace_records t ~machine ~seed ~source ~poll))

let trace_stats_stage t ~machine ~seed ~input ~poll =
  let key, records =
    match input with
    | `Trace_text text ->
        ( key_of ~stage:"trace_stats:inline" ~machine ~seed:None text,
          fun () ->
            try Trace.Trace_file.of_string text
            with Failure msg -> reject Protocol.Parse_error msg )
    | `Source source ->
        ( key_of ~stage:"trace_stats" ~machine ~seed source,
          fun () -> trace_records t ~machine ~seed ~source ~poll )
  in
  tiered t text_codec ~stage:"trace_stats" ~key (fun () ->
      Oneshot.trace_stats_report ~nodes:machine.Protocol.nodes (records ()))

(* ------------------------------------------------------------------ *)
(* the dispatcher                                                      *)

let execute t (req : Protocol.request) ~poll =
  let nodes = req.machine.Protocol.nodes in
  let machine = req.machine and seed = req.seed in
  match req.op with
  | Protocol.Parse { source } ->
      let source = resolve_source ~nodes source in
      (Oneshot.parse_report (parsed_program t ~source ~seed), false, [])
  | Protocol.Simulate { source; annotations; prefetch; trace } ->
      let source = resolve_source ~nodes source in
      let payload, cached =
        if trace then
          let (_, payload), cached =
            trace_stage t ~machine ~seed ~source ~poll
          in
          (payload, cached)
        else
          measure_stage t ~machine ~seed ~source ~annotations ~prefetch ~poll
      in
      (payload, cached, [])
  | Protocol.Annotate { source; mode; prefetch } ->
      let source = resolve_source ~nodes source in
      let artifact = Delta.Engine.source_digest source in
      ignore (base_source t artifact (fun () -> source));
      let (payload, summary), cached =
        annotate_stage t ~machine ~seed ~source ~mode ~prefetch ~poll
      in
      ( payload,
        cached,
        [
          ("report", Json.String summary); ("artifact", Json.String artifact);
        ] )
  | Protocol.Annotate_delta { base; start; len; text; mode; prefetch } ->
      let (payload, summary), reuse, artifact, cached =
        delta_stage t ~machine ~seed ~base ~span:{ Delta.Splice.start; len }
          ~text ~mode ~prefetch ~poll
      in
      ( payload,
        cached,
        [
          ("report", Json.String summary);
          ("artifact", Json.String artifact);
          ("reuse", Json.String reuse);
        ] )
  | Protocol.Races { source } ->
      let source = resolve_source ~nodes source in
      let payload, cached = races_stage t ~machine ~seed ~source ~poll in
      (payload, cached, [])
  | Protocol.Trace_stats { source; trace_text } ->
      let input =
        match (trace_text, source) with
        | Some text, _ -> `Trace_text text
        | None, Some s -> `Source (resolve_source ~nodes s)
        | None, None -> reject Protocol.Bad_request "missing trace input"
      in
      let payload, cached =
        trace_stats_stage t ~machine ~seed ~input ~poll
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
      ("", false, [ ("stats", stats) ])
  | Protocol.Ping -> ("pong", false, [])
  | Protocol.Shutdown -> ("shutting down", false, [])

(* ------------------------------------------------------------------ *)
(* the one request path                                                *)

(* Everything that determines a work request's result, and nothing that
   does not (id, deadline): identical concurrent requests share one
   execution. Cheap ops are never coalesced. *)
let flight_key (req : Protocol.request) =
  let src = function
    | Protocol.Text s -> "t:" ^ digest_hex s
    | Protocol.Bench b -> "b:" ^ b
  in
  let key op rest =
    Some
      (String.concat "|" [ op; machine_seed_text req.machine req.seed; rest ])
  in
  match req.op with
  | Protocol.Parse { source } -> key "parse" (src source)
  | Protocol.Simulate { source; annotations; prefetch; trace } ->
      key "simulate"
        (Printf.sprintf "%s:%B:%B:%B" (src source) annotations prefetch trace)
  | Protocol.Annotate { source; mode; prefetch } ->
      key "annotate"
        (Printf.sprintf "%s:%s:%B" (src source) (mode_tag mode) prefetch)
  | Protocol.Annotate_delta { base; start; len; text; mode; prefetch } ->
      key "annotate_delta"
        (Printf.sprintf "%s:%d:%d:%s:%s:%B" base start len (digest_hex text)
           (mode_tag mode) prefetch)
  | Protocol.Races { source } -> key "races" (src source)
  | Protocol.Trace_stats { source; trace_text } ->
      key "trace_stats"
        (match (trace_text, source) with
        | Some text, _ -> "x:" ^ digest_hex text
        | None, Some s -> src s
        | None, None -> "-")
  | Protocol.Stats | Protocol.Ping | Protocol.Shutdown -> None

(* A follower that inherited the leader's deadline cancellation retries
   (bounded): its own deadline may still have room, and poisoning every
   waiter with the leader's cancellation would defeat coalescing. *)
let inherited_cancellation = function
  | Wwt.Sched.Cancelled _ -> true
  | Protocol.Reject (Protocol.Deadline_exceeded, _) -> true
  | _ -> false

let overloaded t =
  Protocol.Reject
    ( Protocol.Overloaded,
      Printf.sprintf "submission queue full (capacity %d)"
        t.config.queue_capacity )

(* Map one computation result to one response and book it: the request
   and its latency, the error kind, the coalesced count, and the
   request's one [service.<op>] span. [t0] is the request's own arrival
   stamp, so a coalesced or retried follower reports its own latency. *)
let finish_response t (req : Protocol.request) ~t0 ~coalesced result =
  let op = Protocol.op_name req.op in
  let elapsed_us = (Obs.now_ns () - t0) / 1000 in
  Metrics.record_request t.metrics ~op ~elapsed_us;
  if coalesced then Metrics.record_coalesced t.metrics;
  if Obs.enabled () then Obs.finish ("service." ^ op) t0;
  match result with
  | Ok (payload, cached, extra) ->
      Protocol.Ok_response
        {
          id = req.id;
          op;
          cached = cached || coalesced;
          elapsed_us;
          payload;
          extra;
        }
  | Error e ->
      let error, message = Protocol.error_of_exn e in
      Metrics.record_error t.metrics
        ~kind:(Protocol.error_kind_to_string error);
      Protocol.Error_response { id = req.id; error; message }

(* Every request goes through here once. Work ops join the flight table;
   [lead job] runs a flight leader's [job] and answers false when it
   cannot (the pool refused it). A follower that inherited its leader's
   cancellation joins again, at most twice. [deliver] gets exactly one
   response. *)
let dispatch ?received t (req : Protocol.request) ~lead ~deliver =
  let t0 = Obs.now_ns () in
  let received =
    match received with Some r -> r | None -> Unix.gettimeofday ()
  in
  let run () =
    try
      check_deadline ~received req.deadline_ms;
      Ok (execute t req ~poll:(make_poll ~received req.deadline_ms))
    with e -> Error e
  in
  let finish ~coalesced result =
    deliver (finish_response t req ~t0 ~coalesced result)
  in
  match flight_key req with
  | None -> finish ~coalesced:false (run ())
  | Some key ->
      let rec attempt tries =
        let on_result ~coalesced = function
          | Error e when coalesced && tries < 2 && inherited_cancellation e ->
              attempt (tries + 1)
          | result -> finish ~coalesced result
        in
        match Flight.join t.flight key ~deliver:on_result with
        | `Joined -> ()
        | `Leader complete ->
            if not (lead (fun () -> complete (run ()))) then
              complete (Error (overloaded t))
      in
      attempt 0

(* Leader jobs, a retry's included, run on the calling thread: the
   thread that completes a flight hands a retrying follower's job back
   to that follower's own caller. *)
let handle ?received t req =
  let mu = Mutex.create () and wake = Condition.create () in
  let inbox = Queue.create () in
  let post f =
    Mutex.protect mu (fun () ->
        Queue.push f inbox;
        Condition.signal wake)
  in
  let answer = ref None in
  dispatch ?received t req
    ~lead:(fun job ->
      post job;
      true)
    ~deliver:(fun resp -> post (fun () -> answer := Some resp));
  let rec wait () =
    match !answer with
    | Some resp -> resp
    | None ->
        let job =
          Mutex.protect mu (fun () ->
              while Queue.is_empty inbox do
                Condition.wait wake mu
              done;
              Queue.pop inbox)
        in
        job ();
        wait ()
  in
  wait ()

let handle_async ?received t req ~deliver =
  dispatch ?received t req ~deliver ~lead:(fun job ->
      Option.is_some (Wwt.Jobs.Pool.submit t.pool job))

(* ------------------------------------------------------------------ *)
(* the front ends                                                      *)

let response_line resp =
  let buf = Buffer.create 1024 in
  Protocol.write_response buf resp;
  Buffer.contents buf

(* The line handling both front ends share: a malformed line is answered
   with [bad_request] and id 0, [ping] and [stats] are answered inline,
   and a shutdown or a work request is returned for the front end to
   place. *)
let handle_line t line ~reply =
  if String.trim line = "" then `Answered
  else
    match Protocol.read_request ~defaults:t.config.machine_defaults line with
    | Error message ->
        Metrics.record_error t.metrics ~kind:"bad_request";
        reply
          (Protocol.Error_response
             { id = 0; error = Protocol.Bad_request; message });
        `Answered
    | Ok ({ op = Protocol.Shutdown; _ } as req) -> `Shutdown req
    | Ok ({ op = Protocol.Stats | Protocol.Ping; _ } as req) ->
        reply (handle t req);
        `Answered
    | Ok req -> `Work req

(* ---- blocking NDJSON loop (stdio) ---- *)

let serve t ic oc =
  let out_mu = Mutex.create () in
  let send resp =
    let line = response_line resp in
    Mutex.protect out_mu (fun () ->
        output_string oc line;
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
    | line -> (
        match handle_line t line ~reply:send with
        | `Answered -> loop ()
        | `Shutdown req ->
            (* answer only after every in-flight request has *)
            drain ();
            send (handle t req);
            `Shutdown
        | `Work req ->
            (* the request joins a flight only when its job runs, so one
               queued behind an identical request finds its artifact *)
            let received = Unix.gettimeofday () in
            (match
               Wwt.Jobs.Pool.submit t.pool (fun () ->
                   send (handle ~received t req))
             with
            | Some h -> pending := h :: !pending
            | None ->
                send
                  (finish_response t req ~t0:(Obs.now_ns ()) ~coalesced:false
                     (Error (overloaded t))));
            loop ())
  in
  let outcome = loop () in
  drain ();
  outcome

(* ---- sharded event-loop front end (Unix socket) ---- *)

type serve_options = {
  listeners : int;
  idle_timeout_s : float;
  drain_grace_s : float;
}

let default_serve_options =
  { listeners = 2; idle_timeout_s = 30.; drain_grace_s = 5. }

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
          let reply resp = Aio.Loop.send conn (response_line resp) in
          match handle_line t line ~reply with
          | `Answered -> ()
          | `Shutdown req ->
              (* reply first, then trigger the drain: every loop stops
                 accepting and finishes its in-flight work within the
                 drain grace *)
              reply (handle t req);
              Atomic.set stop true
          | `Work req ->
              Aio.Loop.hold conn;
              handle_async t req ~deliver:(fun resp ->
                  Aio.Loop.post loop (fun () ->
                      reply resp;
                      Aio.Loop.release conn))
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
