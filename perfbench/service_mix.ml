(* service-mix: IDE and CI traffic against a cachierd child (socket mode,
   one listener, one worker, memory tier only) at one fixed arrival rate
   from one client thread. The end-to-end metrics come from a paced pass
   (one request at a time, each priced by the CPU time cachierd spent on
   it); the traced run sends the same plan open loop over at most nproc
   connections and times each request from when it was due.

   The disk tier stays off: on the reference host one small-file
   create+write+rename took anywhere from 29 to 439 us between
   consecutive measurements, and with it edit_p50_ms spread by 42% of
   its median over ten runs.

   Classes, interleaved in blocks of [Config.block] slots whose order the seed
   shuffles:
   - hit:   repeats of the warmed population (annotate, simulate and
            races on the five programs at 8 nodes);
   - edit:  single-token annotate_delta edits on the warmed matmul and
            ocean bases, at spans the taint prover accepts, with fresh
            values so each takes the plan-reuse path;
   - fresh: annotate, simulate or races with a new seed, round robin over
            the programs; every fourth at 16 nodes, which cachierd routes
            to Wwt.Par. *)

open Util
module P = Service.Protocol
module J = Service.Json

(* Requests per second, the class shares, cachierd's flags and node
   counts come from perfbench/config.json. At 60 requests/s cachierd used
   about 18% of one CPU on the reference host, and the median request is
   an unqueued hit. The slots of a block that are neither hit nor edit
   are fresh. *)
let rate = float_of_int Config.rate_per_s
let conns = min Config.max_connections (Domain.recommended_domain_count ())
let nodes = Config.service_nodes
let drain_s = 20.

type cls = Hit | Edit | Fresh

let cls_name = function Hit -> "hit" | Edit -> "edit" | Fresh -> "fresh"

type fresh_op = F_annotate | F_simulate | F_races

let fresh_name = function
  | F_annotate -> "annotate"
  | F_simulate -> "simulate"
  | F_races -> "races"

(* What a request asks, enough to re-derive its payload in process. *)
type what =
  | Pop of int  (** population item *)
  | Edited of int * Delta.Splice.span * string
      (** base, span, text; the bases alternate *)
  | New of fresh_op * string * int * int  (** op, program, nodes, seed *)

type req = { cls : cls; what : what; line : string }

let progs = Array.of_list Config.programs
let edit_bases = Array.of_list Config.edit_bases

let machine_cfg nodes =
  {
    P.default_machine with
    P.nodes;
    cache_kb = Config.cache_kb;
    assoc = Config.assoc;
    block = Config.block_bytes;
  }

let request ~id ~nodes ?seed op =
  J.to_string
    (P.request_to_json
       { P.id; machine = machine_cfg nodes; seed; deadline_ms = None; op })
  ^ "\n"

let op_of fresh_op prog =
  let source = P.Bench prog in
  match fresh_op with
  | F_annotate -> P.Annotate { source; mode = P.Performance; prefetch = false }
  | F_simulate ->
      P.Simulate { source; annotations = false; prefetch = false; trace = false }
  | F_races -> P.Races { source }

let population =
  Array.of_list
    (List.concat_map
       (fun f -> List.map (fun p -> (f, p)) Config.programs)
       [ F_annotate; F_simulate; F_races ])

let source_of ~nodes prog =
  (Benchmarks.Suite.find ~nodes prog).Benchmarks.Suite.source

(* The int literals of a base whose replacement the taint prover
   certifies as trace-preserving: the verdict depends on the position
   only, so proving one value proves them all. *)
let edit_spans prog =
  let src = source_of ~nodes prog in
  let base = Lang.Parser.parse src in
  let spans =
    List.filter
      (fun ((span : Delta.Splice.span), v) ->
        let edited = Delta.Splice.apply_edit src span (string_of_int (v + 1)) in
        match Delta.Taint.compare_and_prove ~base ~edited:(Lang.Parser.parse edited) with
        | Delta.Taint.Preserved _ -> true
        | Delta.Taint.Broken _ -> false
        | exception _ -> false)
      (Delta.Splice.int_literals src)
  in
  if spans = [] then failwith ("no provable edit span in " ^ prog);
  (src, Array.of_list spans)

(* The i-th fresh kind: programs round robin, then the op; every
   [par_every]-th request at [par_nodes] nodes. *)
let fresh_kind k =
  let np = Array.length progs in
  let op = [| F_annotate; F_simulate; F_races |].((k / np) mod 3) in
  ( op,
    progs.(k mod np),
    if k mod Config.par_every = Config.par_every - 1 then Config.par_nodes else nodes )

(* The seeded request plan: [n] requests, ids 1..n. *)
let plan ~seed ~n ~bases =
  let st = rng seed in
  let slots =
    Array.init Config.block (fun j ->
        if j < Config.hits_per_block then Hit
        else if j < Config.hits_per_block + Config.edits_per_block then Edit
        else Fresh)
  in
  let order = Array.copy slots in
  let n_edit = ref 0 and n_fresh = ref 0 in
  Array.init n (fun i ->
      if i mod Config.block = 0 then begin
        Array.blit slots 0 order 0 Config.block;
        for j = Config.block - 1 downto 1 do
          let r = pick st (j + 1) in
          let t = order.(j) in
          order.(j) <- order.(r);
          order.(r) <- t
        done
      end;
      let id = i + 1 in
      match order.(i mod Config.block) with
      | Hit ->
          let p = pick st (Array.length population) in
          let f, prog = population.(p) in
          { cls = Hit; what = Pop p; line = request ~id ~nodes (op_of f prog) }
      | Edit ->
          let b = !n_edit mod Array.length bases in
          let _, artifact, spans = bases.(b) in
          let span, v = spans.(pick st (Array.length spans)) in
          incr n_edit;
          let text = string_of_int (v + 1 + !n_edit) in
          {
            cls = Edit;
            what = Edited (b, span, text);
            line =
              request ~id ~nodes
                (P.Annotate_delta
                   {
                     base = artifact;
                     start = span.Delta.Splice.start;
                     len = span.Delta.Splice.len;
                     text;
                     mode = P.Performance;
                     prefetch = false;
                   });
          }
      | Fresh ->
          let f, prog, nodes = fresh_kind !n_fresh in
          incr n_fresh;
          let seed = draw_seed st in
          {
            cls = Fresh;
            what = New (f, prog, nodes, seed);
            line = request ~id ~nodes ~seed (op_of f prog);
          })

(* ---- the cachierd child ---- *)

type server = { pid : int; sock : string; log : string }

let cachierd_exe () =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "cachierd.exe")

let connect sock =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () -> fd
  | exception e ->
      Unix.close fd;
      raise e

let stop_server s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] s.pid)

(* Start cachierd and retry connect until it accepts: no sleeps. *)
let start_server ~dir ~tag ?obs () =
  let sock = Filename.concat dir (tag ^ ".sock") in
  let log = Filename.concat dir (tag ^ ".log") in
  let logfd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let exe = cachierd_exe () in
  let args =
    [ exe; "--socket"; sock; "--listeners";
      string_of_int Config.listeners; "--workers"; string_of_int Config.workers ]
    @ match obs with Some p -> [ "--obs=ndjson:" ^ p ] | None -> []
  in
  let pid = Unix.create_process exe (Array.of_list args) Unix.stdin logfd logfd in
  Unix.close logfd;
  let s = { pid; sock; log } in
  let deadline = now_ns () + 30_000_000_000 in
  let rec ready () =
    match connect sock with
    | fd -> Unix.close fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> failwith ("cachierd exited during start-up; see " ^ log));
        if now_ns () > deadline then begin
          stop_server s;
          failwith "cachierd did not accept connections within 30 s"
        end;
        Domain.cpu_relax ();
        ready ()
  in
  ready ();
  s

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let off = ref 0 in
  while !off < Bytes.length b do
    off := !off + Unix.write fd b !off (Bytes.length b - !off)
  done

(* The next response line on [fd], blocking. *)
let rec read_line fd fr buf =
  match Aio.Framing.next_line fr with
  | Some l -> l
  | None -> (
      match Unix.read fd buf 0 (Bytes.length buf) with
      | 0 -> failwith "cachierd closed the connection"
      | k ->
          Aio.Framing.feed fr buf 0 k;
          read_line fd fr buf)

(* One lock-step request on its own connection. *)
let call s line =
  let fd = connect s.sock in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      write_all fd line;
      read_line fd (Aio.Framing.create ()) (Bytes.create 65536))

let call_ok s line =
  let l = call s line in
  match P.response_of_json (J.of_string l) with
  | Ok (P.Ok_response { extra; _ }) -> extra
  | Ok (P.Error_response { message; _ }) -> failwith ("cachierd: " ^ message)
  | Error m -> failwith ("cachierd response: " ^ m)

let shutdown s =
  (try ignore (call s (request ~id:0 ~nodes P.Shutdown)) with _ -> ());
  ignore (Unix.waitpid [] s.pid)

let stats s =
  List.assoc "stats" (call_ok s (request ~id:0 ~nodes P.Stats))

let stat_int path j =
  List.fold_left (fun j k -> J.member k j) j path
  |> J.to_int_opt |> Option.value ~default:0

(* ---- set-up ---- *)

type env = {
  server : server;
  bases : (string * string * (Delta.Splice.span * int) array) array;
      (** source, artifact id, provable spans *)
  warm_requests : int;
}

(* Start a cachierd, warm its population and the delta bases, and run
   one untimed request of every shape. *)
let warm ~dir ~tag ?obs () =
  let bases =
    Array.map
      (fun prog ->
        let src, spans = edit_spans prog in
        (src, Delta.Engine.source_digest src, spans))
      edit_bases
  in
  let server = start_server ~dir ~tag ?obs () in
  let sent = ref 0 in
  let send ?seed ~nodes op =
    setup_step ();
    incr sent;
    ignore (call_ok server (request ~id:0 ~nodes ?seed op))
  in
  (try
     Array.iter (fun (f, prog) -> send ~nodes (op_of f prog)) population;
     Array.iter
       (fun (_, artifact, spans) ->
         let span, v = spans.(0) in
         let edit =
           P.Annotate_delta
             {
               base = artifact;
               start = span.Delta.Splice.start;
               len = span.Delta.Splice.len;
               text = string_of_int (v + 1_000_000);
               mode = P.Performance;
               prefetch = false;
             }
         in
         send ~nodes edit)
       bases;
     List.iter
       (fun (f, nodes) -> send ~nodes ~seed:7 (op_of f "matmul"))
       (List.concat_map
          (fun n -> [ (F_annotate, n); (F_simulate, n); (F_races, n) ])
          [ nodes; Config.par_nodes ])
   with e ->
     stop_server server;
     raise e);
  { server; bases; warm_requests = !sent }

(* Wwt.Par runs during the timed phase: engine.par spans between the
   stats request that opens it and the one that closes it. *)
let par_runs ~warm_requests names =
  let served = ref 0 and timed = ref false and runs = ref 0 in
  List.iter
    (fun name ->
      if String.length name > 8 && String.sub name 0 8 = "service." then begin
        incr served;
        if !served = warm_requests + 1 then timed := true
        else if name = "service.stats" then timed := false
      end
      else if name = "engine.par" && !timed then incr runs)
    names;
  !runs

(* ---- the open loop ---- *)

type sent = {
  due : int;
  mutable send : int;
  mutable recv : int;
  mutable resp : string;
  mutable cpu_ns : int;  (** cachierd CPU from send to response, paced pass *)
}

(* Kernel samples run only in gaps this long with nothing outstanding;
   a sample, an untimed and a timed pass, takes about twice the nominal
   time. *)
let kernel_gap_ns = 8 * kernel_nominal_ns

let open_loop env ~reqs ~on_response =
  let n = Array.length reqs in
  let fds = Array.init conns (fun _ -> connect env.server.sock) in
  let framers = Array.map (fun _ -> Aio.Framing.create ()) fds in
  let buf = Bytes.create 65536 in
  let period = int_of_float (1e9 /. rate) in
  let t0 = now_ns () + 1_000_000 in
  let log =
    Array.init n (fun i ->
        { due = t0 + (i * period); send = 0; recv = 0; resp = ""; cpu_ns = 0 })
  in
  let received = ref 0 and next = ref 0 in
  let id_of line =
    (* responses start {"id":N, *)
    Scanf.sscanf line "{\"id\":%d" (fun id -> id)
  in
  let read_fd i =
    match Unix.read fds.(i) buf 0 (Bytes.length buf) with
    | 0 -> failwith "cachierd closed a connection"
    | k ->
        let now = now_ns () in
        Aio.Framing.feed framers.(i) buf 0 k;
        let rec drain () =
          match Aio.Framing.next_line framers.(i) with
          | None -> ()
          | Some line ->
              let s = log.(id_of line - 1) in
              s.recv <- now;
              s.resp <- line;
              incr received;
              on_response s reqs.(id_of line - 1);
              drain ()
        in
        drain ()
  in
  let poll timeout_ns =
    let ready, _, _ =
      try Unix.select (Array.to_list fds) [] [] (float_of_int (max 0 timeout_ns) /. 1e9)
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    List.iter
      (fun fd ->
        Array.iteri (fun i f -> if f = fd then read_fd i) fds)
      ready
  in
  let kernel_for = ref (-1) in
  let cpu0 = proc_cpu_s env.server.pid in
  while !next < n do
    let now = now_ns () in
    let s = log.(!next) in
    if now >= s.due then begin
      s.send <- now;
      write_all fds.(!next mod conns) reqs.(!next).line;
      incr next
    end
    else if
      !received = !next && s.due - now > kernel_gap_ns && !kernel_for < !next
    then begin
      kernel_for := !next;
      ignore (sample_kernel ())
    end
    else poll (s.due - now)
  done;
  let drain_deadline = now_ns () + int_of_float (drain_s *. 1e9) in
  while !received < n && now_ns () < drain_deadline do
    poll (drain_deadline - now_ns ())
  done;
  let cpu1 = proc_cpu_s env.server.pid in
  Array.iter Unix.close fds;
  (log, cpu1 -. cpu0)

(* The timed pass of a --trace 0 run: the same plan at the same rate,
   but one request at a time on one connection, so none queues in
   cachierd behind another; a request due while the previous one is out
   goes when that one returns. A request's cost is the CPU time cachierd
   ran from its send to its response. In the open loop, runs where host
   steal took a quarter of both CPUs read op_p50_ms up to 18x the calm
   median, as a slowed worker let hits queue behind fresh requests; the
   open loop stays in the traced run, which prices queueing, transport
   and lateness. *)
let paced env ~reqs ~on_response =
  let n = Array.length reqs in
  let fd = connect env.server.sock in
  let fr = Aio.Framing.create () and buf = Bytes.create 65536 in
  let period = int_of_float (1e9 /. rate) in
  let t0 = now_ns () + 1_000_000 in
  let log =
    Array.init n (fun i ->
        { due = t0 + (i * period); send = 0; recv = 0; resp = ""; cpu_ns = 0 })
  in
  let pid = env.server.pid in
  let cpu0 = proc_cpu_s pid in
  Array.iteri
    (fun i s ->
      if s.due - now_ns () > kernel_gap_ns then ignore (sample_kernel ());
      let wait = s.due - now_ns () in
      if wait > 0 then Unix.sleepf (float_of_int wait /. 1e9);
      let c0 = process_cpu_ns pid in
      s.send <- now_ns ();
      write_all fd reqs.(i).line;
      s.resp <- read_line fd fr buf;
      s.recv <- now_ns ();
      s.cpu_ns <- process_cpu_ns pid - c0;
      on_response s reqs.(i))
    log;
  let cpu1 = proc_cpu_s pid in
  Unix.close fd;
  (log, cpu1 -. cpu0)

(* ---- verification, after timing ---- *)

let default_machine nodes = P.to_machine (machine_cfg nodes)

let program ~nodes ?seed prog =
  let p = Lang.Parser.parse (source_of ~nodes prog) in
  ignore (Lang.Sema.check p);
  match seed with Some s -> Lang.Ast_util.set_const p "SEED" s | None -> p

(* The payload (and annotate summary) Oneshot renders for a request,
   with the simulated accesses behind it. *)
let render f ~nodes ?seed prog =
  let machine = default_machine nodes in
  let p = program ~nodes ?seed prog in
  match f with
  | F_simulate ->
      let o = Wwt.Run.measure ~machine ~annotations:false ~prefetch:false p in
      (Service.Oneshot.simulate_report o, None, Memsys.Stats.total_accesses o.Wwt.Interp.stats)
  | F_races ->
      let o = Wwt.Run.collect_trace ~machine p in
      ( Service.Oneshot.races_report ~nodes o.Wwt.Interp.trace,
        None,
        Memsys.Stats.total_accesses o.Wwt.Interp.stats )
  | F_annotate ->
      let o = Wwt.Run.collect_trace ~machine p in
      let r =
        Cachier.Annotate.annotate_with_trace ~machine
          ~options:Cachier.Placement.default_options p o.Wwt.Interp.trace
      in
      ( Cachier.Annotate.to_source r,
        Some (Service.Oneshot.annotate_summary r),
        Memsys.Stats.total_accesses o.Wwt.Interp.stats )

let cold_annotate src =
  let r =
    Cachier.Annotate.annotate_source ~machine:(default_machine nodes)
      ~options:Cachier.Placement.default_options src
  in
  (Cachier.Annotate.to_source r, Some (Service.Oneshot.annotate_summary r))

type result = {
  lat_ms : (cls * float) list;  (** from the due time *)
  cpu_ms : (cls * float) list;  (** cachierd CPU per request, paced pass *)
  edit_cpu_ms : (int * float) list;  (** cachierd CPU per edit, by base *)
  server_us : (cls * float) list;
  transport_us : (cls * float) list;
  late_ms : float list;
  outstanding : int;
  completed : int;
  failed : int;
  cached : int;
  plan_reuse : int;
  fresh_accesses : float;
  fresh_us : (string * float) list;  (** server time per fresh kind *)
  outputs : string;  (** digest of every payload and its flags, in id order *)
  cpu_s : float;
}

let verify env ~reqs (log : sent array) ~cpu_s =
  let expected_pop = Hashtbl.create 16 in
  let failed = ref 0 and outstanding = ref 0 and completed = ref 0 in
  let cached = ref 0 and plan_reuse = ref 0 and accesses = ref 0. in
  let lat = ref [] and server = ref [] and transport = ref [] and late = ref [] in
  let cpu = ref [] and fresh_us = ref [] and edit_cpu = ref [] and outputs = ref [] in
  Array.iteri
    (fun i s ->
      let r = reqs.(i) in
      late := ms_of_ns (s.send - s.due) :: !late;
      if s.resp = "" then begin
        incr outstanding;
        incr failed
      end
      else
        match P.response_of_json (J.of_string s.resp) with
        | Ok (P.Ok_response o) ->
            incr completed;
            if o.cached then incr cached;
            let report = Option.bind (List.assoc_opt "report" o.extra) J.to_string_opt in
            let expected =
              match r.what with
              | Pop p ->
                  (match Hashtbl.find_opt expected_pop p with
                  | Some e -> e
                  | None ->
                      let f, prog = population.(p) in
                      let pl, sm, _ = render f ~nodes prog in
                      Hashtbl.replace expected_pop p (pl, sm);
                      (pl, sm))
              | Edited (b, span, text) ->
                  let src, _, _ = env.bases.(b) in
                  edit_cpu := (b, ms_of_ns s.cpu_ns) :: !edit_cpu;
                  if List.assoc_opt "reuse" o.extra = Some (J.String "plan-reuse")
                  then incr plan_reuse;
                  cold_annotate (Delta.Splice.apply_edit src span text)
              | New (f, prog, nodes, seed) ->
                  fresh_us :=
                    ( Printf.sprintf "%s %s-%d" (fresh_name f) prog nodes,
                      float_of_int o.elapsed_us )
                    :: !fresh_us;
                  let pl, sm, a = render f ~nodes ~seed prog in
                  accesses := !accesses +. float_of_int a;
                  (pl, sm)
            in
            outputs :=
              String.concat "|"
                [ o.payload; Option.value report ~default:"";
                  string_of_bool o.cached;
                  Option.value ~default:""
                    (Option.bind (List.assoc_opt "reuse" o.extra) J.to_string_opt) ]
              :: !outputs;
            if expected <> (o.payload, report) then begin
              incr failed;
              say "verify: request %d (%s) payload differs" (i + 1) (cls_name r.cls)
            end;
            lat := (r.cls, ms_of_ns (s.recv - s.due)) :: !lat;
            cpu := (r.cls, ms_of_ns s.cpu_ns) :: !cpu;
            server := (r.cls, float_of_int o.elapsed_us) :: !server;
            transport :=
              (r.cls, (float_of_int (s.recv - s.send) /. 1e3) -. float_of_int o.elapsed_us)
              :: !transport
        | Ok (P.Error_response { message; _ }) ->
            incr completed;
            incr failed;
            say "request %d (%s) failed: %s" (i + 1) (cls_name r.cls) message
        | Error m ->
            incr failed;
            say "request %d: bad response: %s" (i + 1) m)
    log;
  {
    lat_ms = !lat;
    cpu_ms = !cpu;
    edit_cpu_ms = !edit_cpu;
    server_us = !server;
    transport_us = !transport;
    late_ms = !late;
    outstanding = !outstanding;
    completed = !completed;
    failed = !failed;
    cached = !cached;
    plan_reuse = !plan_reuse;
    fresh_accesses = !accesses;
    fresh_us = !fresh_us;
    outputs = digest_strings (List.rev !outputs);
    cpu_s;
  }

(* The times of one class, or of all. *)
let values ?cls l =
  List.filter_map (fun (c, v) -> if cls = None || cls = Some c then Some v else None) l

(* ---- metrics ---- *)

(* The end-to-end metrics of a paced pass: request costs are cachierd
   CPU times. *)
let end_to_end ~setup ~rss r =
  let n = List.length r.cpu_ms in
  if float_of_int n *. 0.01 < 10. then
    failwith (Printf.sprintf "%d samples: fewer than 10 beyond p99" n);
  [
    setup;
    time_metric "op_p50_ms" "ms" (median (values r.cpu_ms));
    time_metric "op_tail_ms" "ms" (quantile (values r.cpu_ms) 0.99);
    time_metric "edit_p50_ms" "ms"
      (kind_geomean ~stat:median
         (by_kind ~kinds:(Array.length edit_bases) r.edit_cpu_ms));
    time_metric "cpu_ms_per_op" "ms" (r.cpu_s *. 1000. /. float_of_int r.completed);
    metric "peak_rss_mb" "MB" rss;
    (let raw = r.fresh_accesses /. r.cpu_s /. 1e6 in
     { name = "sim_maccess_per_s"; value = norm_rate raw; unit_ = "M/s"; raw });
  ]

let summary r =
  List.iter
    (fun k ->
      let l = List.filter_map (fun (k', v) -> if k = k' then Some v else None) r.fresh_us in
      say "  fresh %-22s n=%3d  server p50 %8.0f us" k (List.length l) (median l))
    (List.sort_uniq compare (List.map fst r.fresh_us));
  List.iter
    (fun cls ->
      let l = values ~cls r.lat_ms in
      if l <> [] then
        say "  %-6s n=%5d  p50 %8.3f ms  p99 %8.3f ms  server p50 %8.0f us  cpu p50 %8.3f ms"
          (cls_name cls) (List.length l) (median l) (quantile l 0.99)
          (median (values ~cls r.server_us))
          (median (values ~cls r.cpu_ms)))
    [ Hit; Edit; Fresh ];
  say "  late p50 %.3f p99 %.3f ms, hit transport p50 %.0f us, outstanding %d, failed %d, cachierd cpu %.2f s"
    (median r.late_ms) (quantile r.late_ms 0.99)
    (median (values ~cls:Hit r.transport_us))
    r.outstanding r.failed r.cpu_s

(* One measured phase on a warmed server; the server is shut down after. *)
let phase env ~loop ~reqs ~on_response =
  let before = stats env.server in
  let log, cpu_s = loop env ~reqs ~on_response in
  (* the client's spans end with the loop; verification runs untraced *)
  if Obs.enabled () then Obs.flush ();
  let after = stats env.server in
  let rss = peak_rss_mb (string_of_int env.server.pid) in
  shutdown env.server;
  let r = verify env ~reqs log ~cpu_s in
  summary r;
  (r, rss, before, after)

let main ~args ~dir =
  let n = int_of_float (rate *. args.seconds) in
  let current = ref None in
  Fun.protect
    ~finally:(fun () -> Option.iter (fun e -> stop_server e.server) !current)
    (fun () ->
      let rep = ref 0 in
      let (env, reqs), setup =
        repeated_setup (fun () ->
            untimed (fun () -> Option.iter (fun e -> shutdown e.server) !current);
            current := None;
            incr rep;
            let env = warm ~dir ~tag:(Printf.sprintf "s%d" !rep) () in
            current := Some env;
            (env, plan ~seed:args.seed ~n ~bases:env.bases))
      in
      let loop = if args.trace then open_loop else paced in
      let r, rss, _, _ = phase env ~loop ~reqs ~on_response:(fun _ _ -> ()) in
      current := None;
      if not args.trace then
        print_result ~workload:args.workload ~correct:(r.failed = 0)
          ~attempted:n ~failed:r.failed (end_to_end ~setup ~rss r)
      else begin
        (* the traced run: same plan on a server writing its own spans,
           one client span per request with the server's time as child *)
        let server_spans = Filename.concat dir "cachierd.ndjson" in
        let client_spans = Filename.concat dir "client.ndjson" in
        let env = warm ~dir ~tag:"t" ~obs:server_spans () in
        current := Some env;
        Obs.configure (Obs.Ndjson client_spans);
        let t, _, before, after =
          phase env ~loop:open_loop ~reqs ~on_response:(fun s _ ->
              let elapsed_ns =
                try
                  Scanf.sscanf s.resp "{\"id\":%d,\"ok\":true,\"op\":%S,\"cached\":%B,\"elapsed_us\":%d"
                    (fun _ _ _ us -> us * 1000)
                with _ -> 0
              in
              Obs.finish "bench.server" (s.recv - elapsed_ns);
              Obs.finish "bench.op" s.due)
        in
        current := None;
        let spans = Batch.read_op_spans client_spans in
        let par_routed =
          par_runs ~warm_requests:env.warm_requests (span_names server_spans)
        in
        let coverage =
          median
            (Array.to_list
               (Array.map
                  (fun (st, d) ->
                    float_of_int (List.fold_left (fun a (_, x) -> a + x) 0 st)
                    /. float_of_int d)
                  spans))
        in
        let us name cls ?(q = 0.5) l = time_metric name "us" (quantile (values ~cls l) q) in
        let d path = float_of_int (stat_int path after - stat_int path before) in
        let edits = float_of_int (List.length (values ~cls:Edit t.server_us)) in
        let metrics =
          [
            metric "wwt.par_routed" "count" (float_of_int par_routed);
            us "delta.server_us_p50" Edit t.server_us;
            metric "delta.plan_reuse_share" "ratio" (float_of_int t.plan_reuse /. edits);
            us "service.server_us_p50.hit" Hit t.server_us;
            us "service.server_us_p50.fresh" Fresh t.server_us;
            us "service.server_us_p99.hit" Hit ~q:0.99 t.server_us;
            metric "service.hit_share" "ratio"
              (float_of_int t.cached /. float_of_int t.completed);
            metric "service.coalesced" "count" (d [ "coalesced" ]);
            metric "service.errors" "count" (float_of_int t.failed);
            us "aio.transport_us_p50.hit" Hit t.transport_us;
            us "aio.transport_us_p50.edit" Edit t.transport_us;
            us "aio.transport_us_p50.fresh" Fresh t.transport_us;
            time_metric "gen.late_ms_p99" "ms" (quantile t.late_ms 0.99);
            metric "gen.outstanding" "count" (float_of_int t.outstanding);
            metric "traced.coverage" "ratio" coverage;
            metric "traced.overhead" "ratio"
              (median (values t.lat_ms) /. median (values r.lat_ms));
          ]
        in
        let failed = r.failed + t.failed in
        let digests =
          ( digest_strings (Array.to_list (Array.map (fun q -> q.line) reqs)),
            t.outputs )
        in
        print_result ~digests ~workload:args.workload ~correct:(failed = 0)
          ~attempted:(2 * n) ~failed metrics
      end)
