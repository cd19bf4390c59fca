(* cachierd — the resident annotation service.

   Serves the operations of the one-shot tools (parse, simulate,
   annotate, annotate_delta, races, trace_stats) and the service's own
   (stats, ping, shutdown) over newline-delimited JSON, on
   stdio or a Unix-domain socket, with a two-tier content-addressed
   artifact cache so repeated work is answered without re-simulating.
   The socket mode runs N event-loop listener shards over the shared
   socket and coalesces identical concurrent requests. See the
   "Running the service" section of the README for the protocol.

   SIGTERM/SIGINT shut down gracefully: stop accepting, drain in-flight
   requests within the drain grace, flush sinks, exit 0. *)

exception Interrupted

let run machine socket budget_mb cache_dir workers capacity listeners
    idle_timeout_ms drain_ms (_obs : Obs.mode) =
  let machine_defaults =
    {
      Service.Protocol.nodes = machine.Wwt.Machine.nodes;
      cache_kb = machine.Wwt.Machine.cache_bytes / 1024;
      assoc = machine.Wwt.Machine.assoc;
      block = machine.Wwt.Machine.block_size;
      protocol = machine.Wwt.Machine.protocol;
    }
  in
  let config =
    {
      Service.Server.machine_defaults;
      budget_bytes = budget_mb * 1024 * 1024;
      cache_dir;
      workers;
      queue_capacity = capacity;
    }
  in
  let server = Service.Server.create config in
  let stop = Atomic.make false in
  let on_signal =
    Sys.Signal_handle
      (fun _ ->
        (* socket mode: the shards observe [stop] and drain; stdio mode:
           unwind the blocking read loop *)
        Atomic.set stop true;
        if socket = None then raise Interrupted)
  in
  (try Sys.set_signal Sys.sigterm on_signal with Invalid_argument _ -> ());
  (try Sys.set_signal Sys.sigint on_signal with Invalid_argument _ -> ());
  Fun.protect
    ~finally:(fun () ->
      Service.Server.shutdown server;
      Obs.flush ())
    (fun () ->
      match socket with
      | Some path ->
          Fmt.epr
            "cachierd: serving on %s (%d listeners, %d workers, %d MB cache)@."
            path listeners workers budget_mb;
          Service.Server.serve_shards server ~path
            ~options:
              {
                Service.Server.listeners;
                idle_timeout_s = float_of_int idle_timeout_ms /. 1000.;
                drain_grace_s = float_of_int drain_ms /. 1000.;
              }
            ~stop ()
      | None -> (
          Fmt.epr "cachierd: serving on stdio (%d workers, %d MB cache)@."
            workers budget_mb;
          try ignore (Service.Server.serve server stdin stdout)
          with Interrupted -> Fmt.epr "cachierd: interrupted, draining@."));
  0

open Cmdliner

let socket =
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH"
         ~doc:"Serve on a Unix-domain socket bound at $(docv) instead of \
               stdio.")

let defaults = Service.Server.default_config
let serve_defaults = Service.Server.default_serve_options
let ms seconds = int_of_float (seconds *. 1000.)

let budget_mb =
  Arg.(value
       & opt Service.Cli.positive_int (defaults.budget_bytes / (1024 * 1024))
       & info [ "cache-budget-mb" ] ~docv:"MB"
           ~doc:"In-memory artifact-cache byte budget; least-recently-used \
                 entries are evicted beyond it.")

let cache_dir =
  Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR"
         ~doc:"Persist stage artifacts under $(docv) (the disk tier) so \
               the cache is warm after a restart.")

let workers =
  Arg.(value & opt Service.Cli.positive_int defaults.workers
       & info [ "workers" ] ~docv:"N"
           ~doc:"Worker domains executing requests.")

let capacity =
  Arg.(value & opt Service.Cli.non_negative_int defaults.queue_capacity
       & info [ "queue-capacity" ] ~docv:"N"
           ~doc:"Bounded submission queue; beyond it requests are refused \
                 with an $(b,overloaded) error (0 refuses every work \
                 request).")

let listeners =
  Arg.(value & opt Service.Cli.positive_int serve_defaults.listeners
       & info [ "listeners" ] ~docv:"N"
           ~doc:"Event-loop listener shards sharing the socket (socket mode \
                 only).")

let idle_timeout_ms =
  Arg.(value
       & opt Service.Cli.non_negative_int (ms serve_defaults.idle_timeout_s)
       & info [ "idle-timeout-ms" ] ~docv:"MS"
           ~doc:"Drop connections idle longer than $(docv); 0 keeps them \
                 (socket mode only).")

let drain_ms =
  Arg.(value
       & opt Service.Cli.non_negative_int (ms serve_defaults.drain_grace_s)
       & info [ "drain-ms" ] ~docv:"MS"
           ~doc:"On shutdown, bound the in-flight drain at $(docv) before \
                 closing remaining connections.")

let cmd =
  let doc = "resident CICO annotation service with an artifact cache" in
  Cmd.v
    (Cmd.info "cachierd" ~doc)
    Term.(const run $ Service.Cli.machine_term $ socket $ budget_mb
          $ cache_dir $ workers $ capacity $ listeners $ idle_timeout_ms
          $ drain_ms $ Service.Cli.obs_term)

let () = exit (Cmd.eval' cmd)
