open Cmdliner

(* Numeric flags are refused at parse time, so an out-of-range value is
   a usage error naming the flag instead of an exception from deep in
   Memsys or the server. *)
let int_at_least least what =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= least -> Ok n
    | _ ->
        Error (`Msg (Printf.sprintf "invalid value '%s', expected a %s \
                                     integer" s what))
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

let positive_int = int_at_least 1 "positive"
let non_negative_int = int_at_least 0 "non-negative"

let catch_program_error ~file f =
  try Ok (f ())
  with e -> (
    let bt = Printexc.get_raw_backtrace () in
    match Protocol.error_of_exn e with
    | ((Protocol.Parse_error | Protocol.Runtime_error) as kind), message ->
        Error
          (Printf.sprintf "%s: %s: %s" file
             (Protocol.error_kind_to_string kind)
             message)
    | _ -> Printexc.raise_with_backtrace e bt)

let nodes_term =
  Arg.(value & opt positive_int Wwt.Machine.default.Wwt.Machine.nodes
       & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Number of simulated processors.")

let cache_kb =
  Arg.(value
       & opt positive_int (Wwt.Machine.default.Wwt.Machine.cache_bytes / 1024)
       & info [ "cache-kb" ] ~docv:"KB" ~doc:"Per-node cache size in KB.")

let assoc =
  Arg.(value & opt positive_int Wwt.Machine.default.Wwt.Machine.assoc
       & info [ "assoc" ] ~doc:"Cache associativity.")

let block =
  Arg.(value & opt positive_int Wwt.Machine.default.Wwt.Machine.block_size
       & info [ "block" ] ~doc:"Cache block size in bytes.")

let protocol_conv =
  let parse s =
    match Memsys.Protocol_id.of_string s with
    | Some p -> Ok p
    | None ->
        Error
          (`Msg
             (Printf.sprintf "unknown protocol %S (dir1sw, sisd or commute)" s))
  in
  let print fmt p = Format.pp_print_string fmt (Memsys.Protocol_id.to_string p) in
  Arg.conv ~docv:"PROTOCOL" (parse, print)

let protocol =
  Arg.(
    value
    & opt protocol_conv Memsys.Protocol_id.default
    & info [ "protocol" ] ~docv:"PROTOCOL"
        ~doc:
          "Coherence backend: $(b,dir1sw) (the paper's directory protocol, \
           default), $(b,sisd) (self-invalidation / self-downgrade) or \
           $(b,commute) (privatized commutative updates).")

(* --obs shared by every binary: parse the mode eagerly (so a bad value
   is a usage error, not a mid-run surprise) and configure the global
   pipeline as a side effect of term evaluation. *)
let obs_conv =
  let parse s =
    match Obs.mode_of_string s with
    | Ok m -> Ok m
    | Error msg -> Error (`Msg msg)
  in
  let print fmt m = Format.pp_print_string fmt (Obs.mode_to_string m) in
  Arg.conv ~docv:"MODE" (parse, print)

let obs_term =
  let doc =
    "Observability sink: $(b,off) (default; zero-overhead), $(b,summary) \
     (per-span aggregates and metrics on stderr at exit) or \
     $(b,ndjson:PATH) (one JSON event per line to PATH). Never writes to \
     stdout."
  in
  let mode =
    Arg.(value & opt obs_conv Obs.Off & info [ "obs" ] ~docv:"MODE" ~doc)
  in
  let setup mode =
    (match mode with Obs.Off -> () | _ -> Obs.configure mode);
    mode
  in
  Term.(const setup $ mode)

(* A machine the memory system would refuse is a usage error naming the
   flags; the rules themselves stay in [Memsys.Directory] and
   [Memsys.Cache]. *)
let machine_term =
  let build nodes cache_kb assoc block protocol =
    if nodes > Memsys.Directory.max_nodes then
      Error
        (Printf.sprintf "--nodes %d: at most %d nodes are supported" nodes
           Memsys.Directory.max_nodes)
    else
      let cache_bytes = cache_kb * 1024 in
      match
        Memsys.Cache.check_geometry ~size_bytes:cache_bytes ~assoc
          ~block_size:block
      with
      | Error reason ->
          Error
            (Printf.sprintf "--cache-kb %d, --assoc %d, --block %d: %s"
               cache_kb assoc block reason)
      | Ok () ->
          Ok
            {
              Wwt.Machine.default with
              Wwt.Machine.nodes;
              cache_bytes;
              assoc;
              block_size = block;
              protocol;
            }
  in
  Term.term_result' ~usage:true
    Term.(const build $ nodes_term $ cache_kb $ assoc $ block $ protocol)
