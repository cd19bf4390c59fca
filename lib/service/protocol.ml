type machine_config = {
  nodes : int;
  cache_kb : int;
  assoc : int;
  block : int;
  protocol : Memsys.Protocol_id.t;
}

let default_machine =
  {
    nodes = 8;
    cache_kb = 16;
    assoc = 4;
    block = 32;
    protocol = Memsys.Protocol_id.default;
  }

let to_machine m =
  {
    Wwt.Machine.default with
    Wwt.Machine.nodes = m.nodes;
    cache_bytes = m.cache_kb * 1024;
    assoc = m.assoc;
    block_size = m.block;
    protocol = m.protocol;
  }

type source = Text of string | Bench of string
type mode = Performance | Programmer

type op =
  | Parse of { source : source }
  | Simulate of {
      source : source;
      annotations : bool;
      prefetch : bool;
      trace : bool;
    }
  | Annotate of { source : source; mode : mode; prefetch : bool }
  | Annotate_delta of {
      base : string;  (** artifact id: hex digest of the base source *)
      start : int;  (** byte offset of the edit span *)
      len : int;  (** byte length of the replaced span *)
      text : string;  (** replacement text *)
      mode : mode;
      prefetch : bool;
    }
  | Races of { source : source }
  | Trace_stats of { source : source option; trace_text : string option }
  | Stats
  | Ping
  | Shutdown

type request = {
  id : int;
  machine : machine_config;
  seed : int option;
  deadline_ms : int option;
  op : op;
}

type error_kind =
  | Bad_request
  | Unknown_benchmark
  | Parse_error
  | Runtime_error
  | Deadline_exceeded
  | Overloaded
  | Internal

let error_kind_to_string = function
  | Bad_request -> "bad_request"
  | Unknown_benchmark -> "unknown_benchmark"
  | Parse_error -> "parse_error"
  | Runtime_error -> "runtime_error"
  | Deadline_exceeded -> "deadline_exceeded"
  | Overloaded -> "overloaded"
  | Internal -> "internal"

exception Reject of error_kind * string

let error_of_exn = function
  | Reject (kind, message) -> (kind, message)
  | Lang.Lexer.Error msg | Lang.Parser.Error msg | Lang.Sema.Error msg ->
      (Parse_error, msg)
  | Wwt.Interp.Runtime_error msg | Wwt.Sched.Deadlock msg -> (Runtime_error, msg)
  | Wwt.Sched.Cancelled msg -> (Deadline_exceeded, msg)
  | e -> (Internal, Printexc.to_string e)

let error_kind_of_string = function
  | "bad_request" -> Some Bad_request
  | "unknown_benchmark" -> Some Unknown_benchmark
  | "parse_error" -> Some Parse_error
  | "runtime_error" -> Some Runtime_error
  | "deadline_exceeded" -> Some Deadline_exceeded
  | "overloaded" -> Some Overloaded
  | "internal" -> Some Internal
  | _ -> None

type response =
  | Ok_response of {
      id : int;
      op : string;
      cached : bool;
      elapsed_us : int;
      payload : string;
      extra : (string * Json.t) list;
    }
  | Error_response of { id : int; error : error_kind; message : string }

let op_name = function
  | Parse _ -> "parse"
  | Simulate _ -> "simulate"
  | Annotate _ -> "annotate"
  | Annotate_delta _ -> "annotate_delta"
  | Races _ -> "races"
  | Trace_stats _ -> "trace_stats"
  | Stats -> "stats"
  | Ping -> "ping"
  | Shutdown -> "shutdown"

(* ------------------------------------------------------------------ *)
(* encoding                                                            *)

let source_fields = function
  | Text s -> [ ("source", Json.String s) ]
  | Bench b -> [ ("bench", Json.String b) ]

let mode_to_string = function
  | Performance -> "performance"
  | Programmer -> "programmer"

let op_fields = function
  | Parse { source } -> source_fields source
  | Simulate { source; annotations; prefetch; trace } ->
      source_fields source
      @ [
          ("annotations", Json.Bool annotations);
          ("prefetch", Json.Bool prefetch);
          ("trace", Json.Bool trace);
        ]
  | Annotate { source; mode; prefetch } ->
      source_fields source
      @ [
          ("mode", Json.String (mode_to_string mode));
          ("prefetch", Json.Bool prefetch);
        ]
  | Annotate_delta { base; start; len; text; mode; prefetch } ->
      [
        ("base", Json.String base);
        ("start", Json.Int start);
        ("len", Json.Int len);
        ("text", Json.String text);
        ("mode", Json.String (mode_to_string mode));
        ("prefetch", Json.Bool prefetch);
      ]
  | Races { source } -> source_fields source
  | Trace_stats { source; trace_text } ->
      (match source with Some s -> source_fields s | None -> [])
      @ (match trace_text with
        | Some t -> [ ("trace_text", Json.String t) ]
        | None -> [])
  | Stats | Ping | Shutdown -> []

let request_to_json r =
  let machine_fields =
    if r.machine = default_machine then []
    else
      [
        ("nodes", Json.Int r.machine.nodes);
        ("cache_kb", Json.Int r.machine.cache_kb);
        ("assoc", Json.Int r.machine.assoc);
        ("block", Json.Int r.machine.block);
        ( "protocol",
          Json.String (Memsys.Protocol_id.to_string r.machine.protocol) );
      ]
  in
  Json.Obj
    ([ ("id", Json.Int r.id); ("op", Json.String (op_name r.op)) ]
    @ machine_fields
    @ (match r.seed with Some s -> [ ("seed", Json.Int s) ] | None -> [])
    @ (match r.deadline_ms with
      | Some d -> [ ("deadline_ms", Json.Int d) ]
      | None -> [])
    @ op_fields r.op)

let response_to_json = function
  | Ok_response { id; op; cached; elapsed_us; payload; extra } ->
      Json.Obj
        ([
           ("id", Json.Int id);
           ("ok", Json.Bool true);
           ("op", Json.String op);
           ("cached", Json.Bool cached);
           ("elapsed_us", Json.Int elapsed_us);
           ("payload", Json.String payload);
         ]
        @ extra)
  | Error_response { id; error; message } ->
      Json.Obj
        [
          ("id", Json.Int id);
          ("ok", Json.Bool false);
          ("error", Json.String (error_kind_to_string error));
          ("message", Json.String message);
        ]

(* ------------------------------------------------------------------ *)
(* decoding                                                            *)

let ( let* ) = Result.bind

let int_field ?default j k =
  match Json.member k j with
  | Json.Null -> (
      match default with
      | Some d -> Ok d
      | None -> Error (Printf.sprintf "missing integer field %S" k))
  | v -> (
      match Json.to_int_opt v with
      | Some i -> Ok i
      | None -> Error (Printf.sprintf "field %S must be an integer" k))

let bool_field j k ~default =
  match Json.member k j with
  | Json.Null -> Ok default
  | v -> (
      match Json.to_bool_opt v with
      | Some b -> Ok b
      | None -> Error (Printf.sprintf "field %S must be a boolean" k))

let string_field_opt j k =
  match Json.member k j with
  | Json.Null -> Ok None
  | v -> (
      match Json.to_string_opt v with
      | Some s -> Ok (Some s)
      | None -> Error (Printf.sprintf "field %S must be a string" k))

let opt_int_field j k =
  match Json.member k j with
  | Json.Null -> Ok None
  | v -> (
      match Json.to_int_opt v with
      | Some i -> Ok (Some i)
      | None -> Error (Printf.sprintf "field %S must be an integer" k))

let source_of j =
  let* src = string_field_opt j "source" in
  let* bench = string_field_opt j "bench" in
  match (src, bench) with
  | Some s, None -> Ok (Text s)
  | None, Some b -> Ok (Bench b)
  | None, None -> Error "provide \"source\" or \"bench\""
  | Some _, Some _ -> Error "\"source\" and \"bench\" are exclusive"

let machine_of ~defaults j =
  let* nodes = int_field ~default:defaults.nodes j "nodes" in
  let* cache_kb = int_field ~default:defaults.cache_kb j "cache_kb" in
  let* assoc = int_field ~default:defaults.assoc j "assoc" in
  let* block = int_field ~default:defaults.block j "block" in
  let* protocol =
    match Json.member "protocol" j with
    | Json.Null -> Ok defaults.protocol
    | v -> (
        match Json.to_string_opt v with
        | None -> Error "field \"protocol\" must be a string"
        | Some s -> (
            match Memsys.Protocol_id.of_string s with
            | Some p -> Ok p
            | None ->
                Error
                  (Printf.sprintf
                     "\"protocol\" must be one of dir1sw, sisd, commute, not %S"
                     s)))
  in
  if nodes < 1 then Error "\"nodes\" must be positive"
  else if cache_kb < 1 then Error "\"cache_kb\" must be positive"
  else if assoc < 1 then Error "\"assoc\" must be positive"
  else if block < 8 then Error "\"block\" must be at least 8"
  else Ok { nodes; cache_kb; assoc; block; protocol }

let op_of j =
  match Json.to_string_opt (Json.member "op" j) with
  | None -> Error "missing string field \"op\""
  | Some name -> (
      match name with
      | "parse" ->
          let* source = source_of j in
          Ok (Parse { source })
      | "simulate" ->
          let* source = source_of j in
          let* annotations = bool_field j "annotations" ~default:false in
          let* prefetch = bool_field j "prefetch" ~default:false in
          let* trace = bool_field j "trace" ~default:false in
          Ok (Simulate { source; annotations; prefetch; trace })
      | "annotate" ->
          let* source = source_of j in
          let* mode_s = string_field_opt j "mode" in
          let* mode =
            match mode_s with
            | None | Some "performance" -> Ok Performance
            | Some "programmer" -> Ok Programmer
            | Some other ->
                Error
                  (Printf.sprintf
                     "\"mode\" must be \"performance\" or \"programmer\", not %S"
                     other)
          in
          let* prefetch = bool_field j "prefetch" ~default:false in
          Ok (Annotate { source; mode; prefetch })
      | "annotate_delta" ->
          let* base =
            match Json.to_string_opt (Json.member "base" j) with
            | Some s -> Ok s
            | None -> Error "missing string field \"base\""
          in
          let* start = int_field j "start" in
          let* len = int_field j "len" in
          let* text =
            match Json.to_string_opt (Json.member "text" j) with
            | Some s -> Ok s
            | None -> Error "missing string field \"text\""
          in
          let* mode_s = string_field_opt j "mode" in
          let* mode =
            match mode_s with
            | None | Some "performance" -> Ok Performance
            | Some "programmer" -> Ok Programmer
            | Some other ->
                Error
                  (Printf.sprintf
                     "\"mode\" must be \"performance\" or \"programmer\", not %S"
                     other)
          in
          let* prefetch = bool_field j "prefetch" ~default:false in
          if start < 0 then Error "\"start\" must be non-negative"
          else if len < 0 then Error "\"len\" must be non-negative"
          else Ok (Annotate_delta { base; start; len; text; mode; prefetch })
      | "races" ->
          let* source = source_of j in
          Ok (Races { source })
      | "trace_stats" -> (
          let* trace_text = string_field_opt j "trace_text" in
          match trace_text with
          | Some t -> Ok (Trace_stats { source = None; trace_text = Some t })
          | None ->
              let* source = source_of j in
              Ok (Trace_stats { source = Some source; trace_text = None }))
      | "stats" -> Ok Stats
      | "ping" -> Ok Ping
      | "shutdown" -> Ok Shutdown
      | other -> Error (Printf.sprintf "unknown op %S" other))

let request_of_json ?(defaults = default_machine) j =
  match j with
  | Json.Obj _ ->
      let* id = int_field ~default:0 j "id" in
      let* machine = machine_of ~defaults j in
      let* seed = opt_int_field j "seed" in
      let* deadline_ms = opt_int_field j "deadline_ms" in
      let* op = op_of j in
      Ok { id; machine; seed; deadline_ms; op }
  | _ -> Error "request must be a JSON object"

let response_of_json j =
  match j with
  | Json.Obj fields -> (
      let* id = int_field ~default:0 j "id" in
      match Json.to_bool_opt (Json.member "ok" j) with
      | Some true ->
          let* op =
            match Json.to_string_opt (Json.member "op" j) with
            | Some s -> Ok s
            | None -> Error "missing \"op\""
          in
          let* cached = bool_field j "cached" ~default:false in
          let* elapsed_us = int_field ~default:0 j "elapsed_us" in
          let* payload =
            match Json.to_string_opt (Json.member "payload" j) with
            | Some s -> Ok s
            | None -> Error "missing \"payload\""
          in
          let known =
            [ "id"; "ok"; "op"; "cached"; "elapsed_us"; "payload" ]
          in
          let extra =
            List.filter (fun (k, _) -> not (List.mem k known)) fields
          in
          Ok (Ok_response { id; op; cached; elapsed_us; payload; extra })
      | Some false ->
          let* kind_s =
            match Json.to_string_opt (Json.member "error" j) with
            | Some s -> Ok s
            | None -> Error "missing \"error\""
          in
          let* error =
            match error_kind_of_string kind_s with
            | Some k -> Ok k
            | None -> Error (Printf.sprintf "unknown error kind %S" kind_s)
          in
          let* message = string_field_opt j "message" in
          Ok
            (Error_response
               { id; error; message = Option.value message ~default:"" })
      | _ -> Error "missing boolean field \"ok\"")
  | _ -> Error "response must be a JSON object"

let read_request ?defaults line =
  match Json.of_string line with
  | exception Json.Parse_error msg -> Error msg
  | j -> request_of_json ?defaults j

let write_response buf r =
  Json.to_buffer buf (response_to_json r);
  Buffer.add_char buf '\n'
