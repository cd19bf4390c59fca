external now_ns : unit -> int = "cachier_obs_now_ns" [@@noalloc]

type mode = Off | Summary | Ndjson of string

let mode_to_string = function
  | Off -> "off"
  | Summary -> "summary"
  | Ndjson path -> "ndjson:" ^ path

let mode_of_string s =
  match s with
  | "off" -> Ok Off
  | "summary" -> Ok Summary
  | _ ->
      let prefix = "ndjson:" in
      let plen = String.length prefix in
      if String.length s > plen && String.sub s 0 plen = prefix then
        Ok (Ndjson (String.sub s plen (String.length s - plen)))
      else
        Error
          (Printf.sprintf
             "invalid obs mode %S (expected off, summary or ndjson:PATH)" s)

(* ------------------------------------------------------------------ *)
(* metrics                                                             *)

type counter = { c_name : string; c_v : int Atomic.t }
type gauge = { g_name : string; g_v : int Atomic.t }

let hist_buckets = 30 (* <=1us .. <=2^29us, then overflow *)

type hist = {
  h_name : string;
  h_mu : Mutex.t;
  mutable h_count : int;
  mutable h_sum : int;
  h_slots : int array;
}

type registry = {
  r_mu : Mutex.t;
  r_counters : (string, counter) Hashtbl.t;
  r_gauges : (string, gauge) Hashtbl.t;
  r_hists : (string, hist) Hashtbl.t;
}

let make_registry () =
  {
    r_mu = Mutex.create ();
    r_counters = Hashtbl.create 16;
    r_gauges = Hashtbl.create 8;
    r_hists = Hashtbl.create 8;
  }

let locked mu f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let get_or_create reg tbl name build =
  locked reg.r_mu (fun () ->
      match Hashtbl.find_opt tbl name with
      | Some m -> m
      | None ->
          let m = build name in
          Hashtbl.add tbl name m;
          m)

let sorted_bindings tbl value =
  Hashtbl.fold (fun k v acc -> (k, value v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

module Histogram = struct
  let buckets = hist_buckets

  let bucket_of us =
    let us = max 0 us in
    let rec find i bound =
      if i >= buckets then buckets
      else if us <= bound then i
      else find (i + 1) (bound * 2)
    in
    find 0 1

  let bound_of i = if i >= buckets then -1 else 1 lsl i

  type t = hist
  type snapshot = { count : int; sum : int; slots : int array }

  let observe h us =
    let b = bucket_of us in
    Mutex.lock h.h_mu;
    h.h_count <- h.h_count + 1;
    h.h_sum <- h.h_sum + max 0 us;
    h.h_slots.(b) <- h.h_slots.(b) + 1;
    Mutex.unlock h.h_mu

  let snapshot h =
    locked h.h_mu (fun () ->
        { count = h.h_count; sum = h.h_sum; slots = Array.copy h.h_slots })

  let name h = h.h_name
end

module Counter = struct
  type t = counter

  let incr c = Atomic.incr c.c_v
  let add c n = ignore (Atomic.fetch_and_add c.c_v n)
  let value c = Atomic.get c.c_v
  let name c = c.c_name
end

module Gauge = struct
  type t = gauge

  let set g n = Atomic.set g.g_v n
  let add g n = ignore (Atomic.fetch_and_add g.g_v n)
  let value g = Atomic.get g.g_v
  let name g = g.g_name
end

module Registry = struct
  type t = registry

  let create = make_registry
  let default = make_registry ()

  let counter ?(registry = default) name =
    get_or_create registry registry.r_counters name (fun c_name ->
        { c_name; c_v = Atomic.make 0 })

  let gauge ?(registry = default) name =
    get_or_create registry registry.r_gauges name (fun g_name ->
        { g_name; g_v = Atomic.make 0 })

  let histogram ?(registry = default) name =
    get_or_create registry registry.r_hists name (fun h_name ->
        {
          h_name;
          h_mu = Mutex.create ();
          h_count = 0;
          h_sum = 0;
          h_slots = Array.make (hist_buckets + 1) 0;
        })

  let counters t =
    locked t.r_mu (fun () -> sorted_bindings t.r_counters Counter.value)

  let gauges t =
    locked t.r_mu (fun () -> sorted_bindings t.r_gauges Gauge.value)

  let histograms t =
    let hs = locked t.r_mu (fun () -> sorted_bindings t.r_hists Fun.id) in
    List.map (fun (n, h) -> (n, Histogram.snapshot h)) hs
end

(* ------------------------------------------------------------------ *)
(* the span pipeline                                                   *)

type sagg = {
  mutable a_count : int;
  mutable a_total : int;
  mutable a_max : int;
}

type span_agg = { s_count : int; s_total_ns : int; s_max_ns : int }

type state = {
  mutable on : bool; (* the one flag every disabled seam branches on *)
  mutable mode : mode;
  mutable t0 : int; (* configure time; event timestamps are relative *)
  mutable out : out_channel option; (* NDJSON sink *)
  mutable flushed : bool;
  mutable at_exit_registered : bool;
  mu : Mutex.t; (* guards everything above plus agg and out writes *)
  agg : (string, sagg) Hashtbl.t;
  buf : Buffer.t; (* NDJSON scratch, reused under [mu] *)
}

let st =
  {
    on = false;
    mode = Off;
    t0 = 0;
    out = None;
    flushed = false;
    at_exit_registered = false;
    mu = Mutex.create ();
    agg = Hashtbl.create 32;
    buf = Buffer.create 256;
  }

let enabled () = st.on [@@inline]

let depth_key = Domain.DLS.new_key (fun () -> ref 0)

(* Minimal RFC 8259 string escaping; span names are plain identifiers in
   practice but the sink must never emit an unparseable line. *)
let add_json_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* Emit one NDJSON line. Must be called with [st.mu] held. *)
let emit_line_locked fill =
  match st.out with
  | None -> ()
  | Some oc ->
      Buffer.clear st.buf;
      fill st.buf;
      Buffer.add_char st.buf '\n';
      Buffer.output_buffer oc st.buf

let record_span name ~t0 ~depth =
  let now = now_ns () in
  let dur = now - t0 in
  let dom = (Domain.self () :> int) in
  Mutex.lock st.mu;
  if st.on then begin
    (match Hashtbl.find_opt st.agg name with
    | Some a ->
        a.a_count <- a.a_count + 1;
        a.a_total <- a.a_total + dur;
        if dur > a.a_max then a.a_max <- dur
    | None ->
        Hashtbl.add st.agg name { a_count = 1; a_total = dur; a_max = dur });
    emit_line_locked (fun b ->
        Buffer.add_string b {|{"ev":"span","name":|};
        add_json_string b name;
        Buffer.add_string b (Printf.sprintf
          {|,"dom":%d,"depth":%d,"ts_ns":%d,"dur_ns":%d}|}
          dom depth (t0 - st.t0) dur))
  end;
  Mutex.unlock st.mu

let span name f =
  if not st.on then f ()
  else begin
    let d = Domain.DLS.get depth_key in
    let my_depth = !d in
    let t0 = now_ns () in
    d := my_depth + 1;
    match f () with
    | v ->
        d := my_depth;
        record_span name ~t0 ~depth:my_depth;
        v
    | exception e ->
        d := my_depth;
        record_span name ~t0 ~depth:my_depth;
        raise e
  end

let start () = if st.on then now_ns () else 0

let finish name t0 =
  if st.on && t0 <> 0 then
    record_span name ~t0 ~depth:!(Domain.DLS.get depth_key)

let span_summary () =
  locked st.mu (fun () ->
      sorted_bindings st.agg (fun a ->
          { s_count = a.a_count; s_total_ns = a.a_total; s_max_ns = a.a_max }))

(* ------------------------------------------------------------------ *)
(* flush: summary rendering and NDJSON snapshots                       *)

let print_summary_locked () =
  let pr fmt = Printf.eprintf fmt in
  pr "--- obs summary ---\n";
  let spans = sorted_bindings st.agg Fun.id in
  if spans <> [] then begin
    pr "%-28s %10s %12s %10s %10s\n" "span" "count" "total_ms" "mean_us"
      "max_us";
    List.iter
      (fun (name, a) ->
        pr "%-28s %10d %12.3f %10d %10d\n" name a.a_count
          (float_of_int a.a_total /. 1e6)
          (a.a_total / (1000 * max 1 a.a_count))
          (a.a_max / 1000))
      spans
  end;
  let counters = Registry.counters Registry.default in
  if counters <> [] then begin
    pr "counters:\n";
    List.iter (fun (n, v) -> pr "  %-34s %d\n" n v) counters
  end;
  let gauges = Registry.gauges Registry.default in
  if gauges <> [] then begin
    pr "gauges:\n";
    List.iter (fun (n, v) -> pr "  %-34s %d\n" n v) gauges
  end;
  let hists = Registry.histograms Registry.default in
  if hists <> [] then begin
    pr "histograms (count, mean_us):\n";
    List.iter
      (fun (n, (s : Histogram.snapshot)) ->
        pr "  %-34s %d %d\n" n s.Histogram.count
          (if s.Histogram.count = 0 then 0 else s.Histogram.sum / s.Histogram.count))
      hists
  end;
  pr "%!"

let emit_snapshot_locked () =
  List.iter
    (fun (n, v) ->
      emit_line_locked (fun b ->
          Buffer.add_string b {|{"ev":"counter","name":|};
          add_json_string b n;
          Buffer.add_string b (Printf.sprintf {|,"value":%d}|} v)))
    (Registry.counters Registry.default);
  List.iter
    (fun (n, v) ->
      emit_line_locked (fun b ->
          Buffer.add_string b {|{"ev":"gauge","name":|};
          add_json_string b n;
          Buffer.add_string b (Printf.sprintf {|,"value":%d}|} v)))
    (Registry.gauges Registry.default);
  List.iter
    (fun (n, (s : Histogram.snapshot)) ->
      emit_line_locked (fun b ->
          Buffer.add_string b {|{"ev":"hist","name":|};
          add_json_string b n;
          Buffer.add_string b (Printf.sprintf
            {|,"count":%d,"sum_us":%d}|} s.Histogram.count s.Histogram.sum)))
    (Registry.histograms Registry.default)

let flush () =
  Mutex.lock st.mu;
  if not st.flushed then begin
    st.flushed <- true;
    st.on <- false;
    (match st.mode with
    | Off -> ()
    | Summary -> print_summary_locked ()
    | Ndjson _ ->
        emit_snapshot_locked ();
        (match st.out with
        | Some oc -> ( try close_out oc with Sys_error _ -> ())
        | None -> ());
        st.out <- None)
  end;
  Mutex.unlock st.mu

let configure mode =
  Mutex.lock st.mu;
  (match st.out with
  | Some oc -> ( try close_out oc with Sys_error _ -> ())
  | None -> ());
  st.out <- None;
  Hashtbl.reset st.agg;
  st.mode <- mode;
  st.t0 <- now_ns ();
  st.flushed <- false;
  (match mode with
  | Off -> st.on <- false
  | Summary -> st.on <- true
  | Ndjson path ->
      let oc = open_out path in
      st.out <- Some oc;
      emit_line_locked (fun b ->
          Buffer.add_string b {|{"ev":"meta","version":1,"clock":"monotonic_ns"}|});
      st.on <- true);
  if not st.at_exit_registered then begin
    st.at_exit_registered <- true;
    at_exit flush
  end;
  Mutex.unlock st.mu
