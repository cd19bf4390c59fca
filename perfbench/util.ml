(* Shared machinery of the benchmark: seeded randomness, the drift
   reference kernel, order statistics, process probes, repeated set-up
   and the result lines. *)

type args = { workload : string; seed : int; seconds : float; trace : bool }

let now_ns = Obs.now_ns
let ms_of_ns ns = float_of_int ns /. 1e6

(* Origin of set-up time: when run.py spawned this process, so that
   exec, runtime start and library initialisation count (both clocks are
   CLOCK_MONOTONIC); the start of this module when run directly. *)
let t_start =
  match Option.bind (Sys.getenv_opt "PERFBENCH_SPAWN_NS") int_of_string_opt with
  | Some t -> t
  | None -> now_ns ()

(* ---- seeded inputs ---- *)

let rng seed = Random.State.make [| 0x5eed; seed |]
let pick st n = Random.State.int st n

(* A SEED value for a redrawn input data set; never the suite's own
   trace or eval seed, so every op text is one the process has not seen. *)
let draw_seed st = 1000 + Random.State.int st 1_000_000_000

(* ---- the drift reference kernel ----

   A fixed, allocation-free loop that calls no repo code: two independent
   streams of random reads over a 256 KiB table, which sits in a core's
   L2. A sample times the second of two back-to-back passes: the op
   before it evicts the table from L2, and a first pass after the op ran
   2.0-2.3x slower than the second, by an amount that depended on which
   op came before, while second passes read the same whatever the op.
   The reference host switches between a fast and a slow state within
   seconds (op CPU times of one kind bunch at two levels about 1.6x
   apart); batch op times are divided by the kernel time sampled just
   before the op and multiplied by [kernel_nominal_ns], other time
   metrics by the run's median kernel time. *)

let table_words = 1 lsl 15
let kernel_table = Array.init table_words (fun i -> i * 7)
let kernel_nominal_ns = Config.kernel_nominal_ns

let kernel () =
  let a = kernel_table in
  let acc = ref 0 in
  for i = 1 to 20_000 do
    acc :=
      !acc
      + a.((i * 0x9E3779B1) land (table_words - 1))
      + a.((i * 0x85EBCA6B) land (table_words - 1))
  done;
  !acc

let kernel_samples = ref []

(* One kernel sample, after an untimed pass that brings the table back
   into cache; it also feeds the run's median. *)
let sample_kernel () =
  ignore (Sys.opaque_identity (kernel ()));
  let t0 = now_ns () in
  ignore (Sys.opaque_identity (kernel ()));
  let dt = now_ns () - t0 in
  kernel_samples := dt :: !kernel_samples;
  dt

(* ---- order statistics ---- *)

let sorted_floats l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

(* The q-quantile by the nearest-rank rule: the smallest sample with at
   least a share q of the samples at or below it. *)
let quantile l q =
  let a = sorted_floats l in
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let median l =
  let a = sorted_floats l in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let geomean l =
  match l with
  | [] -> nan
  | _ ->
      exp
        (List.fold_left (fun s x -> s +. log x) 0. l
        /. float_of_int (List.length l))

(* Samples grouped by kind, in kind order. *)
let by_kind ~kinds samples =
  let buckets = Array.make kinds [] in
  List.iter (fun (k, v) -> buckets.(k) <- v :: buckets.(k)) samples;
  buckets

(* Geometric mean over the kinds selected by [keep] of each kind's
   [stat]; kinds without samples are skipped. *)
let kind_geomean ?(keep = fun _ -> true) ~stat buckets =
  let acc = ref [] in
  Array.iteri
    (fun k l -> if keep k && l <> [] then acc := stat l :: !acc)
    buckets;
  geomean !acc

(* ---- time normalisation ---- *)

let kernel_median_ns () =
  median (List.map float_of_int !kernel_samples)

(* A time, scaled to the reference host by one kernel sample or by the
   run's median. *)
let scale_by kernel_ns raw = raw *. float_of_int kernel_nominal_ns /. kernel_ns
let norm_time raw = scale_by (kernel_median_ns ()) raw

(* A rate (work per host second), scaled to the reference host. *)
let norm_rate raw =
  raw *. kernel_median_ns () /. float_of_int kernel_nominal_ns

(* ---- allocation counts ---- *)

(* [f ()] and the words it allocated on the minor heap: every block but
   the large ones (over 256 words), which go straight to the major heap.
   The major-heap counters also count promotions, which depend on where
   the minor collections fall, so only this count repeats exactly. *)
let with_alloc f =
  let a0 = Gc.minor_words () in
  let r = f () in
  (r, Gc.minor_words () -. a0)

(* ---- process probes ---- *)

let cpu_s () = Sys.time ()

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* VmHWM of a process, in MB. *)
let peak_rss_mb pid =
  let status = read_file (Printf.sprintf "/proc/%s/status" pid) in
  let line =
    List.find
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' status)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)

(* CPU nanoseconds of another process, all its threads; -1 if it is
   gone. *)
external process_cpu_ns : int -> int = "perfbench_process_cpu_ns"

let proc_cpu_s pid = float_of_int (process_cpu_ns pid) /. 1e9

(* ---- the result ---- *)

type metric = { name : string; value : float; unit_ : string; raw : float }

let metric name unit_ value = { name; value; unit_; raw = value }

(* A time metric: normalised value, raw value kept beside it. *)
let time_metric name unit_ raw = { name; value = norm_time raw; unit_; raw }

(* ---- set-up repeated for timing ---- *)

let setup_reps = Config.setup_reps

(* Set-up time of the current repetition, raw and scaled, and the
   stretch since the last step: its start and the kernel sampled there.
   The kernel sampling itself is left out. *)
let setup_raw = ref 0.
let setup_scaled = ref 0.
let stretch = ref None

let close_stretch () =
  Option.iter
    (fun (t, k) ->
      let d = float_of_int (now_ns () - t) in
      setup_raw := !setup_raw +. d;
      setup_scaled := !setup_scaled +. scale_by k d)
    !stretch;
  stretch := None

(* Mark a set-up step: the time until the next mark is scaled by the
   kernel sampled here, as an op is by the sample before it. *)
let setup_step () =
  close_stretch ();
  let k = float_of_int (sample_kernel ()) in
  stretch := Some (now_ns (), k)

(* [f ()] left out of set-up time: the benchmark's own housekeeping
   between repetitions. *)
let untimed f =
  let k = Option.map snd !stretch in
  close_stretch ();
  let r = f () in
  stretch := Option.map (fun k -> (now_ns (), k)) k;
  r

(* Run [f] [setup_reps] times and keep the last result, with the
   [setup_s] metric: the time from process start to the first
   repetition, plus the median repetition, scaled step by step. Over ten
   runs on the reference host a single repetition spread 12-20% of its
   median (IQR, by workload), the median of five 8-17%. Each
   repetition's time goes to stderr. *)
let repeated_setup f =
  let pre = float_of_int (now_ns () - t_start) in
  let scaled = ref [] and raw = ref [] and last = ref None in
  for _ = 1 to setup_reps do
    setup_raw := 0.;
    setup_scaled := 0.;
    setup_step ();
    let r = f () in
    close_stretch ();
    raw := !setup_raw :: !raw;
    scaled := !setup_scaled :: !scaled;
    last := Some r
  done;
  let pre_scaled = norm_time pre in
  Printf.eprintf "set-up: %.1f ms before the first step, repetitions %s ms (scaled)\n%!"
    (pre_scaled /. 1e6)
    (String.concat " " (List.rev_map (fun ns -> Printf.sprintf "%.1f" (ns /. 1e6)) !scaled));
  Gc.compact ();
  ( Option.get !last,
    {
      name = "setup_s";
      unit_ = "s";
      value = (pre_scaled +. median !scaled) /. 1e9;
      raw = (pre +. median !raw) /. 1e9;
    } )

let json_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let metrics_json ~raw ms =
  String.concat ","
    (List.map
       (fun m ->
         Printf.sprintf {|"%s":{"value":%s,"unit":"%s"}|} m.name
           (json_float (if raw then m.raw else m.value))
           m.unit_)
       ms)

(* The last stdout line is the result; the line before it carries the
   host, the raw (unnormalised) values, the kernel median and, in a traced
   run, digests of the op sequence and of its outputs. *)
let print_result ?(digests = ("", "")) ~workload ~correct ~attempted ~failed ms =
  let bad = List.filter (fun m -> not (Float.is_finite m.value)) ms in
  if bad <> [] then
    failwith
      (Printf.sprintf "non-finite metric(s): %s"
         (String.concat ", " (List.map (fun m -> m.name) bad)));
  Printf.printf
    {|{"raw":{"workload":"%s","host":{"ocaml":"%s","nproc":%d,"par_domains_at_16_nodes":%d},"sequence":"%s","outputs":"%s","kernel_median_ns":%s,"kernel_nominal_ns":%d,"kernel_samples":%d,"metrics":{%s}}}|}
    workload Sys.ocaml_version
    (Domain.recommended_domain_count ())
    (Wwt.Par.default_domains ~nodes:16)
    (fst digests) (snd digests)
    (json_float (kernel_median_ns ()))
    kernel_nominal_ns
    (List.length !kernel_samples)
    (metrics_json ~raw:true ms);
  print_newline ();
  Printf.printf {|{"correct":%b,"attempted":%d,"failed":%d,"metrics":{%s}}|}
    correct attempted failed (metrics_json ~raw:false ms);
  print_newline ()

let say fmt = Printf.eprintf (fmt ^^ "\n%!")

(* Per-kind rows on stderr: the batch workloads' tail lives here. *)
let print_kind_rows ~names cpu wall =
  Array.iteri
    (fun k l ->
      if l <> [] then
        say "  %-28s n=%4d  cpu p50 %9.3f ms  p90 %9.3f ms  wall p50 %9.3f ms"
          names.(k) (List.length l) (median l) (quantile l 0.9) (median wall.(k)))
    cpu

(* Scratch space inside the checkout; removed at exit. *)
let work_dir () =
  let d = Filename.concat "perfbench" (Printf.sprintf ".work-%d" (Unix.getpid ())) in
  (try Unix.mkdir "perfbench" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  d

let rec remove_tree path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter
        (fun f -> remove_tree (Filename.concat path f))
        (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let contains ~sub s =
  let ls = String.length sub in
  let rec scan i = i + ls <= String.length s && (String.sub s i ls = sub || scan (i + 1)) in
  scan 0

(* Names of the spans an Obs NDJSON file holds, in the order they ended. *)
let span_names path =
  read_file path
  |> String.split_on_char '\n'
  |> List.filter (contains ~sub:{|"ev":"span"|})
  |> List.filter_map (fun l ->
         Service.Json.to_string_opt
           (Service.Json.member "name" (Service.Json.of_string l)))

let digest_strings l = Digest.to_hex (Digest.string (String.concat "\000" l))
