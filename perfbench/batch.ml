(* The closed-loop, single-thread batch runner shared by annotate-cold
   and simulate-matrix: a seeded op sequence, a timed phase that keeps
   only digests, an optional traced replay of a fixed prefix of the same
   sequence, and verification after all timing has stopped. *)

open Util

(* What one op leaves behind: nothing but its output digest and the
   counts the metrics need. *)
type out = { digest : string; accesses : int; counts : float array }

(* Op [i] of the sequence is of kind [i mod (number of kinds)]. *)
type ('i, 'r) spec = {
  kinds : string array;
  edit_kind : int -> bool;
      (** kinds whose median enters [edit_p50_ms]: the programs
          service-mix edits *)
  label : int -> string;  (** op i's identity, for the sequence digest *)
  prepare : int -> 'i;  (** untimed input materialisation of op i *)
  run : 'i -> 'r;  (** the timed op *)
  finish : 'r -> out;  (** untimed digest of the op's result *)
  traced : int -> out;  (** op i composed under benchmark spans *)
  verify : int -> string -> bool;
      (** independent re-derivation of op i's recorded digest *)
}

let kind_of spec i = i mod Array.length spec.kinds

type sample = {
  index : int;
  wall_ns : int;
  cpu : float;
  kernel_ns : float;  (** the kernel sample taken just before the op *)
  o : out;
}

let failed_out msg = { digest = "error: " ^ msg; accesses = 0; counts = [||] }

(* Ops 0, 1, ... of the sequence until [stop] says so; a kernel sample
   precedes every op. *)
let run_ops spec ~stop =
  let acc = ref [] and i = ref 0 in
  while not (stop !i) do
    let kernel_ns = float_of_int (sample_kernel ()) in
    let input = spec.prepare !i in
    let c0 = cpu_s () in
    let w0 = now_ns () in
    let result =
      match spec.run input with r -> Ok r | exception e -> Error e
    in
    let w1 = now_ns () in
    let c1 = cpu_s () in
    let o =
      match result with
      | Ok r -> spec.finish r
      | Error e -> failed_out (Printexc.to_string e)
    in
    acc := { index = !i; wall_ns = w1 - w0; cpu = c1 -. c0; kernel_ns; o } :: !acc;
    incr i
  done;
  Array.of_list (List.rev !acc)

let timed_phase spec ~seconds =
  let limit = now_ns () + int_of_float (seconds *. 1e9) in
  run_ops spec ~stop:(fun _ -> now_ns () >= limit)

(* The first [n] ops again, each composed from the public calls under
   benchmark spans: (out, kernel sample before the op). *)
let composed_ops spec ~n =
  Array.init n (fun i ->
      let kernel_ns = float_of_int (sample_kernel ()) in
      ((try spec.traced i with e -> failed_out (Printexc.to_string e)), kernel_ns))

let by_kind_of spec samples f =
  by_kind ~kinds:(Array.length spec.kinds)
    (Array.to_list (Array.map (fun s -> (kind_of spec s.index, f s)) samples))

(* One seeded op of every kind that ran is re-derived independently; a
   mismatch is a failed op. *)
let verify spec ~seed (samples : sample array) =
  let st = rng (seed + 7919) in
  let failed = ref 0 and checked = ref 0 in
  Array.iter
    (fun l ->
      if l <> [] then begin
        let s = List.nth l (pick st (List.length l)) in
        incr checked;
        if not (try spec.verify s.index s.o.digest with _ -> false) then begin
          incr failed;
          say "verify: %s op %d mismatch" spec.kinds.(kind_of spec s.index) s.index
        end
      end)
    (by_kind_of spec samples Fun.id);
  (!checked, !failed)

let errors samples =
  Array.fold_left
    (fun n s -> if String.starts_with ~prefix:"error:" s.o.digest then n + 1 else n)
    0 samples

let wall_ms s = ms_of_ns s.wall_ns

(* An op runs on one thread and never blocks, so its CPU time is its
   wall time less the time the host or another process held the CPU:
   the op times below are CPU times, scaled by the kernel sample taken
   just before the op. On the reference host steal reached a quarter of
   a CPU for seconds at a time, and the host's fast and slow states
   alternate within a run; over three simulate-matrix runs the op_p50_ms
   range was 44% of its median raw, 19% scaled by the run's median
   kernel time and 5% scaled op by op. *)
let cpu_ms s = s.cpu *. 1000.
let scaled_ms s = scale_by s.kernel_ns (cpu_ms s)

(* The seven end-to-end metrics of a batch workload, each op time scaled
   by its own kernel sample; the raw values are the same statistics of
   the unscaled CPU times. *)
let end_to_end spec ~setup samples =
  let both name unit_ f =
    { name; unit_; value = f scaled_ms; raw = f cpu_ms }
  in
  let per_kind stat ?keep t = kind_geomean ?keep ~stat (by_kind_of spec samples t) in
  let total t = Array.fold_left (fun a s -> a +. t s) 0. samples in
  let accesses = total (fun s -> float_of_int s.o.accesses) in
  print_kind_rows ~names:spec.kinds (by_kind_of spec samples scaled_ms)
    (by_kind_of spec samples wall_ms);
  [
    setup;
    both "op_p50_ms" "ms" (per_kind median);
    both "op_tail_ms" "ms" (per_kind (fun l -> quantile l 0.9));
    both "edit_p50_ms" "ms" (per_kind median ~keep:spec.edit_kind);
    both "cpu_ms_per_op" "ms" (fun t -> total t /. float_of_int (Array.length samples));
    metric "peak_rss_mb" "MB" (peak_rss_mb "self");
    both "sim_maccess_per_s" "M/s" (fun t -> accesses /. total t /. 1e3);
  ]

(* Spans of the traced replay, grouped per op: (stage name, ns) lists in
   op order, with the op span's own duration. *)
let read_op_spans path =
  let ops = ref [] and cur = ref [] in
  List.iter
    (fun line ->
      if contains ~sub:{|"name":"bench.|} line then begin
        let j = Service.Json.of_string line in
        let field k conv = Option.get (conv (Service.Json.member k j)) in
        let name = field "name" Service.Json.to_string_opt
        and dur = field "dur_ns" Service.Json.to_int_opt in
        match String.sub name 6 (String.length name - 6) with
        | "op" ->
            ops := (List.rev !cur, dur) :: !ops;
            cur := []
        | stage -> cur := (stage, dur) :: !cur
      end)
    (String.split_on_char '\n' (read_file path));
  Array.of_list (List.rev !ops)

(* Per-kind median of a per-op quantity of the first ops of the
   sequence, geometric mean over kinds. *)
let stage_geomean spec per_op =
  kind_geomean ~stat:median
    (by_kind ~kinds:(Array.length spec.kinds)
       (Array.to_list (Array.mapi (fun i v -> (kind_of spec i, v)) per_op)))

(* [traced.coverage] and [traced.overhead] from the replay: wall times
   on both sides, adjacent in time. *)
let trace_quality spec ~(untraced : sample array) spans =
  let coverage =
    median
      (Array.to_list
         (Array.map
            (fun (stages, d) ->
              float_of_int (List.fold_left (fun a (_, s) -> a + s) 0 stages)
              /. float_of_int d)
            spans))
  in
  let untraced_p50 = kind_geomean ~stat:median (by_kind_of spec untraced wall_ms) in
  let traced_p50 = stage_geomean spec (Array.map (fun (_, d) -> ms_of_ns d) spans) in
  [
    metric "traced.coverage" "ratio" coverage;
    metric "traced.overhead" "ratio" (traced_p50 /. untraced_p50);
  ]

let mean a =
  if Array.length a = 0 then 0.
  else Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

(* The traced run, three passes over the same [n] ops: the untraced op;
   the composed op with tracing off, whose counts are exact (the NDJSON
   sink's own allocation depends on the digits it prints); the composed
   op traced, whose spans give the stage times. Every pass's digests must
   equal the untraced op's. Returns the untraced samples, the counted
   outs, the span groups with the traced pass's kernel samples, and the
   number of ops whose outputs differ. *)
let traced_run spec ~n ~dir =
  let untraced = run_ops spec ~stop:(fun i -> i >= n) in
  let counted = composed_ops spec ~n in
  let ndjson = Filename.concat dir "spans.ndjson" in
  Obs.configure (Obs.Ndjson ndjson);
  let traced = composed_ops spec ~n in
  Obs.flush ();
  let spans = read_op_spans ndjson in
  if Array.length spans <> n then
    failwith
      (Printf.sprintf "traced run: %d op spans for %d ops" (Array.length spans) n);
  let differ = ref 0 in
  let digest (o, _) = o.digest in
  Array.iteri
    (fun i s ->
      if digest counted.(i) <> s.o.digest || digest traced.(i) <> s.o.digest then begin
        incr differ;
        say "composed op %d differs from the untraced op" i
      end)
    untraced;
  (untraced, Array.map fst counted, (spans, Array.map snd traced), !differ)

(* Nanoseconds of the stages [keep] selects in every traced op, scaled
   by the kernel sample taken before the op unless [scale] is false. *)
let stage_ns ?(scale = true) (spans, kernels) keep =
  Array.mapi
    (fun i (stages, _) ->
      let ns =
        float_of_int
          (List.fold_left (fun a (s, d) -> if keep s then a + d else a) 0 stages)
      in
      if scale then scale_by kernels.(i) ns else ns)
    spans

(* A per-layer time metric: [f] reduces the per-op stage times, scaled
   for the value and unscaled for the raw figure. *)
let stage_metric traced name unit_ keep f =
  {
    name;
    unit_;
    value = f (stage_ns traced keep);
    raw = f (stage_ns ~scale:false traced keep);
  }
