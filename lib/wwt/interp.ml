open Lang

exception Runtime_error of string
exception Proc_return of Value.t option

let error fmt = Format.kasprintf (fun s -> raise (Runtime_error s)) fmt

type outcome = {
  time : int;
  stats : Memsys.Stats.t;
  trace : Trace.Event.record list;
  output : string list;
  shared : Value.t array;
  layout : Label.t;
  info : Sema.info;
}

(* splitmix64 finaliser, mapped to [0, 1). *)
let noise i =
  let open Int64 in
  let z = add (mul (of_int i) 0x9E3779B97F4A7C15L) 0x1234567DEADBEEFL in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = logxor z (shift_right_logical z 31) in
  let mantissa = to_float (shift_right_logical z 11) in
  mantissa /. 9007199254740992.0 (* 2^53 *)

type gstate = {
  machine : Machine.t;
  info : Sema.info;
  layout : Label.t;
  proto : Memsys.Protocol.t;
  shared : Value.t array;
  trace_buf : Trace.Buf.t;  (* packed miss log *)
  output_buf : string list ref;  (* reversed *)
  consts : (string, Value.t) Hashtbl.t;
  procs : (string, Ast.proc) Hashtbl.t;
}

type nstate = {
  node : int;
  privates : (string, Value.t array) Hashtbl.t;
  mutable pending : int;  (* local cycles not yet surrendered to the DES *)
  mutable base_now : int;  (* cached [Sched.now]; refreshed after every
                              effect that can move this node's clock, so
                              the per-access virtual time needs no effect
                              perform *)
  mutable held_locks : int list;  (* innermost first *)
  mutable held_id : int;  (* interned id of [held_locks] in the trace
                             buffer; maintained only when tracing *)
}

(* Remove the innermost occurrence of [l] only, so a nested re-acquire of
   the same lock stays in the held set until its outer release. *)
let rec remove_lock l = function
  | [] -> []
  | h :: t -> if h = l then t else h :: remove_lock l t

let flush_pending n =
  if n.pending > 0 then begin
    Sched.advance n.pending;
    (* clock moved by exactly [pending]; keep the cache without a
       [Sched.now] perform *)
    n.base_now <- n.base_now + n.pending;
    n.pending <- 0
  end

(* Accumulate local cycles; the fiber yields to the event loop only at
   statement boundaries (see [maybe_yield]), so a directive and the access
   it guards execute without an intervening steal window, as they would on
   real hardware where the block arrives and is used before a remote
   request can take it away. *)
let local_cost _g n c = n.pending <- n.pending + c

(* Yield if a quantum's worth of local work has accumulated. Annotation
   statements never yield: they are a prefix of the access they guard. *)
let maybe_yield g n =
  if n.pending >= g.machine.Machine.quantum then flush_pending n

let virtual_now n = n.base_now + n.pending

let record_miss g n ~pc ~addr packed =
  let kind = Memsys.Protocol.packed_kind packed in
  if kind <> Memsys.Protocol.no_miss && g.machine.Machine.collect_trace then begin
    let bkind =
      if kind = Memsys.Protocol.read_miss then Trace.Buf.kind_read
      else if kind = Memsys.Protocol.write_miss then Trace.Buf.kind_write
      else Trace.Buf.kind_fault
    in
    Trace.Buf.add_miss g.trace_buf ~node:n.node ~pc ~addr ~kind:bkind
      ~held:n.held_id
  end;
  local_cost g n (Memsys.Protocol.packed_latency packed)

let elem_addr arr_entry i =
  let open Label in
  if i < 0 || i >= arr_entry.elems then
    error "index %d out of bounds for shared array %s[%d]" i arr_entry.name
      arr_entry.elems;
  arr_entry.base + (i * arr_entry.elem_size)

let shared_read g n ~pc entry i =
  let addr = elem_addr entry i in
  let p =
    Memsys.Protocol.read_p g.proto ~node:n.node ~addr ~now:(virtual_now n)
  in
  record_miss g n ~pc ~addr p;
  g.shared.(addr / g.machine.Machine.elem_size)

let shared_write g n ~pc entry i v =
  let addr = elem_addr entry i in
  let p =
    Memsys.Protocol.write_p g.proto ~node:n.node ~addr ~now:(virtual_now n)
  in
  record_miss g n ~pc ~addr p;
  g.shared.(addr / g.machine.Machine.elem_size) <- v

(* Halves of a recognized commutative RMW ([A[i] = A[i] + e]); identical
   to shared_read/shared_write except under the Commute backend, where
   the access lands in a privatized per-node copy. *)
let shared_read_rmw g n ~pc entry i =
  let addr = elem_addr entry i in
  let p =
    Memsys.Protocol.read_rmw_p g.proto ~node:n.node ~addr ~now:(virtual_now n)
  in
  record_miss g n ~pc ~addr p;
  g.shared.(addr / g.machine.Machine.elem_size)

let shared_write_rmw g n ~pc entry i v =
  let addr = elem_addr entry i in
  let p =
    Memsys.Protocol.write_rmw_p g.proto ~node:n.node ~addr ~now:(virtual_now n)
  in
  record_miss g n ~pc ~addr p;
  g.shared.(addr / g.machine.Machine.elem_size) <- v

(* Side-effect-free index expressions that evaluate to the same value
   twice in a row; the RMW fast path may assume l-value index = r-value
   index for these. *)
let rec simple_index (e : Ast.expr) =
  match e with
  | Ast.Eint _ | Ast.Efloat _ | Ast.Evar _ -> true
  | Ast.Ebinop (_, a, b) -> simple_index a && simple_index b
  | Ast.Eunop (_, a) -> simple_index a
  | Ast.Eindex _ | Ast.Ecall _ -> false

let private_array n name =
  match Hashtbl.find_opt n.privates name with
  | Some a -> a
  | None -> error "unknown private array %S" name

let lookup_var g n frame name =
  match Hashtbl.find_opt frame name with
  | Some v -> v
  | None -> (
      match name with
      | "pid" -> Value.Vint n.node
      | "nprocs" -> Value.Vint g.machine.Machine.nodes
      | _ -> (
          match Hashtbl.find_opt g.consts name with
          | Some v -> v
          | None -> error "undefined variable %S" name))

let apply_binop op va vb =
  match op with
  | Ast.Add -> Value.add va vb
  | Ast.Sub -> Value.sub va vb
  | Ast.Mul -> Value.mul va vb
  | Ast.Div -> Value.div va vb
  | Ast.Mod -> Value.modulo va vb
  | Ast.Lt -> Value.of_bool (Value.compare_num va vb < 0)
  | Ast.Le -> Value.of_bool (Value.compare_num va vb <= 0)
  | Ast.Gt -> Value.of_bool (Value.compare_num va vb > 0)
  | Ast.Ge -> Value.of_bool (Value.compare_num va vb >= 0)
  | Ast.Eq -> Value.of_bool (Value.equal va vb)
  | Ast.Ne -> Value.of_bool (not (Value.equal va vb))
  | Ast.And | Ast.Or -> assert false (* short-circuited in eval *)

let rec eval g n frame ~pc e =
  local_cost g n g.machine.Machine.costs.Memsys.Network.local_op;
  match e with
  | Ast.Eint i -> Value.Vint i
  | Ast.Efloat f -> Value.Vfloat f
  | Ast.Evar name -> lookup_var g n frame name
  | Ast.Eindex (name, idx) -> (
      let i = Value.to_int (eval g n frame ~pc idx) in
      match Label.find_array g.layout name with
      | Some entry -> shared_read g n ~pc entry i
      | None ->
          let a = private_array n name in
          if i < 0 || i >= Array.length a then
            error "index %d out of bounds for private array %s[%d]" i name
              (Array.length a);
          let stats = Memsys.Protocol.stats g.proto in
          stats.Memsys.Stats.private_reads <-
            stats.Memsys.Stats.private_reads + 1;
          a.(i))
  | Ast.Ebinop (Ast.And, a, b) ->
      if Value.to_bool (eval g n frame ~pc a) then
        Value.of_bool (Value.to_bool (eval g n frame ~pc b))
      else Value.of_bool false
  | Ast.Ebinop (Ast.Or, a, b) ->
      if Value.to_bool (eval g n frame ~pc a) then Value.of_bool true
      else Value.of_bool (Value.to_bool (eval g n frame ~pc b))
  | Ast.Ebinop (op, a, b) ->
      let va = eval g n frame ~pc a in
      let vb = eval g n frame ~pc b in
      (try apply_binop op va vb
       with Division_by_zero -> error "division by zero")
  | Ast.Eunop (Ast.Neg, a) -> Value.neg (eval g n frame ~pc a)
  | Ast.Eunop (Ast.Not, a) ->
      Value.of_bool (not (Value.to_bool (eval g n frame ~pc a)))
  | Ast.Ecall (name, args) -> eval_call g n frame ~pc name args

and eval_call g n frame ~pc name args =
  (* explicit left-to-right evaluation so the compiled engine
     (Wwt.Compile) can reproduce access order exactly *)
  let rec eval_list = function
    | [] -> []
    | e :: rest ->
        let v = eval g n frame ~pc e in
        v :: eval_list rest
  in
  let argv () = eval_list args in
  match (name, args) with
  | "min", [ _; _ ] -> (
      match argv () with
      | [ a; b ] -> if Value.compare_num a b <= 0 then a else b
      | _ -> assert false)
  | "max", [ _; _ ] -> (
      match argv () with
      | [ a; b ] -> if Value.compare_num a b >= 0 then a else b
      | _ -> assert false)
  | "abs", [ _ ] -> (
      match argv () with
      | [ Value.Vint i ] -> Value.Vint (abs i)
      | [ Value.Vfloat f ] -> Value.Vfloat (Float.abs f)
      | _ -> assert false)
  | "sqrt", [ _ ] -> (
      match argv () with
      | [ v ] -> Value.Vfloat (sqrt (Value.to_float v))
      | _ -> assert false)
  | "sin", [ _ ] -> (
      match argv () with
      | [ v ] -> Value.Vfloat (sin (Value.to_float v))
      | _ -> assert false)
  | "cos", [ _ ] -> (
      match argv () with
      | [ v ] -> Value.Vfloat (cos (Value.to_float v))
      | _ -> assert false)
  | "floor", [ _ ] -> (
      match argv () with
      | [ v ] -> Value.Vfloat (Float.floor (Value.to_float v))
      | _ -> assert false)
  | "float", [ _ ] -> (
      match argv () with
      | [ v ] -> Value.Vfloat (Value.to_float v)
      | _ -> assert false)
  | "int", [ _ ] -> (
      match argv () with
      | [ v ] -> Value.Vint (Value.to_int v)
      | _ -> assert false)
  | "noise", [ _ ] -> (
      match argv () with
      | [ v ] -> Value.Vfloat (noise (Value.to_int v))
      | _ -> assert false)
  | _ -> (
      match Hashtbl.find_opt g.procs name with
      | None -> error "call of unknown procedure %S" name
      | Some proc -> (
          let values = argv () in
          match call_proc g n proc values with
          | Some v -> v
          | None -> Value.zero))

and call_proc g n (proc : Ast.proc) values =
  let frame = Hashtbl.create 8 in
  (try List.iter2 (fun p v -> Hashtbl.replace frame p v) proc.params values
   with Invalid_argument _ ->
     error "procedure %S called with %d argument(s), expects %d" proc.pname
       (List.length values) (List.length proc.params));
  try
    exec_block g n frame proc.body;
    None
  with Proc_return v -> v

and exec_block g n frame block = List.iter (exec_stmt g n frame) block

and exec_stmt g n frame (s : Ast.stmt) =
  let pc = s.Ast.sid in
  local_cost g n g.machine.Machine.costs.Memsys.Network.local_op;
  (match s.Ast.node with
  | Ast.Sannot _ | Ast.Sannot_table _ -> ()
  | Ast.Sassign _ | Ast.Sif _ | Ast.Sfor _ | Ast.Swhile _ | Ast.Sbarrier
  | Ast.Scall _ | Ast.Sreturn _ | Ast.Slock _ | Ast.Sunlock _ | Ast.Sprint _
    ->
      maybe_yield g n);
  match s.Ast.node with
  | Ast.Sassign
      ( Ast.Lindex (name, idx),
        Ast.Ebinop (Ast.Add, Ast.Eindex (name2, idx2), rest) )
    when name2 = name && idx2 = idx && simple_index idx
         && Label.find_array g.layout name <> None -> (
      match Label.find_array g.layout name with
      | None -> assert false
      | Some entry ->
          (* Recognized commutative RMW accumulation. Same charges in
             the same order as the generic arm below — [eval] charges
             one local op on entry for the Ebinop and the inner Eindex
             nodes, reproduced here — with the protocol accesses routed
             through the rmw-aware entry points. *)
          local_cost g n g.machine.Machine.costs.Memsys.Network.local_op;
          local_cost g n g.machine.Machine.costs.Memsys.Network.local_op;
          let i1 = Value.to_int (eval g n frame ~pc idx) in
          let va = shared_read_rmw g n ~pc entry i1 in
          let vb = eval g n frame ~pc rest in
          let v =
            try apply_binop Ast.Add va vb
            with Division_by_zero -> error "division by zero"
          in
          let i2 = Value.to_int (eval g n frame ~pc idx) in
          shared_write_rmw g n ~pc entry i2 v)
  | Ast.Sassign (lv, e) -> (
      let v = eval g n frame ~pc e in
      match lv with
      | Ast.Lvar name -> Hashtbl.replace frame name v
      | Ast.Lindex (name, idx) -> (
          let i = Value.to_int (eval g n frame ~pc idx) in
          match Label.find_array g.layout name with
          | Some entry -> shared_write g n ~pc entry i v
          | None ->
              let a = private_array n name in
              if i < 0 || i >= Array.length a then
                error "index %d out of bounds for private array %s[%d]" i name
                  (Array.length a);
              let stats = Memsys.Protocol.stats g.proto in
              stats.Memsys.Stats.private_writes <-
                stats.Memsys.Stats.private_writes + 1;
              a.(i) <- v))
  | Ast.Sif (cond, b1, b2) ->
      if Value.to_bool (eval g n frame ~pc cond) then exec_block g n frame b1
      else exec_block g n frame b2
  | Ast.Sfor { var; from_; to_; step; body } ->
      let lo = eval g n frame ~pc from_ in
      let hi = eval g n frame ~pc to_ in
      let st = eval g n frame ~pc step in
      let stf = Value.to_float st in
      if stf = 0.0 then error "loop step is zero";
      let continues v =
        if stf > 0.0 then Value.compare_num v hi <= 0
        else Value.compare_num v hi >= 0
      in
      let cur = ref lo in
      while continues !cur do
        Hashtbl.replace frame var !cur;
        exec_block g n frame body;
        local_cost g n 1;
        cur := Value.add !cur st
      done
  | Ast.Swhile (cond, body) ->
      while Value.to_bool (eval g n frame ~pc cond) do
        exec_block g n frame body
      done
  | Ast.Sbarrier ->
      flush_pending n;
      Sched.barrier_sync ~pc;
      n.base_now <- Sched.now ()
  | Ast.Scall (name, args) -> ignore (eval_call g n frame ~pc name args)
  | Ast.Sreturn e ->
      let v = Option.map (eval g n frame ~pc) e in
      raise (Proc_return v)
  | Ast.Slock e ->
      let l = Value.to_int (eval g n frame ~pc e) in
      flush_pending n;
      Sched.lock_acquire l;
      n.base_now <- Sched.now ();
      n.held_locks <- l :: n.held_locks;
      if g.machine.Machine.collect_trace then
        n.held_id <- Trace.Buf.intern_held g.trace_buf n.held_locks
  | Ast.Sunlock e ->
      let l = Value.to_int (eval g n frame ~pc e) in
      n.held_locks <- remove_lock l n.held_locks;
      if g.machine.Machine.collect_trace then
        n.held_id <- Trace.Buf.intern_held g.trace_buf n.held_locks;
      flush_pending n;
      Sched.lock_release l;
      n.base_now <- Sched.now ()
  | Ast.Sannot (kind, { arr; lo; hi }) ->
      let lo_i = Value.to_int (eval g n frame ~pc lo) in
      let hi_i = Value.to_int (eval g n frame ~pc hi) in
      exec_annot g n kind arr [ (lo_i, hi_i) ]
  | Ast.Sannot_table { akind; aarr; aranges } ->
      let ranges =
        if n.node < Array.length aranges then aranges.(n.node) else []
      in
      exec_annot g n akind aarr ranges
  | Ast.Sprint args ->
      let rec eval_list = function
        | [] -> []
        | e :: rest ->
            let v = eval g n frame ~pc e in
            v :: eval_list rest
      in
      let values = eval_list args in
      g.output_buf :=
        Printf.sprintf "p%d: %s" n.node
          (String.concat " " (List.map Value.to_string values))
        :: !(g.output_buf)

and exec_annot g n kind arr ranges =
  match g.machine.Machine.annotations with
  | Machine.Ignore_annotations -> ()
  | Machine.Execute_annotations -> (
      let skip_prefetch =
        (not g.machine.Machine.prefetch)
        && (kind = Ast.Prefetch_x || kind = Ast.Prefetch_s)
      in
      if not skip_prefetch then
        match Label.find_array g.layout arr with
        | None -> error "annotation on unknown shared array %S" arr
        | Some entry ->
            let elem_size = entry.Label.elem_size in
            let block_size = g.machine.Machine.block_size in
            let directive =
              match kind with
              | Ast.Check_out_x -> Memsys.Protocol.check_out_x_lat
              | Ast.Check_out_s -> Memsys.Protocol.check_out_s_lat
              | Ast.Check_in -> Memsys.Protocol.check_in_lat
              | Ast.Prefetch_x -> Memsys.Protocol.prefetch_x_lat
              | Ast.Prefetch_s -> Memsys.Protocol.prefetch_s_lat
              | Ast.Post_store -> Memsys.Protocol.post_store_lat
            in
            List.iter
              (fun (lo_i, hi_i) ->
                let lo_i = max 0 lo_i
                and hi_i = min (entry.Label.elems - 1) hi_i in
                if lo_i <= hi_i then begin
                  let lo_addr = entry.Label.base + (lo_i * elem_size) in
                  let hi_addr =
                    entry.Label.base + (hi_i * elem_size) + elem_size - 1
                  in
                  List.iter
                    (fun blk ->
                      let addr = Memsys.Block.base_addr ~block_size blk in
                      let lat =
                        directive g.proto ~node:n.node ~addr
                          ~now:(virtual_now n)
                      in
                      local_cost g n lat)
                    (Memsys.Block.blocks_of_range ~block_size ~lo:lo_addr
                       ~hi:hi_addr)
                end)
              ranges)

let run ?poll ~machine program =
  let info = Sema.check program in
  let layout =
    Label.layout ~block_size:machine.Machine.block_size
      ~elem_size:machine.Machine.elem_size info
  in
  let proto =
    Memsys.Protocol.create_b ~backend:machine.Machine.protocol
      ~nodes:machine.Machine.nodes ~cache_bytes:machine.Machine.cache_bytes
      ~assoc:machine.Machine.assoc ~block_size:machine.Machine.block_size
      ~costs:machine.Machine.costs
  in
  if machine.Machine.debug_protocol then
    Memsys.Protocol.set_debug_checks proto true;
  let total_elems =
    (Label.total_bytes layout + machine.Machine.elem_size - 1)
    / machine.Machine.elem_size
  in
  let g =
    {
      machine;
      info;
      layout;
      proto;
      shared = Array.make (max 1 total_elems) Value.zero;
      trace_buf = Trace.Buf.create ();
      output_buf = ref [];
      consts = Hashtbl.create 16;
      procs = Hashtbl.create 16;
    }
  in
  List.iter (fun (name, v) -> Hashtbl.replace g.consts name v) info.Sema.consts;
  List.iter (fun (p : Ast.proc) -> Hashtbl.replace g.procs p.pname p) program.Ast.procs;
  if machine.Machine.collect_trace then
    List.iter
      (fun (name, lo, hi) -> Trace.Buf.add_label g.trace_buf ~name ~lo ~hi)
      (Label.to_label_records layout);
  let stats = Memsys.Protocol.stats proto in
  let on_barrier ~vt ~arrivals =
    stats.Memsys.Stats.barriers <- stats.Memsys.Stats.barriers + 1;
    Memsys.Protocol.epoch_boundary proto;
    if machine.Machine.flush_at_barrier then
      for node = 0 to machine.Machine.nodes - 1 do
        Memsys.Protocol.flush_node proto ~node
      done;
    Memsys.Protocol.sample_occupancy proto;
    if machine.Machine.collect_trace then
      List.iter
        (fun (node, pc) -> Trace.Buf.add_barrier g.trace_buf ~node ~pc ~vt)
        arrivals
  in
  let on_lock_acquire ~node:_ ~lock:_ =
    stats.Memsys.Stats.lock_acquires <- stats.Memsys.Stats.lock_acquires + 1
  in
  let main =
    match Ast.find_proc program "main" with
    | Some p -> p
    | None -> error "program has no main procedure"
  in
  let body node =
    let n =
      {
        node;
        privates = Hashtbl.create 8;
        pending = 0;
        base_now = 0;
        held_locks = [];
        held_id = Trace.Buf.empty_held;
      }
    in
    List.iter
      (fun (name, elems) ->
        Hashtbl.replace n.privates name (Array.make elems Value.zero))
      info.Sema.privates;
    ignore (call_proc g n main []);
    flush_pending n
  in
  let engine_t0 = Obs.start () in
  let time =
    Sched.run ?poll
      {
        Sched.nodes = machine.Machine.nodes;
        barrier_cost = machine.Machine.costs.Memsys.Network.barrier;
        lock_transfer = machine.Machine.costs.Memsys.Network.lock_transfer;
        on_barrier;
        on_lock_acquire;
      }
      body
  in
  Obs.finish "engine.interp" engine_t0;
  {
    time;
    stats;
    trace = Trace.Buf.to_records g.trace_buf;
    output = List.rev !(g.output_buf);
    shared = g.shared;
    layout;
    info;
  }

let shared_value (o : outcome) arr i =
  let base = Label.base o.layout arr in
  let entry =
    match Label.find_array o.layout arr with
    | Some e -> e
    | None -> raise Not_found
  in
  if i < 0 || i >= entry.Label.elems then
    invalid_arg "Interp.shared_value: index out of bounds";
  o.shared.((base / entry.Label.elem_size) + i)
