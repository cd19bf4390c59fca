open Lang

let error fmt = Format.kasprintf (fun s -> raise (Interp.Runtime_error s)) fmt

exception Returning of Value.t option

(* ---- runtime state (mirrors Interp's) ---- *)

type rt_global = {
  machine : Machine.t;
  layout : Label.t;
  proto : Memsys.Protocol.t;
  shared : Value.t array;
  elem_shift : int;  (* log2 elem_size, or -1 if not a power of two *)
  trace_buf : Trace.Buf.t;
  output_buf : string list ref;
}

type rt = {
  node : int;
  privates : Value.t array array;  (* indexed by compile-time private id *)
  lop : int;  (* cost of a local op, lifted out of the machine record *)
  quantum : int;
  mutable pending : int;
  mutable base_now : int;  (* cached [Sched.now]; see Interp.nstate *)
  mutable held_locks : int list;
  mutable held_id : int;
}

let elem_shift_of elem_size =
  if elem_size > 0 && elem_size land (elem_size - 1) = 0 then begin
    let rec log2 n acc = if n <= 1 then acc else log2 (n lsr 1) (acc + 1) in
    log2 elem_size 0
  end
  else -1

let elem_index g addr =
  if g.elem_shift >= 0 then addr lsr g.elem_shift
  else addr / g.machine.Machine.elem_size

(* Statically int-typed variables live unboxed in [ints]; everything else
   is a boxed [Value.t] in [vals]. Which slots are int is decided per
   procedure by [analyze_int_slots]; an int slot is only ever written
   from expressions whose value is guaranteed [Value.Vint], so the two
   representations never disagree. *)
type frame = { vals : Value.t array; ints : int array }

let make_frame nslots =
  { vals = Array.make (max 1 nslots) Value.zero;
    ints = Array.make (max 1 nslots) 0 }

type cexpr = rt_global -> rt -> frame -> Value.t
type cint = rt_global -> rt -> frame -> int
type cbool = rt_global -> rt -> frame -> bool
type cstmt = rt_global -> rt -> frame -> unit

type cproc = { arity : int; nslots : int; mutable cbody : cstmt }

(* ---- cost plumbing (identical to Interp) ---- *)

let flush_pending r =
  if r.pending > 0 then begin
    Sched.advance r.pending;
    r.base_now <- r.base_now + r.pending;
    r.pending <- 0
  end

let charge _g r = r.pending <- r.pending + r.lop

let maybe_yield _g r = if r.pending >= r.quantum then flush_pending r

let virtual_now r = r.base_now + r.pending

let record_miss g r ~pc ~addr packed =
  let kind = Memsys.Protocol.packed_kind packed in
  if kind <> Memsys.Protocol.no_miss && g.machine.Machine.collect_trace then begin
    let bkind =
      if kind = Memsys.Protocol.read_miss then Trace.Buf.kind_read
      else if kind = Memsys.Protocol.write_miss then Trace.Buf.kind_write
      else Trace.Buf.kind_fault
    in
    Trace.Buf.add_miss g.trace_buf ~node:r.node ~pc ~addr ~kind:bkind
      ~held:r.held_id
  end;
  r.pending <- r.pending + Memsys.Protocol.packed_latency packed

(* ---- compile-time environment ---- *)

type array_ref =
  | Ashared of Label.entry
  | Aprivate of int * int  (* private id, element count *)

type cenv = {
  info : Sema.info;
  genv_layout : Label.t;
  consts : (string * Value.t) list;
  procs : (string, cproc) Hashtbl.t;
  private_ids : (string * int) list;
  (* per-proc, during compilation: *)
  slots : (string, int) Hashtbl.t;
  islots : (string, bool) Hashtbl.t;  (* slot is statically int-typed *)
  mutable next_slot : int;
}

let array_ref env name =
  match Label.find_array env.genv_layout name with
  | Some e -> Some (Ashared e)
  | None -> (
      match List.assoc_opt name env.private_ids with
      | Some id -> Some (Aprivate (id, List.assoc name env.info.Sema.privates))
      | None -> None)

let slot_of env name =
  match Hashtbl.find_opt env.slots name with
  | Some i -> i
  | None ->
      let i = env.next_slot in
      env.next_slot <- i + 1;
      Hashtbl.add env.slots name i;
      i

(* names assigned anywhere in the procedure become frame slots *)
let collect_slots env (proc : Ast.proc) =
  Hashtbl.reset env.slots;
  env.next_slot <- 0;
  List.iter (fun p -> ignore (slot_of env p)) proc.Ast.params;
  let probe = { Ast.decls = []; procs = [ proc ] } in
  Ast.iter_stmts
    (fun s ->
      match s.Ast.node with
      | Ast.Sassign (Ast.Lvar name, _) -> ignore (slot_of env name)
      | Ast.Sfor { var; _ } -> ignore (slot_of env var)
      | _ -> ())
    probe

(* ---- static int typing ---- *)

(* [true] only if the expression's runtime value is guaranteed to be
   [Value.Vint] under the current slot typing. Comparisons and boolean
   operators always produce ints; arithmetic does iff both operands do
   (matching [Value.arith]'s promotion rule). *)
let rec expr_is_int env (e : Ast.expr) =
  match e with
  | Ast.Eint _ -> true
  | Ast.Efloat _ -> false
  | Ast.Evar name -> (
      match array_ref env name with
      | Some _ -> false
      | None ->
          if Hashtbl.mem env.slots name then
            Option.value ~default:false (Hashtbl.find_opt env.islots name)
          else if name = "pid" || name = "nprocs" then true
          else (
            match List.assoc_opt name env.consts with
            | Some (Value.Vint _) -> true
            | Some (Value.Vfloat _) | None -> false))
  | Ast.Eindex _ -> false  (* array elements are not statically typed *)
  | Ast.Ebinop ((Ast.And | Ast.Or), _, _) -> true
  | Ast.Ebinop ((Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne), _, _)
    -> true
  | Ast.Ebinop ((Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod), a, b) ->
      expr_is_int env a && expr_is_int env b
  | Ast.Eunop (Ast.Neg, a) -> expr_is_int env a
  | Ast.Eunop (Ast.Not, _) -> true
  | Ast.Ecall ("int", [ _ ]) -> true
  | Ast.Ecall ("abs", [ a ]) -> expr_is_int env a
  | Ast.Ecall (("min" | "max"), [ a; b ]) ->
      expr_is_int env a && expr_is_int env b
  | Ast.Ecall _ -> false

(* A slot is int-typed iff every write to it (assignment or loop header)
   is an int-typed expression. Demotions can cascade, so iterate to a
   fixed point; params arrive as boxed values and stay non-int. *)
let analyze_int_slots env (proc : Ast.proc) =
  Hashtbl.reset env.islots;
  Hashtbl.iter (fun name _ -> Hashtbl.replace env.islots name true) env.slots;
  List.iter (fun p -> Hashtbl.replace env.islots p false) proc.Ast.params;
  let probe = { Ast.decls = []; procs = [ proc ] } in
  let changed = ref true in
  while !changed do
    changed := false;
    Ast.iter_stmts
      (fun s ->
        let demote name is_int =
          if (not is_int)
             && Option.value ~default:false (Hashtbl.find_opt env.islots name)
          then begin
            Hashtbl.replace env.islots name false;
            changed := true
          end
        in
        match s.Ast.node with
        | Ast.Sassign (Ast.Lvar name, e) -> demote name (expr_is_int env e)
        | Ast.Sfor { var; from_; to_; step; _ } ->
            demote var
              (expr_is_int env from_ && expr_is_int env to_
              && expr_is_int env step)
        | _ -> ())
      probe
  done

let int_slot env name =
  Option.value ~default:false (Hashtbl.find_opt env.islots name)

(* ---- shared-memory accesses ---- *)

let shared_read g r ~pc (entry : Label.entry) i =
  if i < 0 || i >= entry.Label.elems then
    error "index %d out of bounds for shared array %s[%d]" i entry.Label.name
      entry.Label.elems;
  let addr = entry.Label.base + (i * entry.Label.elem_size) in
  let p =
    Memsys.Protocol.read_p g.proto ~node:r.node ~addr ~now:(virtual_now r)
  in
  record_miss g r ~pc ~addr p;
  g.shared.(elem_index g addr)

(* The two halves of a recognized commutative RMW ([A[i] = A[i] + e]).
   The rmw entry points are bit-identical to read_p/write_p except under
   the Commute backend, where the access lands in a privatized per-node
   copy. *)
let shared_read_rmw g r ~pc (entry : Label.entry) i =
  if i < 0 || i >= entry.Label.elems then
    error "index %d out of bounds for shared array %s[%d]" i entry.Label.name
      entry.Label.elems;
  let addr = entry.Label.base + (i * entry.Label.elem_size) in
  let p =
    Memsys.Protocol.read_rmw_p g.proto ~node:r.node ~addr ~now:(virtual_now r)
  in
  record_miss g r ~pc ~addr p;
  g.shared.(elem_index g addr)

let shared_write_rmw g r ~pc (entry : Label.entry) i v =
  if i < 0 || i >= entry.Label.elems then
    error "index %d out of bounds for shared array %s[%d]" i entry.Label.name
      entry.Label.elems;
  let addr = entry.Label.base + (i * entry.Label.elem_size) in
  let p =
    Memsys.Protocol.write_rmw_p g.proto ~node:r.node ~addr ~now:(virtual_now r)
  in
  record_miss g r ~pc ~addr p;
  g.shared.(elem_index g addr) <- v

let shared_write g r ~pc (entry : Label.entry) i v =
  if i < 0 || i >= entry.Label.elems then
    error "index %d out of bounds for shared array %s[%d]" i entry.Label.name
      entry.Label.elems;
  let addr = entry.Label.base + (i * entry.Label.elem_size) in
  let p =
    Memsys.Protocol.write_p g.proto ~node:r.node ~addr ~now:(virtual_now r)
  in
  record_miss g r ~pc ~addr p;
  g.shared.(elem_index g addr) <- v

(* ---- expression compilation ---- *)

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
  | Ast.And | Ast.Or -> assert false

(* Int-typed expressions compile to unboxed [cint] closures; everything
   else boxes as before. Charging is per AST node in evaluation order in
   both variants, so simulated cycle counts cannot differ. *)
let rec compile_expr env ~pc (e : Ast.expr) : cexpr =
  match e with
  | Ast.Eint _ | Ast.Efloat _ | Ast.Evar _ -> compile_expr_node env ~pc e
  | _ when expr_is_int env e ->
      (* box once at the root instead of at every leaf and interior node *)
      let ci = compile_int env ~pc e in
      fun g r frame -> Value.Vint (ci g r frame)
  | _ -> compile_expr_node env ~pc e

and compile_expr_node env ~pc (e : Ast.expr) : cexpr =
  match e with
  | Ast.Eint i ->
      let v = Value.Vint i in
      fun g r _ -> charge g r; v
  | Ast.Efloat f ->
      let v = Value.Vfloat f in
      fun g r _ -> charge g r; v
  | Ast.Evar name -> (
      match array_ref env name with
      | Some _ ->
          (* sema rejects this; defensive *)
          fun _ _ _ -> error "array %S used without a subscript" name
      | None ->
          if Hashtbl.mem env.slots name then begin
            let i = Hashtbl.find env.slots name in
            if int_slot env name then
              fun g r frame -> charge g r; Value.Vint frame.ints.(i)
            else fun g r frame -> charge g r; frame.vals.(i)
          end
          else if name = "pid" then fun g r _ -> charge g r; Value.Vint r.node
          else if name = "nprocs" then
            fun g r _ ->
              charge g r;
              Value.Vint g.machine.Machine.nodes
          else (
            match List.assoc_opt name env.consts with
            | Some v -> fun g r _ -> charge g r; v
            | None -> fun _ _ _ -> error "undefined variable %S" name))
  | Ast.Eindex (name, idx) -> (
      let cidx = compile_index env ~pc idx in
      match array_ref env name with
      | Some (Ashared entry) ->
          fun g r frame ->
            charge g r;
            let i = cidx g r frame in
            shared_read g r ~pc entry i
      | Some (Aprivate (id, size)) ->
          fun g r frame ->
            charge g r;
            let i = cidx g r frame in
            if i < 0 || i >= size then
              error "index %d out of bounds for private array %s[%d]" i name size;
            let stats = Memsys.Protocol.stats g.proto in
            stats.Memsys.Stats.private_reads <-
              stats.Memsys.Stats.private_reads + 1;
            r.privates.(id).(i)
      | None -> fun _ _ _ -> error "subscript of non-array %S" name)
  | Ast.Ebinop (Ast.And, a, b) ->
      let ca = compile_expr env ~pc a and cb = compile_expr env ~pc b in
      fun g r frame ->
        charge g r;
        if Value.to_bool (ca g r frame) then
          Value.of_bool (Value.to_bool (cb g r frame))
        else Value.of_bool false
  | Ast.Ebinop (Ast.Or, a, b) ->
      let ca = compile_expr env ~pc a and cb = compile_expr env ~pc b in
      fun g r frame ->
        charge g r;
        if Value.to_bool (ca g r frame) then Value.of_bool true
        else Value.of_bool (Value.to_bool (cb g r frame))
  | Ast.Ebinop (op, a, b) ->
      let ca = compile_expr env ~pc a and cb = compile_expr env ~pc b in
      fun g r frame ->
        charge g r;
        let va = ca g r frame in
        let vb = cb g r frame in
        (try apply_binop op va vb
         with Division_by_zero -> error "division by zero")
  | Ast.Eunop (Ast.Neg, a) ->
      let ca = compile_expr env ~pc a in
      fun g r frame -> charge g r; Value.neg (ca g r frame)
  | Ast.Eunop (Ast.Not, a) ->
      let ca = compile_expr env ~pc a in
      fun g r frame ->
        charge g r;
        Value.of_bool (not (Value.to_bool (ca g r frame)))
  | Ast.Ecall (name, args) ->
      let call = compile_call env ~pc name args in
      fun g r frame ->
        charge g r;
        call g r frame

(* unboxed compilation; precondition: [expr_is_int env e] *)
and compile_int env ~pc (e : Ast.expr) : cint =
  match e with
  | Ast.Eint i -> fun g r _ -> charge g r; i
  | Ast.Evar name ->
      if Hashtbl.mem env.slots name then begin
        let i = Hashtbl.find env.slots name in
        fun g r frame -> charge g r; frame.ints.(i)
      end
      else if name = "pid" then fun g r _ -> charge g r; r.node
      else if name = "nprocs" then
        fun g r _ ->
          charge g r;
          g.machine.Machine.nodes
      else (
        match List.assoc_opt name env.consts with
        | Some (Value.Vint i) -> fun g r _ -> charge g r; i
        | Some (Value.Vfloat _) | None -> assert false)
  | Ast.Ebinop (Ast.And, a, b) ->
      let ba = compile_bool env ~pc a and bb = compile_bool env ~pc b in
      fun g r frame ->
        charge g r;
        if ba g r frame then if bb g r frame then 1 else 0 else 0
  | Ast.Ebinop (Ast.Or, a, b) ->
      let ba = compile_bool env ~pc a and bb = compile_bool env ~pc b in
      fun g r frame ->
        charge g r;
        if ba g r frame then 1 else if bb g r frame then 1 else 0
  | Ast.Ebinop
      ((Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne) as op, a, b) ->
      if expr_is_int env a && expr_is_int env b then begin
        let ca = compile_int env ~pc a and cb = compile_int env ~pc b in
        let cmp : int -> int -> bool =
          match op with
          | Ast.Lt -> ( < )
          | Ast.Le -> ( <= )
          | Ast.Gt -> ( > )
          | Ast.Ge -> ( >= )
          | Ast.Eq -> ( = )
          | Ast.Ne -> ( <> )
          | _ -> assert false
        in
        fun g r frame ->
          charge g r;
          let x = ca g r frame in
          let y = cb g r frame in
          if cmp x y then 1 else 0
      end
      else begin
        let ca = compile_expr env ~pc a and cb = compile_expr env ~pc b in
        let test : Value.t -> Value.t -> bool =
          match op with
          | Ast.Lt -> fun va vb -> Value.compare_num va vb < 0
          | Ast.Le -> fun va vb -> Value.compare_num va vb <= 0
          | Ast.Gt -> fun va vb -> Value.compare_num va vb > 0
          | Ast.Ge -> fun va vb -> Value.compare_num va vb >= 0
          | Ast.Eq -> Value.equal
          | Ast.Ne -> fun va vb -> not (Value.equal va vb)
          | _ -> assert false
        in
        fun g r frame ->
          charge g r;
          let va = ca g r frame in
          let vb = cb g r frame in
          if test va vb then 1 else 0
      end
  | Ast.Ebinop ((Ast.Add | Ast.Sub | Ast.Mul) as op, a, b) ->
      let ca = compile_int env ~pc a and cb = compile_int env ~pc b in
      let f : int -> int -> int =
        match op with
        | Ast.Add -> ( + )
        | Ast.Sub -> ( - )
        | Ast.Mul -> ( * )
        | _ -> assert false
      in
      fun g r frame ->
        charge g r;
        let x = ca g r frame in
        let y = cb g r frame in
        f x y
  | Ast.Ebinop ((Ast.Div | Ast.Mod) as op, a, b) ->
      let ca = compile_int env ~pc a and cb = compile_int env ~pc b in
      let is_div = op = Ast.Div in
      fun g r frame ->
        charge g r;
        let x = ca g r frame in
        let y = cb g r frame in
        if y = 0 then error "division by zero"
        else if is_div then x / y
        else x mod y
  | Ast.Eunop (Ast.Neg, a) ->
      let ca = compile_int env ~pc a in
      fun g r frame ->
        charge g r;
        -ca g r frame
  | Ast.Eunop (Ast.Not, a) ->
      let ba = compile_bool env ~pc a in
      fun g r frame ->
        charge g r;
        if ba g r frame then 0 else 1
  | Ast.Ecall ("int", [ a ]) ->
      let ca = compile_expr env ~pc a in
      fun g r frame ->
        charge g r;
        Value.to_int (ca g r frame)
  | Ast.Ecall ("abs", [ a ]) ->
      let ca = compile_int env ~pc a in
      fun g r frame ->
        charge g r;
        abs (ca g r frame)
  | Ast.Ecall (("min" | "max") as name, [ a; b ]) ->
      let ca = compile_int env ~pc a and cb = compile_int env ~pc b in
      let is_min = name = "min" in
      fun g r frame ->
        charge g r;
        let x = ca g r frame in
        let y = cb g r frame in
        if is_min then if x <= y then x else y else if x >= y then x else y
  | Ast.Efloat _ | Ast.Eindex _ | Ast.Ecall _ -> assert false

and compile_bool env ~pc (e : Ast.expr) : cbool =
  if expr_is_int env e then begin
    let ci = compile_int env ~pc e in
    fun g r frame -> ci g r frame <> 0
  end
  else begin
    let ce = compile_expr env ~pc e in
    fun g r frame -> Value.to_bool (ce g r frame)
  end

(* array subscripts: unboxed when int-typed, [Value.to_int] otherwise *)
and compile_index env ~pc (e : Ast.expr) : cint =
  if expr_is_int env e then compile_int env ~pc e
  else begin
    let ce = compile_expr env ~pc e in
    fun g r frame -> Value.to_int (ce g r frame)
  end

(* calls in statement position are not charged as an expression node *)
and compile_call env ~pc name args : cexpr =
  let cargs = List.map (compile_expr env ~pc) args in
  let eval2 g r frame =
    match cargs with
    | [ c1; c2 ] ->
        let v1 = c1 g r frame in
        let v2 = c2 g r frame in
        (v1, v2)
    | _ -> assert false
  in
  let eval1 g r frame =
    match cargs with [ c ] -> c g r frame | _ -> assert false
  in
  match (name, List.length args) with
  | "min", 2 ->
      fun g r frame ->
        let a, b = eval2 g r frame in
        if Value.compare_num a b <= 0 then a else b
  | "max", 2 ->
      fun g r frame ->
        let a, b = eval2 g r frame in
        if Value.compare_num a b >= 0 then a else b
  | "abs", 1 -> (
      fun g r frame ->
        match eval1 g r frame with
        | Value.Vint i -> Value.Vint (abs i)
        | Value.Vfloat f -> Value.Vfloat (Float.abs f))
  | "sqrt", 1 ->
      fun g r frame -> Value.Vfloat (sqrt (Value.to_float (eval1 g r frame)))
  | "sin", 1 ->
      fun g r frame -> Value.Vfloat (sin (Value.to_float (eval1 g r frame)))
  | "cos", 1 ->
      fun g r frame -> Value.Vfloat (cos (Value.to_float (eval1 g r frame)))
  | "floor", 1 ->
      fun g r frame ->
        Value.Vfloat (Float.floor (Value.to_float (eval1 g r frame)))
  | "float", 1 ->
      fun g r frame -> Value.Vfloat (Value.to_float (eval1 g r frame))
  | "int", 1 ->
      fun g r frame -> Value.Vint (Value.to_int (eval1 g r frame))
  | "noise", 1 ->
      fun g r frame -> Value.Vfloat (Interp.noise (Value.to_int (eval1 g r frame)))
  | _ ->
      let procs = env.procs in
      fun g r frame ->
        let rec eval_list = function
          | [] -> []
          | c :: rest ->
              let v = c g r frame in
              v :: eval_list rest
        in
        let values = eval_list cargs in
        let cp =
          match Hashtbl.find_opt procs name with
          | Some cp -> cp
          | None -> error "call of unknown procedure %S" name
        in
        if List.length values <> cp.arity then
          error "procedure %S called with %d argument(s), expects %d" name
            (List.length values) cp.arity;
        let callee = make_frame cp.nslots in
        List.iteri (fun i v -> callee.vals.(i) <- v) values;
        (try
           cp.cbody g r callee;
           Value.zero
         with Returning v -> Option.value ~default:Value.zero v)

(* ---- statement compilation ---- *)

let compile_annot env (kind : Ast.annot_kind) arr =
  let directive =
    match kind with
    | Ast.Check_out_x -> Memsys.Protocol.check_out_x_lat
    | Ast.Check_out_s -> Memsys.Protocol.check_out_s_lat
    | Ast.Check_in -> Memsys.Protocol.check_in_lat
    | Ast.Prefetch_x -> Memsys.Protocol.prefetch_x_lat
    | Ast.Prefetch_s -> Memsys.Protocol.prefetch_s_lat
    | Ast.Post_store -> Memsys.Protocol.post_store_lat
  in
  let is_prefetch = kind = Ast.Prefetch_x || kind = Ast.Prefetch_s in
  match array_ref env arr with
  | Some (Ashared entry) ->
      Some
        (fun g r (ranges : (int * int) list) ->
          match g.machine.Machine.annotations with
          | Machine.Ignore_annotations -> ()
          | Machine.Execute_annotations ->
              if not (is_prefetch && not g.machine.Machine.prefetch) then
                let elem_size = entry.Label.elem_size in
                let block_size = g.machine.Machine.block_size in
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
                            directive g.proto ~node:r.node ~addr
                              ~now:(virtual_now r)
                          in
                          r.pending <- r.pending + lat)
                        (Memsys.Block.blocks_of_range ~block_size ~lo:lo_addr
                           ~hi:hi_addr)
                    end)
                  ranges)
  | Some (Aprivate _) | None -> None

(* Index expressions that are side-effect-free and evaluate to the same
   value twice in a row (no array loads, no calls): for these the RMW
   fast path below may assume l-value index = r-value index. *)
let rec simple_index (e : Ast.expr) =
  match e with
  | Ast.Eint _ | Ast.Efloat _ | Ast.Evar _ -> true
  | Ast.Ebinop (_, a, b) -> simple_index a && simple_index b
  | Ast.Eunop (_, a) -> simple_index a
  | Ast.Eindex _ | Ast.Ecall _ -> false

let rec compile_stmt env (s : Ast.stmt) : cstmt =
  let pc = s.Ast.sid in
  let is_annot = Ast.is_annotation s in
  let body : cstmt =
    match s.Ast.node with
    | Ast.Sassign (Ast.Lvar name, e) ->
        let i = slot_of env name in
        if int_slot env name then begin
          let ci = compile_int env ~pc e in
          fun g r frame -> frame.ints.(i) <- ci g r frame
        end
        else begin
          let ce = compile_expr env ~pc e in
          fun g r frame -> frame.vals.(i) <- ce g r frame
        end
    | Ast.Sassign (Ast.Lindex (name, idx), e) -> (
        let ce = compile_expr env ~pc e in
        let cidx = compile_index env ~pc idx in
        match array_ref env name with
        | Some (Ashared entry) -> (
            match e with
            | Ast.Ebinop (Ast.Add, Ast.Eindex (name2, idx2), rest)
              when name2 = name && idx2 = idx && simple_index idx ->
                (* Read-modify-write accumulation (A[i] = A[i] + e): the
                   same charges, in the same order, as the generic
                   [ce]/[shared_write] path. Only the protocol entry
                   points differ (rmw-aware, so the Commute backend can
                   privatize the accumulation). *)
                let cidx_in = compile_index env ~pc idx in
                let crest = compile_expr env ~pc rest in
                fun g r frame ->
                  charge g r;  (* the Ebinop node *)
                  charge g r;  (* the inner Eindex node *)
                  let i1 = cidx_in g r frame in
                  let va = shared_read_rmw g r ~pc entry i1 in
                  let vb = crest g r frame in
                  let v =
                    try apply_binop Ast.Add va vb
                    with Division_by_zero -> error "division by zero"
                  in
                  let i2 = cidx g r frame in
                  shared_write_rmw g r ~pc entry i2 v
            | _ ->
                fun g r frame ->
                  let v = ce g r frame in
                  let i = cidx g r frame in
                  shared_write g r ~pc entry i v)
        | Some (Aprivate (id, size)) ->
            fun g r frame ->
              let v = ce g r frame in
              let i = cidx g r frame in
              if i < 0 || i >= size then
                error "index %d out of bounds for private array %s[%d]" i name
                  size;
              let stats = Memsys.Protocol.stats g.proto in
              stats.Memsys.Stats.private_writes <-
                stats.Memsys.Stats.private_writes + 1;
              r.privates.(id).(i) <- v
        | None -> fun _ _ _ -> error "assignment to non-array %S" name)
    | Ast.Sif (cond, b1, b2) ->
        let cc = compile_bool env ~pc cond in
        let cb1 = compile_block env b1 and cb2 = compile_block env b2 in
        fun g r frame ->
          if cc g r frame then cb1 g r frame else cb2 g r frame
    | Ast.Sfor { var; from_; to_; step; body } ->
        let slot = slot_of env var in
        let cbody = compile_block env body in
        if
          int_slot env var && expr_is_int env from_ && expr_is_int env to_
          && expr_is_int env step
        then begin
          (* the allocation-free common case: unboxed counter and bounds *)
          let cfrom = compile_int env ~pc from_ in
          let cto = compile_int env ~pc to_ in
          let cstep = compile_int env ~pc step in
          fun g r frame ->
            let lo = cfrom g r frame in
            let hi = cto g r frame in
            let st = cstep g r frame in
            if st = 0 then error "loop step is zero";
            let cur = ref lo in
            while if st > 0 then !cur <= hi else !cur >= hi do
              frame.ints.(slot) <- !cur;
              cbody g r frame;
              r.pending <- r.pending + 1;
              cur := !cur + st
            done
        end
        else begin
          let cfrom = compile_expr env ~pc from_ in
          let cto = compile_expr env ~pc to_ in
          let cstep = compile_expr env ~pc step in
          fun g r frame ->
            let lo = cfrom g r frame in
            let hi = cto g r frame in
            let st = cstep g r frame in
            let stf = Value.to_float st in
            if stf = 0.0 then error "loop step is zero";
            let continues v =
              if stf > 0.0 then Value.compare_num v hi <= 0
              else Value.compare_num v hi >= 0
            in
            let cur = ref lo in
            while continues !cur do
              frame.vals.(slot) <- !cur;
              cbody g r frame;
              r.pending <- r.pending + 1;
              cur := Value.add !cur st
            done
        end
    | Ast.Swhile (cond, body) ->
        let cc = compile_bool env ~pc cond in
        let cbody = compile_block env body in
        fun g r frame ->
          while cc g r frame do
            cbody g r frame
          done
    | Ast.Sbarrier ->
        fun _ r _ ->
          flush_pending r;
          Sched.barrier_sync ~pc;
          r.base_now <- Sched.now ()
    | Ast.Scall (name, args) ->
        let call = compile_call env ~pc name args in
        fun g r frame -> ignore (call g r frame)
    | Ast.Sreturn None -> fun _ _ _ -> raise (Returning None)
    | Ast.Sreturn (Some e) ->
        let ce = compile_expr env ~pc e in
        fun g r frame -> raise (Returning (Some (ce g r frame)))
    | Ast.Slock e ->
        let ce = compile_index env ~pc e in
        fun g r frame ->
          let l = ce g r frame in
          flush_pending r;
          Sched.lock_acquire l;
          r.base_now <- Sched.now ();
          r.held_locks <- l :: r.held_locks;
          if g.machine.Machine.collect_trace then
            r.held_id <- Trace.Buf.intern_held g.trace_buf r.held_locks
    | Ast.Sunlock e ->
        let ce = compile_index env ~pc e in
        fun g r frame ->
          let l = ce g r frame in
          r.held_locks <- Interp.remove_lock l r.held_locks;
          if g.machine.Machine.collect_trace then
            r.held_id <- Trace.Buf.intern_held g.trace_buf r.held_locks;
          flush_pending r;
          Sched.lock_release l;
          r.base_now <- Sched.now ()
    | Ast.Sannot (kind, { arr; lo; hi }) -> (
        let clo = compile_index env ~pc lo in
        let chi = compile_index env ~pc hi in
        match compile_annot env kind arr with
        | Some exec ->
            fun g r frame ->
              let lo_i = clo g r frame in
              let hi_i = chi g r frame in
              exec g r [ (lo_i, hi_i) ]
        | None -> fun _ _ _ -> error "annotation on unknown shared array %S" arr)
    | Ast.Sannot_table { akind; aarr; aranges } -> (
        match compile_annot env akind aarr with
        | Some exec ->
            fun g r _ ->
              let ranges =
                if r.node < Array.length aranges then aranges.(r.node) else []
              in
              exec g r ranges
        | None -> fun _ _ _ -> error "annotation on unknown shared array %S" aarr)
    | Ast.Sprint args ->
        let cargs = List.map (compile_expr env ~pc) args in
        fun g r frame ->
          let rec eval_list = function
            | [] -> []
            | c :: rest ->
                let v = c g r frame in
                v :: eval_list rest
          in
          let values = eval_list cargs in
          let line =
            Printf.sprintf "p%d: %s" r.node
              (String.concat " " (List.map Value.to_string values))
          in
          g.output_buf := line :: !(g.output_buf)
  in
  if is_annot then fun g r frame ->
    charge g r;
    body g r frame
  else fun g r frame ->
    charge g r;
    maybe_yield g r;
    body g r frame

and compile_block env block =
  let stmts = List.map (compile_stmt env) block in
  fun g r frame -> List.iter (fun st -> st g r frame) stmts

(* ---- program compilation and execution ---- *)

let compile ~machine program =
  let info = Sema.check program in
  let layout =
    Label.layout ~block_size:machine.Machine.block_size
      ~elem_size:machine.Machine.elem_size info
  in
  let env =
    {
      info;
      genv_layout = layout;
      consts = info.Sema.consts;
      procs = Hashtbl.create 16;
      private_ids = List.mapi (fun i (name, _) -> (name, i)) info.Sema.privates;
      slots = Hashtbl.create 16;
      islots = Hashtbl.create 16;
      next_slot = 0;
    }
  in
  (* declare every procedure first so calls resolve in any order *)
  List.iter
    (fun (p : Ast.proc) ->
      Hashtbl.replace env.procs p.Ast.pname
        {
          arity = List.length p.Ast.params;
          nslots = 0;
          cbody = (fun _ _ _ -> ());
        })
    program.Ast.procs;
  List.iter
    (fun (p : Ast.proc) ->
      collect_slots env p;
      analyze_int_slots env p;
      let cbody = compile_block env p.Ast.body in
      let cp = Hashtbl.find env.procs p.Ast.pname in
      cp.cbody <- cbody;
      Hashtbl.replace env.procs p.Ast.pname { cp with nslots = env.next_slot })
    program.Ast.procs;
  (info, layout, env)

let run ?poll ~machine program =
  let info, layout, env = compile ~machine program in
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
      layout;
      proto;
      shared = Array.make (max 1 total_elems) Value.zero;
      elem_shift = elem_shift_of machine.Machine.elem_size;
      trace_buf = Trace.Buf.create ();
      output_buf = ref [];
    }
  in
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
        (fun (node, bpc) ->
          Trace.Buf.add_barrier g.trace_buf ~node ~pc:bpc ~vt)
        arrivals
  in
  let on_lock_acquire ~node:_ ~lock:_ =
    stats.Memsys.Stats.lock_acquires <- stats.Memsys.Stats.lock_acquires + 1
  in
  let main =
    match Hashtbl.find_opt env.procs "main" with
    | Some cp -> cp
    | None -> error "program has no main procedure"
  in
  let body node =
    let r =
      {
        node;
        privates =
          Array.of_list
            (List.map (fun (_, elems) -> Array.make elems Value.zero)
               info.Sema.privates);
        lop = machine.Machine.costs.Memsys.Network.local_op;
        quantum = machine.Machine.quantum;
        pending = 0;
        base_now = 0;
        held_locks = [];
        held_id = Trace.Buf.empty_held;
      }
    in
    let frame = make_frame main.nslots in
    (try main.cbody g r frame with Returning _ -> ());
    flush_pending r
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
  Obs.finish "engine.compiled" engine_t0;
  {
    Interp.time;
    stats;
    trace = Trace.Buf.to_records g.trace_buf;
    output = List.rev !(g.output_buf);
    shared = g.shared;
    layout;
    info;
  }

let compile_only ~machine program = ignore (compile ~machine program)
