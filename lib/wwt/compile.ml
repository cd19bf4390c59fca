open Lang

let error fmt = Format.kasprintf (fun s -> raise (Interp.Runtime_error s)) fmt

exception Returning of Value.t option

(* ---- runtime state (mirrors Interp's) ---- *)

(* One record per node, and the only argument of compiled code, so every
   node calls its children at a known arity of one. The first fields are
   the run's shared state (the same values in every node's record); [vals]
   and [ints] are the running procedure's slots, which a call swaps for
   the callee's and restores. Statically int-typed variables live unboxed
   in [ints]; everything else is a boxed [Value.t] in [vals]. Which slots
   are int is decided per procedure by [analyze_int_slots]; an int slot is
   only ever written from expressions whose value is guaranteed
   [Value.Vint], so the two representations never disagree. *)
type rt = {
  machine : Machine.t;
  proto : Memsys.Protocol.t;
  stats : Memsys.Stats.t;  (* [Memsys.Protocol.stats proto] *)
  shared : Value.t array;
  elem_shift : int;  (* log2 elem_size, or -1 if not a power of two *)
  trace_buf : Trace.Buf.t;
  output_buf : string list ref;
  node : int;
  privates : Value.t array array;  (* indexed by compile-time private id *)
  lop : int;  (* cost of a local op, lifted out of the machine record *)
  quantum : int;
  mutable pending : int;
  mutable base_now : int;  (* cached [Sched.now]; see Interp.nstate *)
  mutable held_locks : int list;
  mutable held_id : int;
  mutable vals : Value.t array;
  mutable ints : int array;
}

let elem_shift_of elem_size =
  if elem_size > 0 && elem_size land (elem_size - 1) = 0 then begin
    let rec log2 n acc = if n <= 1 then acc else log2 (n lsr 1) (acc + 1) in
    log2 elem_size 0
  end
  else -1

let elem_index r addr =
  if r.elem_shift >= 0 then addr lsr r.elem_shift
  else addr / r.machine.Machine.elem_size

type cexpr = rt -> Value.t
type cint = rt -> int
type cbool = rt -> bool
type cstmt = rt -> unit

type cproc = { arity : int; mutable nslots : int; mutable cbody : cstmt }

(* ---- cost plumbing (identical to Interp) ---- *)

let flush_pending r =
  if r.pending > 0 then begin
    Sched.advance r.pending;
    r.base_now <- r.base_now + r.pending;
    r.pending <- 0
  end

let charge r = r.pending <- r.pending + r.lop

let maybe_yield r = if r.pending >= r.quantum then flush_pending r

let virtual_now r = r.base_now + r.pending

let record_miss r ~pc ~addr packed =
  let kind = Memsys.Protocol.packed_kind packed in
  if kind <> Memsys.Protocol.no_miss && r.machine.Machine.collect_trace
  then begin
    let bkind =
      if kind = Memsys.Protocol.read_miss then Trace.Buf.kind_read
      else if kind = Memsys.Protocol.write_miss then Trace.Buf.kind_write
      else Trace.Buf.kind_fault
    in
    Trace.Buf.add_miss r.trace_buf ~node:r.node ~pc ~addr ~kind:bkind
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

(* names assigned anywhere in the procedure become slots *)
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
   (matching [Value]'s promotion rule). *)
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

let shared_addr (entry : Label.entry) i =
  if i < 0 || i >= entry.Label.elems then
    error "index %d out of bounds for shared array %s[%d]" i entry.Label.name
      entry.Label.elems;
  entry.Label.base + (i * entry.Label.elem_size)

let shared_read r ~pc entry i =
  let addr = shared_addr entry i in
  let p =
    Memsys.Protocol.read_p r.proto ~node:r.node ~addr ~now:(virtual_now r)
  in
  record_miss r ~pc ~addr p;
  r.shared.(elem_index r addr)

let shared_write r ~pc entry i v =
  let addr = shared_addr entry i in
  let p =
    Memsys.Protocol.write_p r.proto ~node:r.node ~addr ~now:(virtual_now r)
  in
  record_miss r ~pc ~addr p;
  r.shared.(elem_index r addr) <- v

(* The two halves of a recognized commutative RMW ([A[i] = A[i] + e]).
   The rmw entry points are bit-identical to read_p/write_p except under
   the Commute backend, where the access lands in a privatized per-node
   copy. *)
let shared_read_rmw r ~pc entry i =
  let addr = shared_addr entry i in
  let p =
    Memsys.Protocol.read_rmw_p r.proto ~node:r.node ~addr ~now:(virtual_now r)
  in
  record_miss r ~pc ~addr p;
  r.shared.(elem_index r addr)

let shared_write_rmw r ~pc entry i v =
  let addr = shared_addr entry i in
  let p =
    Memsys.Protocol.write_rmw_p r.proto ~node:r.node ~addr ~now:(virtual_now r)
  in
  record_miss r ~pc ~addr p;
  r.shared.(elem_index r addr) <- v

let check_private_index name size i =
  if i < 0 || i >= size then
    error "index %d out of bounds for private array %s[%d]" i name size

(* ---- expression compilation ---- *)

(* Int-typed expressions compile to unboxed [cint] closures, conditions to
   [cbool] closures; everything else boxes. Every operator is chosen here,
   at compile time, so a node's closure runs no dispatch of its own.
   Charging is per AST node, on entry, in evaluation order in every
   variant, so simulated cycle counts cannot differ. *)
let rec compile_expr env ~pc (e : Ast.expr) : cexpr =
  match e with
  | Ast.Eint i ->
      let v = Value.Vint i in
      fun r -> charge r; v
  | Ast.Efloat f ->
      let v = Value.Vfloat f in
      fun r -> charge r; v
  | Ast.Evar name -> (
      match array_ref env name with
      | Some _ ->
          (* sema rejects this; defensive *)
          fun _ -> error "array %S used without a subscript" name
      | None ->
          if Hashtbl.mem env.slots name then begin
            let i = Hashtbl.find env.slots name in
            if int_slot env name then fun r -> charge r; Value.Vint r.ints.(i)
            else fun r -> charge r; r.vals.(i)
          end
          else if name = "pid" then fun r -> charge r; Value.Vint r.node
          else if name = "nprocs" then
            fun r -> charge r; Value.Vint r.machine.Machine.nodes
          else (
            match List.assoc_opt name env.consts with
            | Some v -> fun r -> charge r; v
            | None -> fun _ -> error "undefined variable %S" name))
  | _ when expr_is_int env e ->
      (* box once at the root instead of at every leaf and interior node *)
      let ci = compile_int env ~pc e in
      fun r -> Value.Vint (ci r)
  | Ast.Eindex (name, idx) -> (
      let cidx = compile_index env ~pc idx in
      match array_ref env name with
      | Some (Ashared entry) ->
          fun r ->
            charge r;
            let i = cidx r in
            shared_read r ~pc entry i
      | Some (Aprivate (id, size)) ->
          fun r ->
            charge r;
            let i = cidx r in
            check_private_index name size i;
            r.stats.Memsys.Stats.private_reads <-
              r.stats.Memsys.Stats.private_reads + 1;
            r.privates.(id).(i)
      | None -> fun _ -> error "subscript of non-array %S" name)
  | Ast.Ebinop (op, a, b) -> (
      let ca = compile_expr env ~pc a and cb = compile_expr env ~pc b in
      match op with
      | Ast.Add -> fun r -> charge r; let va = ca r in Value.add va (cb r)
      | Ast.Sub -> fun r -> charge r; let va = ca r in Value.sub va (cb r)
      | Ast.Mul -> fun r -> charge r; let va = ca r in Value.mul va (cb r)
      | Ast.Div ->
          fun r ->
            charge r;
            let va = ca r in
            let vb = cb r in
            (try Value.div va vb
             with Division_by_zero -> error "division by zero")
      | Ast.Mod ->
          fun r ->
            charge r;
            let va = ca r in
            let vb = cb r in
            (try Value.modulo va vb
             with Division_by_zero -> error "division by zero")
      | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne | Ast.And | Ast.Or
        ->
          assert false (* int-typed, compiled above *))
  | Ast.Eunop (Ast.Neg, a) ->
      let ca = compile_expr env ~pc a in
      fun r -> charge r; Value.neg (ca r)
  | Ast.Eunop (Ast.Not, _) -> assert false (* int-typed *)
  | Ast.Ecall (name, args) ->
      let call = compile_call env ~pc name args in
      fun r -> charge r; call r

(* unboxed compilation; precondition: [expr_is_int env e] *)
and compile_int env ~pc (e : Ast.expr) : cint =
  match e with
  | Ast.Eint i -> fun r -> charge r; i
  | Ast.Evar name ->
      if Hashtbl.mem env.slots name then begin
        let i = Hashtbl.find env.slots name in
        fun r -> charge r; r.ints.(i)
      end
      else if name = "pid" then fun r -> charge r; r.node
      else if name = "nprocs" then fun r -> charge r; r.machine.Machine.nodes
      else (
        match List.assoc_opt name env.consts with
        | Some (Value.Vint i) -> fun r -> charge r; i
        | Some (Value.Vfloat _) | None -> assert false)
  | Ast.Ebinop
      ( ( Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne | Ast.And
        | Ast.Or ),
        _,
        _ )
  | Ast.Eunop (Ast.Not, _) ->
      let cb = compile_bool env ~pc e in
      fun r -> if cb r then 1 else 0
  | Ast.Ebinop (Ast.Add, a, b) ->
      let ca = compile_int env ~pc a and cb = compile_int env ~pc b in
      fun r -> charge r; let x = ca r in x + cb r
  | Ast.Ebinop (Ast.Sub, a, b) ->
      let ca = compile_int env ~pc a and cb = compile_int env ~pc b in
      fun r -> charge r; let x = ca r in x - cb r
  | Ast.Ebinop (Ast.Mul, a, b) ->
      let ca = compile_int env ~pc a and cb = compile_int env ~pc b in
      fun r -> charge r; let x = ca r in x * cb r
  | Ast.Ebinop (Ast.Div, a, b) ->
      let ca = compile_int env ~pc a and cb = compile_int env ~pc b in
      fun r ->
        charge r;
        let x = ca r in
        let y = cb r in
        if y = 0 then error "division by zero" else x / y
  | Ast.Ebinop (Ast.Mod, a, b) ->
      let ca = compile_int env ~pc a and cb = compile_int env ~pc b in
      fun r ->
        charge r;
        let x = ca r in
        let y = cb r in
        if y = 0 then error "division by zero" else x mod y
  | Ast.Eunop (Ast.Neg, a) ->
      let ca = compile_int env ~pc a in
      fun r -> charge r; -ca r
  | Ast.Ecall ("int", [ a ]) ->
      let ca = compile_expr env ~pc a in
      fun r -> charge r; Value.to_int (ca r)
  | Ast.Ecall ("abs", [ a ]) ->
      let ca = compile_int env ~pc a in
      fun r -> charge r; abs (ca r)
  | Ast.Ecall ("min", [ a; b ]) ->
      let ca = compile_int env ~pc a and cb = compile_int env ~pc b in
      fun r ->
        charge r;
        let x = ca r in
        let y = cb r in
        if x <= y then x else y
  | Ast.Ecall ("max", [ a; b ]) ->
      let ca = compile_int env ~pc a and cb = compile_int env ~pc b in
      fun r ->
        charge r;
        let x = ca r in
        let y = cb r in
        if x >= y then x else y
  | Ast.Efloat _ | Ast.Eindex _ | Ast.Ecall _ -> assert false

(* Conditions: comparisons and logic yield [bool] directly, so a loop or
   branch test never boxes or goes through 0/1. *)
and compile_bool env ~pc (e : Ast.expr) : cbool =
  match e with
  | Ast.Ebinop
      (((Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne) as op), a, b)
    ->
      if expr_is_int env a && expr_is_int env b then begin
        let ca = compile_int env ~pc a and cb = compile_int env ~pc b in
        match op with
        | Ast.Lt -> fun r -> charge r; let x = ca r in x < cb r
        | Ast.Le -> fun r -> charge r; let x = ca r in x <= cb r
        | Ast.Gt -> fun r -> charge r; let x = ca r in x > cb r
        | Ast.Ge -> fun r -> charge r; let x = ca r in x >= cb r
        | Ast.Eq -> fun r -> charge r; let x = ca r in x = cb r
        | _ -> fun r -> charge r; let x = ca r in x <> cb r
      end
      else begin
        let ca = compile_expr env ~pc a and cb = compile_expr env ~pc b in
        match op with
        | Ast.Lt ->
            fun r -> charge r; let va = ca r in Value.compare_num va (cb r) < 0
        | Ast.Le ->
            fun r -> charge r; let va = ca r in Value.compare_num va (cb r) <= 0
        | Ast.Gt ->
            fun r -> charge r; let va = ca r in Value.compare_num va (cb r) > 0
        | Ast.Ge ->
            fun r -> charge r; let va = ca r in Value.compare_num va (cb r) >= 0
        | Ast.Eq -> fun r -> charge r; let va = ca r in Value.equal va (cb r)
        | _ -> fun r -> charge r; let va = ca r in not (Value.equal va (cb r))
      end
  | Ast.Ebinop (Ast.And, a, b) ->
      let ba = compile_bool env ~pc a and bb = compile_bool env ~pc b in
      fun r -> charge r; ba r && bb r
  | Ast.Ebinop (Ast.Or, a, b) ->
      let ba = compile_bool env ~pc a and bb = compile_bool env ~pc b in
      fun r -> charge r; ba r || bb r
  | Ast.Eunop (Ast.Not, a) ->
      let ba = compile_bool env ~pc a in
      fun r -> charge r; not (ba r)
  | _ when expr_is_int env e ->
      let ci = compile_int env ~pc e in
      fun r -> ci r <> 0
  | _ ->
      let ce = compile_expr env ~pc e in
      fun r -> Value.to_bool (ce r)

(* array subscripts: unboxed when int-typed, [Value.to_int] otherwise *)
and compile_index env ~pc (e : Ast.expr) : cint =
  if expr_is_int env e then compile_int env ~pc e
  else begin
    let ce = compile_expr env ~pc e in
    fun r -> Value.to_int (ce r)
  end

(* calls in statement position are not charged as an expression node *)
and compile_call env ~pc name args : cexpr =
  let cargs = List.map (compile_expr env ~pc) args in
  let unary f =
    match cargs with [ c ] -> fun r -> f (c r) | _ -> assert false
  in
  let to_float f = unary (fun v -> Value.Vfloat (f (Value.to_float v))) in
  match (name, cargs) with
  | "min", [ c1; c2 ] ->
      fun r ->
        let a = c1 r in
        let b = c2 r in
        if Value.compare_num a b <= 0 then a else b
  | "max", [ c1; c2 ] ->
      fun r ->
        let a = c1 r in
        let b = c2 r in
        if Value.compare_num a b >= 0 then a else b
  | "abs", [ _ ] ->
      unary (function
        | Value.Vint i -> Value.Vint (abs i)
        | Value.Vfloat f -> Value.Vfloat (Float.abs f))
  | "sqrt", [ _ ] -> to_float sqrt
  | "sin", [ _ ] -> to_float sin
  | "cos", [ _ ] -> to_float cos
  | "floor", [ _ ] -> to_float Float.floor
  | "float", [ _ ] -> to_float Fun.id
  | "int", [ _ ] -> unary (fun v -> Value.Vint (Value.to_int v))
  | "noise", [ _ ] ->
      unary (fun v -> Value.Vfloat (Interp.noise (Value.to_int v)))
  | _ -> (
      let cargs = Array.of_list cargs in
      let nargs = Array.length cargs in
      (* the callee is resolved here; [cbody] and [nslots] are read at
         call time because a callee may be compiled after its caller *)
      match Hashtbl.find_opt env.procs name with
      | Some cp when cp.arity = nargs ->
          fun r ->
            let vals = Array.make (max 1 cp.nslots) Value.zero in
            for i = 0 to nargs - 1 do
              vals.(i) <- cargs.(i) r
            done;
            let caller_vals = r.vals and caller_ints = r.ints in
            r.vals <- vals;
            r.ints <- Array.make (max 1 cp.nslots) 0;
            (match cp.cbody r with
            | () ->
                r.vals <- caller_vals;
                r.ints <- caller_ints;
                Value.zero
            | exception Returning v ->
                r.vals <- caller_vals;
                r.ints <- caller_ints;
                Option.value ~default:Value.zero v)
      | found ->
          (* sema rejects both; the arguments still run first, as in a
             well-formed call *)
          fun r ->
            Array.iter (fun c -> ignore (c r)) cargs;
            (match found with
            | None -> error "call of unknown procedure %S" name
            | Some cp ->
                error "procedure %S called with %d argument(s), expects %d"
                  name nargs cp.arity))

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
        (fun r (ranges : (int * int) list) ->
          match r.machine.Machine.annotations with
          | Machine.Ignore_annotations -> ()
          | Machine.Execute_annotations ->
              if not (is_prefetch && not r.machine.Machine.prefetch) then
                let elem_size = entry.Label.elem_size in
                let block_size = r.machine.Machine.block_size in
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
                            directive r.proto ~node:r.node ~addr
                              ~now:(virtual_now r)
                          in
                          r.pending <- r.pending + lat)
                        (Memsys.Block.blocks_of_range ~block_size ~lo:lo_addr
                           ~hi:hi_addr)
                    end)
                  ranges)
  | Some (Aprivate _) | None -> None

let rec compile_stmt env (s : Ast.stmt) : cstmt =
  let pc = s.Ast.sid in
  let is_annot = Ast.is_annotation s in
  let body : cstmt =
    match s.Ast.node with
    | Ast.Sassign (Ast.Lvar name, e) ->
        let i = slot_of env name in
        if int_slot env name then begin
          let ci = compile_int env ~pc e in
          fun r -> r.ints.(i) <- ci r
        end
        else begin
          let ce = compile_expr env ~pc e in
          fun r -> r.vals.(i) <- ce r
        end
    | Ast.Sassign (Ast.Lindex (name, idx), e) -> (
        let cidx = compile_index env ~pc idx in
        match (array_ref env name, e) with
        | ( Some (Ashared entry),
            Ast.Ebinop (Ast.Add, Ast.Eindex (name2, idx2), rest) )
          when name2 = name && idx2 = idx && Interp.simple_index idx ->
            (* Read-modify-write accumulation (A[i] = A[i] + e): the same
               charges, in the same order, as the generic [shared_write]
               path. Only the protocol entry points differ (rmw-aware, so
               the Commute backend can privatize the accumulation). *)
            let cidx_in = compile_index env ~pc idx in
            let crest = compile_expr env ~pc rest in
            fun r ->
              charge r;  (* the Ebinop node *)
              charge r;  (* the inner Eindex node *)
              let i1 = cidx_in r in
              let va = shared_read_rmw r ~pc entry i1 in
              let vb = crest r in
              let v = Value.add va vb in
              let i2 = cidx r in
              shared_write_rmw r ~pc entry i2 v
        | Some (Ashared entry), _ ->
            let ce = compile_expr env ~pc e in
            fun r ->
              let v = ce r in
              let i = cidx r in
              shared_write r ~pc entry i v
        | Some (Aprivate (id, size)), _ ->
            let ce = compile_expr env ~pc e in
            fun r ->
              let v = ce r in
              let i = cidx r in
              check_private_index name size i;
              r.stats.Memsys.Stats.private_writes <-
                r.stats.Memsys.Stats.private_writes + 1;
              r.privates.(id).(i) <- v
        | None, _ -> fun _ -> error "assignment to non-array %S" name)
    | Ast.Sif (cond, b1, b2) ->
        let cc = compile_bool env ~pc cond in
        let cb1 = compile_block env b1 and cb2 = compile_block env b2 in
        fun r -> if cc r then cb1 r else cb2 r
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
          fun r ->
            let lo = cfrom r in
            let hi = cto r in
            let st = cstep r in
            if st = 0 then error "loop step is zero";
            let cur = ref lo in
            while if st > 0 then !cur <= hi else !cur >= hi do
              r.ints.(slot) <- !cur;
              cbody r;
              r.pending <- r.pending + 1;
              cur := !cur + st
            done
        end
        else begin
          let cfrom = compile_expr env ~pc from_ in
          let cto = compile_expr env ~pc to_ in
          let cstep = compile_expr env ~pc step in
          fun r ->
            let lo = cfrom r in
            let hi = cto r in
            let st = cstep r in
            let stf = Value.to_float st in
            if stf = 0.0 then error "loop step is zero";
            let continues v =
              if stf > 0.0 then Value.compare_num v hi <= 0
              else Value.compare_num v hi >= 0
            in
            let cur = ref lo in
            while continues !cur do
              r.vals.(slot) <- !cur;
              cbody r;
              r.pending <- r.pending + 1;
              cur := Value.add !cur st
            done
        end
    | Ast.Swhile (cond, body) ->
        let cc = compile_bool env ~pc cond in
        let cbody = compile_block env body in
        fun r ->
          while cc r do
            cbody r
          done
    | Ast.Sbarrier ->
        fun r ->
          flush_pending r;
          Sched.barrier_sync ~pc;
          r.base_now <- Sched.now ()
    | Ast.Scall (name, args) ->
        let call = compile_call env ~pc name args in
        fun r -> ignore (call r)
    | Ast.Sreturn None -> fun _ -> raise (Returning None)
    | Ast.Sreturn (Some e) ->
        let ce = compile_expr env ~pc e in
        fun r -> raise (Returning (Some (ce r)))
    | Ast.Slock e ->
        let ce = compile_index env ~pc e in
        fun r ->
          let l = ce r in
          flush_pending r;
          Sched.lock_acquire l;
          r.base_now <- Sched.now ();
          r.held_locks <- l :: r.held_locks;
          if r.machine.Machine.collect_trace then
            r.held_id <- Trace.Buf.intern_held r.trace_buf r.held_locks
    | Ast.Sunlock e ->
        let ce = compile_index env ~pc e in
        fun r ->
          let l = ce r in
          r.held_locks <- Interp.remove_lock l r.held_locks;
          if r.machine.Machine.collect_trace then
            r.held_id <- Trace.Buf.intern_held r.trace_buf r.held_locks;
          flush_pending r;
          Sched.lock_release l;
          r.base_now <- Sched.now ()
    | Ast.Sannot (kind, { arr; lo; hi }) -> (
        let clo = compile_index env ~pc lo in
        let chi = compile_index env ~pc hi in
        match compile_annot env kind arr with
        | Some exec ->
            fun r ->
              let lo_i = clo r in
              let hi_i = chi r in
              exec r [ (lo_i, hi_i) ]
        | None -> fun _ -> error "annotation on unknown shared array %S" arr)
    | Ast.Sannot_table { akind; aarr; aranges } -> (
        match compile_annot env akind aarr with
        | Some exec ->
            fun r ->
              let ranges =
                if r.node < Array.length aranges then aranges.(r.node) else []
              in
              exec r ranges
        | None -> fun _ -> error "annotation on unknown shared array %S" aarr)
    | Ast.Sprint args ->
        let cargs = List.map (compile_expr env ~pc) args in
        fun r ->
          let rec eval_list = function
            | [] -> []
            | c :: rest ->
                let v = c r in
                v :: eval_list rest
          in
          let values = eval_list cargs in
          let line =
            Printf.sprintf "p%d: %s" r.node
              (String.concat " " (List.map Value.to_string values))
          in
          r.output_buf := line :: !(r.output_buf)
  in
  if is_annot then fun r -> charge r; body r
  else fun r -> charge r; maybe_yield r; body r

(* a chain of closures, so running a block allocates nothing *)
and compile_block env block =
  let rec chain = function
    | [] -> fun _ -> ()
    | [ s ] -> s
    | s :: rest ->
        let k = chain rest in
        fun r -> s r; k r
  in
  chain (List.map (compile_stmt env) block)

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
        { arity = List.length p.Ast.params; nslots = 0; cbody = (fun _ -> ()) })
    program.Ast.procs;
  List.iter
    (fun (p : Ast.proc) ->
      collect_slots env p;
      analyze_int_slots env p;
      let cbody = compile_block env p.Ast.body in
      let cp = Hashtbl.find env.procs p.Ast.pname in
      cp.cbody <- cbody;
      cp.nslots <- env.next_slot)
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
  let shared = Array.make (max 1 total_elems) Value.zero in
  let trace_buf = Trace.Buf.create () in
  let output_buf = ref [] in
  if machine.Machine.collect_trace then
    List.iter
      (fun (name, lo, hi) -> Trace.Buf.add_label trace_buf ~name ~lo ~hi)
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
        (fun (node, bpc) -> Trace.Buf.add_barrier trace_buf ~node ~pc:bpc ~vt)
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
        machine;
        proto;
        stats;
        shared;
        elem_shift = elem_shift_of machine.Machine.elem_size;
        trace_buf;
        output_buf;
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
        vals = Array.make (max 1 main.nslots) Value.zero;
        ints = Array.make (max 1 main.nslots) 0;
      }
    in
    (try main.cbody r with Returning _ -> ());
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
    trace = Trace.Buf.to_records trace_buf;
    output = List.rev !output_buf;
    shared;
    layout;
    info;
  }

let compile_only ~machine program = ignore (compile ~machine program)
