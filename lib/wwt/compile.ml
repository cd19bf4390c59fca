(* The compiled engine: each procedure compiles once to closures that
   every node runs, and simulated time equals the tree walk's ([Interp])
   to the cycle. The charge-order rule that keeps it equal: every AST node
   costs [lop], charged where the tree walk evaluates it; an operand
   folded into its parent is charged by the parent at that point; and
   charges are summed only across code that makes no shared access, runs
   no directive, makes no call and does not yield, because [virtual_now]
   times each of those. So a folded affine subscript of [n] nodes (see
   [affine]) charges [n·lop] at once, where the tree walk evaluates the
   subscript: before an array read, after a store's value. *)

open Lang

let error fmt = Format.kasprintf (fun s -> raise (Interp.Runtime_error s)) fmt

exception Returning of Value.t option

(* ---- runtime state (mirrors Interp's) ---- *)

(* One record per node, and the only argument of compiled code, so every
   node calls its children at a known arity of one. The first fields are
   the run's shared state (the same values in every node's record); [vals],
   [ints] and [floats] are the running procedure's frame, which a call
   swaps for the callee's and restores.

   Every value has one of four static types ([ty]), fixed at compile time
   by [type_program], and lives where its type says: an int unboxed in
   [ints]; a float, or the int 0 of a never-written private element
   ([fz_zero]), unboxed in [floats]; anything else as a [Value.t] in
   [vals]. [floats] also holds the float registers that float expressions
   compute in, after the float slots. A private array whose every store
   is float-typed lives unboxed in [fprivates], any other in [privates].
   A value is boxed only where it leaves the engine: shared memory,
   [print], call arguments and returns, and a read in a boxed context. *)
type rt = {
  machine : Machine.t;
  proto : Memsys.Protocol.t;
  stats : Memsys.Stats.t;  (* [Memsys.Protocol.stats proto] *)
  shared : Value.t array;
  elem_shift : int;  (* log2 elem_size, or -1 if not a power of two *)
  trace_rev : Trace.Event.record list ref;  (* newest first *)
  output_buf : string list ref;
  node : int;
  privates : Value.t array array;  (* boxed private arrays, by id *)
  fprivates : float array array;  (* float private arrays, by id *)
  lop : int;  (* cost of a local op, lifted out of the machine record *)
  quantum : int;
  mutable pending : int;
  mutable base_now : int;  (* cached [Sched.now]; see Interp.nstate *)
  mutable ahead : bool;
      (* the node may be running ahead of the scheduler: set from
         [Sched.advance_ahead], cleared by [catch_up] *)
  mutable held_locks : int list;
  mutable vals : Value.t array;
  mutable ints : int array;
  mutable floats : float array;
}

let elem_shift_of elem_size =
  if elem_size > 0 && elem_size land (elem_size - 1) = 0 then begin
    let rec log2 n acc = if n <= 1 then acc else log2 (n lsr 1) (acc + 1) in
    log2 elem_size 0
  end
  else -1

(* A float expression writes its result into its register
   [r.floats.(d)] instead of returning it: without flambda, a closure
   that returned a float would box it. *)
type cexpr = rt -> Value.t
type cint = rt -> int
type cbool = rt -> bool
type cfloat = rt -> unit
type cstmt = rt -> unit

type cproc = {
  arity : int;
  mutable nslots : int;
  mutable nfloats : int;  (* float slots and registers *)
  mutable cbody : cstmt;
}

(* ---- cost plumbing (identical to Interp) ---- *)

let flush_pending r =
  if r.pending > 0 then begin
    Sched.advance r.pending;
    r.base_now <- r.base_now + r.pending;
    r.pending <- 0
  end

let charge r = r.pending <- r.pending + r.lop

let maybe_yield r = if r.pending >= r.quantum then flush_pending r

(* The yield point of a statement in a private loop (see [private_stmt]):
   where [flush_pending] would park, the node runs on ahead of the
   scheduler instead. *)
let maybe_yield_ahead r =
  if r.pending >= r.quantum && r.pending > 0 then begin
    r.ahead <- Sched.advance_ahead r.pending;
    r.base_now <- r.base_now + r.pending;
    r.pending <- 0
  end

(* Before an operation another node can see: shared memory, an
   annotation directive, [print]'s output, a barrier or a lock. *)
let[@inline] catch_up r =
  if r.ahead then begin
    Sched.sync ();
    r.ahead <- false
  end

let[@inline] virtual_now r = r.base_now + r.pending

(* ---- the float-or-zero encoding ---- *)

(* A private element nobody wrote is [Vint 0], not a float, and mixes
   into arithmetic as an int ([P[3] + 1] is the int 1). In float storage
   it is this signalling NaN. No float operation produces a signalling
   NaN, and loads, stores and [Float.abs] keep its bits. *)
let fz_zero_bits = 0x7FF4_0000_0000_0000L
let fz_zero = Int64.float_of_bits fz_zero_bits

let[@inline] is_fz_zero (x : float) =
  x <> x && Int64.equal (Int64.bits_of_float x) fz_zero_bits

(* [Value.to_float] of an encoded value *)
let[@inline] num (x : float) = if is_fz_zero x then 0.0 else x

let box_fz x = if is_fz_zero x then Value.zero else Value.Vfloat x

let unbox_fz = function
  | Value.Vfloat f -> f
  | Value.Vint _ -> fz_zero

(* [Value.add]/[sub]/[mul] on two encoded values: plain float arithmetic
   unless either is a NaN, and then the int 0 only if both are. *)
let[@inline] fz_add x y =
  if x = x && y = y then x +. y
  else if is_fz_zero x && is_fz_zero y then fz_zero
  else num x +. num y

let[@inline] fz_sub x y =
  if x = x && y = y then x -. y
  else if is_fz_zero x && is_fz_zero y then fz_zero
  else num x -. num y

let[@inline] fz_mul x y =
  if x = x && y = y then x *. y
  else if is_fz_zero x && is_fz_zero y then fz_zero
  else num x *. num y

(* ---- static types ---- *)

(* What a value is guaranteed to be at run time. [Tnone] is where the
   typing pass starts a slot: no write has given it a value yet. *)
type ty =
  | Tnone
  | Tint  (* always [Vint] *)
  | Tfloat  (* always [Vfloat] *)
  | Tfz  (* [Vfloat], or the [Vint 0] of a never-written private element *)
  | Tbox  (* anything *)

let join a b =
  match (a, b) with
  | Tnone, t | t, Tnone -> t
  | Tint, Tint -> Tint
  | Tfloat, Tfloat -> Tfloat
  | (Tfloat | Tfz), (Tfloat | Tfz) -> Tfz
  | _ -> Tbox

(* Values live unboxed in float storage when their type is one of these
   ([Tnone] is never read, see [type_program]). *)
let floaty = function Tnone | Tfloat | Tfz -> true | Tint | Tbox -> false

(* [Value]'s promotion rule: int op int is an int, anything with a float
   operand a float. A zero divisor stops the run whatever its type, so a
   never-written divisor yields a float or nothing. *)
let arith (op : Ast.binop) a b =
  match (op, a, b) with
  | _, Tnone, _ | _, _, Tnone -> Tnone
  | _, Tint, Tint -> Tint
  | _, Tfloat, _ | (Ast.Add | Ast.Sub | Ast.Mul | Ast.Mod), _, Tfloat -> Tfloat
  | Ast.Div, _, (Tfloat | Tfz) -> Tfloat
  | (Ast.Add | Ast.Sub | Ast.Mul), Tfz, Tfz -> Tfz
  | _ -> Tbox

(* a loop variable holds [from], then repeatedly itself plus [step] *)
let loop_var_type from step =
  let rec go t =
    let t' = join t (arith Ast.Add t step) in
    if t' = t then t else go t'
  in
  go from

(* ---- compile-time environment ---- *)

type array_ref =
  | Ashared of Label.entry
  | Aboxed of int * int  (* id in [privates], element count *)
  | Afloat of int * int  (* id in [fprivates], element count *)

(* One procedure's frame: slot indices (params first), their types, and
   the reads that may find a slot unassigned. *)
type frame = {
  slots : (string, int) Hashtbl.t;
  types : (string, ty) Hashtbl.t;
  unproven : (int * string, unit) Hashtbl.t;  (* see [unproven_reads] *)
  mutable nregs : int;  (* float registers, after the slots in [floats] *)
}

type cenv = {
  genv_layout : Label.t;
  machine : Machine.t;  (* fixed before compiling: [nprocs], directives *)
  consts : (string * Value.t) list;
  procs : (string, cproc) Hashtbl.t;
  float_privates : (string, unit) Hashtbl.t;
  mutable private_refs : (string * array_ref) list;
  mutable cur : frame;  (* the procedure being typed or compiled *)
}

let array_ref env name =
  match Label.find_array env.genv_layout name with
  | Some e -> Some (Ashared e)
  | None -> List.assoc_opt name env.private_refs

let slot env name = Hashtbl.find_opt env.cur.slots name
let slot_type env name = Hashtbl.find env.cur.types name

(* registers sit after the slots; note that register [d] is used *)
let reg env d =
  let n = d - Hashtbl.length env.cur.slots + 1 in
  if n > env.cur.nregs then env.cur.nregs <- n

(* ---- definite assignment ---- *)

module Names = Set.Make (String)

(* The slot reads that may run before any write to the slot, as
   (statement id, name) pairs. A statement evaluates all its own
   expressions before its own write, so whether a read is proven depends
   only on its statement. A loop body may run zero times and a branch
   may not be taken, so neither proves anything after it. Only these
   reads check at run time, and only their slots can be unassigned. *)
let unproven_reads (f : frame) (proc : Ast.proc) =
  let rec reads pc set (e : Ast.expr) =
    match e with
    | Ast.Evar name ->
        if Hashtbl.mem f.slots name && not (Names.mem name set) then
          Hashtbl.replace f.unproven (pc, name) ()
    | Ast.Eint _ | Ast.Efloat _ -> ()
    | Ast.Eindex (_, a) | Ast.Eunop (_, a) -> reads pc set a
    | Ast.Ebinop (_, a, b) -> reads pc set a; reads pc set b
    | Ast.Ecall (_, args) -> List.iter (reads pc set) args
  in
  let rec stmt set (s : Ast.stmt) =
    let r = reads s.Ast.sid set in
    match s.Ast.node with
    | Ast.Sassign (Ast.Lvar x, e) -> r e; Names.add x set
    | Ast.Sassign (Ast.Lindex (_, i), e) -> r e; r i; set
    | Ast.Sif (c, b1, b2) -> r c; Names.inter (block set b1) (block set b2)
    | Ast.Sfor { var; from_; to_; step; body } ->
        r from_; r to_; r step;
        ignore (block (Names.add var set) body);
        set
    | Ast.Swhile (c, body) -> r c; ignore (block set body); set
    | Ast.Scall (_, args) | Ast.Sprint args -> List.iter r args; set
    | Ast.Sreturn e -> Option.iter r e; set
    | Ast.Slock e | Ast.Sunlock e -> r e; set
    | Ast.Sannot (_, { lo; hi; _ }) -> r lo; r hi; set
    | Ast.Sbarrier | Ast.Sannot_table _ -> set
  and block set b = List.fold_left stmt set b in
  ignore (block (Names.of_list proc.Ast.params) proc.Ast.body)

(* A boxed slot holds [unassigned] until its first write; the block is
   allocated here so no other value is physically equal to it. *)
let unassigned = Value.Vint (Sys.opaque_identity 0)

(* ---- the typing pass ---- *)

let rec type_of env (e : Ast.expr) =
  match e with
  | Ast.Eint _ -> Tint
  | Ast.Efloat _ -> Tfloat
  | Ast.Evar name -> (
      match Hashtbl.find_opt env.cur.types name with
      | Some t -> t
      | None when name = "pid" || name = "nprocs" -> Tint
      | None -> (
          match List.assoc_opt name env.consts with
          | Some (Value.Vint _) -> Tint
          | Some (Value.Vfloat _) -> Tfloat
          | None -> Tbox))
  | Ast.Eindex (name, _) ->
      if Hashtbl.mem env.float_privates name then Tfz else Tbox
  | Ast.Ebinop
      ( ( Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne | Ast.And
        | Ast.Or ),
        _,
        _ )
  | Ast.Eunop (Ast.Not, _)
  | Ast.Ecall ("int", [ _ ]) ->
      Tint
  | Ast.Ebinop (op, a, b) -> arith op (type_of env a) (type_of env b)
  | Ast.Eunop (Ast.Neg, a) | Ast.Ecall ("abs", [ a ]) -> type_of env a
  | Ast.Ecall (("sqrt" | "sin" | "cos" | "floor" | "float" | "noise"), [ _ ])
    ->
      Tfloat
  | Ast.Ecall (("min" | "max"), [ a; b ]) -> (
      match (type_of env a, type_of env b) with
      | Tnone, _ | _, Tnone -> Tnone
      | ta, tb -> join ta tb)
  | Ast.Ecall _ -> Tbox

(* Names assigned anywhere in a procedure become its slots. Params arrive
   boxed, and a slot that may be read unassigned is boxed so it can hold
   [unassigned]; every other slot starts at [Tnone]. *)
let frame_of (proc : Ast.proc) =
  let f =
    {
      slots = Hashtbl.create 16;
      types = Hashtbl.create 16;
      unproven = Hashtbl.create 8;
      nregs = 0;
    }
  in
  let add name =
    if not (Hashtbl.mem f.slots name) then
      Hashtbl.add f.slots name (Hashtbl.length f.slots)
  in
  List.iter add proc.Ast.params;
  Ast.iter_stmts
    (fun s ->
      match s.Ast.node with
      | Ast.Sassign (Ast.Lvar name, _) | Ast.Sfor { var = name; _ } -> add name
      | _ -> ())
    { Ast.decls = []; procs = [ proc ] };
  unproven_reads f proc;
  Hashtbl.iter (fun name _ -> Hashtbl.replace f.types name Tnone) f.slots;
  List.iter (fun p -> Hashtbl.replace f.types p Tbox) proc.Ast.params;
  Hashtbl.iter (fun (_, name) () -> Hashtbl.replace f.types name Tbox)
    f.unproven;
  f

(* The one typing pass. A slot's type is the [join] of every write to
   it; a private array stays unboxed until a store that is not
   float-typed. Both only move up, so iterating to a fixed point
   terminates. Private arrays outlive a procedure, so the pass covers the
   whole program. A slot left at [Tnone] is only ever written by
   expressions that never complete (each reads such a slot), so none of
   its reads runs. *)
let type_program env (program : Ast.program) =
  let frames = List.map (fun p -> (p, frame_of p)) program.Ast.procs in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun ((p : Ast.proc), f) ->
        env.cur <- f;
        let widen name t =
          let old = Hashtbl.find f.types name in
          let t = join old t in
          if t <> old then begin
            Hashtbl.replace f.types name t;
            changed := true
          end
        in
        Ast.iter_stmts
          (fun s ->
            match s.Ast.node with
            | Ast.Sassign (Ast.Lvar x, e) -> widen x (type_of env e)
            | Ast.Sfor { var; from_; step; _ } ->
                widen var
                  (loop_var_type (type_of env from_) (type_of env step))
            | Ast.Sassign (Ast.Lindex (a, _), e) ->
                if
                  Hashtbl.mem env.float_privates a
                  && not (floaty (type_of env e))
                then begin
                  Hashtbl.remove env.float_privates a;
                  changed := true
                end
            | _ -> ())
          { Ast.decls = []; procs = [ p ] })
      frames
  done;
  frames

(* ---- shared-memory accesses ----

   The whole access is inlined into its closure, because the dev
   profile's [-opaque] makes every call a real one: the bound check, the
   protocol call, and its packed outcome decoded in place, kind in the
   low two bits and latency above them as [Memsys.Protocol] packs it.
   [access] is the protocol entry point: the plain load or store, or
   the rmw-aware halves of a recognized commutative accumulation
   ([A[i] = A[i] + e]), which differ only under the Commute backend. *)

(* a miss's trace record, off the hit path *)
let record_miss (r : rt) ~pc ~addr kind =
  if r.machine.Machine.collect_trace then begin
    let kind =
      if kind = Memsys.Protocol.read_miss then Trace.Event.Read_miss
      else if kind = Memsys.Protocol.write_miss then Trace.Event.Write_miss
      else Trace.Event.Write_fault
    in
    r.trace_rev :=
      Trace.Event.Miss { node = r.node; pc; addr; kind; held = r.held_locks }
      :: !(r.trace_rev)
  end

(* the element of [r.shared] that [entry]'s element [i] is, after the
   access that reaches it *)
let[@inline] shared_access (r : rt) ~pc (entry : Label.entry) i access =
  catch_up r;
  if i < 0 || i >= entry.Label.elems then
    error "index %d out of bounds for shared array %s[%d]" i entry.Label.name
      entry.Label.elems;
  let addr = entry.Label.base + (i * entry.Label.elem_size) in
  let p = access r.proto ~node:r.node ~addr ~now:(virtual_now r) in
  if p land 3 <> Memsys.Protocol.no_miss then record_miss r ~pc ~addr (p land 3);
  r.pending <- r.pending + (p lsr 2);
  if r.elem_shift >= 0 then addr lsr r.elem_shift
  else addr / r.machine.Machine.elem_size

let[@inline] check_private_index name size i =
  if i < 0 || i >= size then
    error "index %d out of bounds for private array %s[%d]" i name size

let[@inline] count_private_read r =
  r.stats.Memsys.Stats.private_reads <- r.stats.Memsys.Stats.private_reads + 1

let[@inline] count_private_write r =
  r.stats.Memsys.Stats.private_writes <-
    r.stats.Memsys.Stats.private_writes + 1

(* ---- expression compilation ----

   Each expression compiles by its static type: an int to a [cint], a
   float to a [cfloat] writing register [d] (registers above [d] are its
   scratch), a condition to a [cbool], anything else to a boxing
   [cexpr]. Every operator is chosen here, at compile time, so a node's
   closure runs no dispatch of its own.

   Charges follow the tree walk (see the rule at the top): a node on
   entry, then its operands left to right. A leaf folded into its parent
   before a subtree is charged before the subtree runs, a leaf after it
   after; leaves with no subtree between them are charged at once. *)

(* ---- folded operands ----

   A leaf operand of an operator (a literal, a named constant, [pid] or
   [nprocs], an int, float or float-or-zero slot, or one of these in
   float arithmetic) has no closure: the operator reads it inline, by a
   kind code fixed at compile time. Boxed and unproven slots are not
   leaves; their reads may fail, in [compile_var]. A subtree of the
   operator's own type is called directly, and a subtree that needs a
   conversion is converted inline by [iget] or [fget], so a conversion
   costs no closure either. The hot operators have one closure per
   operand shape (leaf or own-type subtree on each side), because a
   match on an operand at run time costs about as much as the closure
   call it saves; the rest, and shapes with a conversion, read their
   operands through [iget]/[fget]. The readers are inlined: a closure
   that returned a float would box it. *)

(* An int leaf: a literal, a named constant or [nprocs] (kind 0), an int
   slot (1), or [pid] (2). *)
let[@inline] ileaf r k x =
  if k = 0 then x else if k = 1 then r.ints.(x) else r.node

(* A float leaf: a literal, or an int leaf of kind 0 (kind 0); a float
   slot, or a float-or-zero one kept encoded (1); a float-or-zero slot
   as a number (2); an int slot (3); [pid] (4). *)
let[@inline] fleaf r k x f =
  if k = 0 then f
  else if k = 1 then r.floats.(x)
  else if k = 2 then num r.floats.(x)
  else if k = 3 then float_of_int r.ints.(x)
  else float_of_int r.node

(* [Value.to_int] of an operand: an int subtree, a leaf, or a subtree
   it converts. Three constructors, so a match on one is two compares,
   not an indirect jump. *)
type iopnd = Iint of cint | Ileaf of int * int | Iconv of iconv

and iconv =
  | Ifloat of int * cfloat  (* truncates the register it writes *)
  | Ibox of cexpr

(* [Value.to_float] of an operand, or, in float-or-zero arithmetic, its
   encoding: a float subtree writing the register its parent gives it, a
   leaf, or a subtree it converts *)
type fopnd = Ffloat of cfloat | Fleaf of int * int * float | Fconv of fconv
and fconv = Fint of cint | Fbox of cexpr

let[@inline] iconv r = function
  | Ifloat (d, c) -> c r; int_of_float r.floats.(d)
  | Ibox c -> Value.to_int (c r)

(* any operand, where an operator is not folded per shape *)
let[@inline] iget r = function
  | Iint c -> c r
  | Ileaf (k, x) -> charge r; ileaf r k x
  | Iconv o -> iconv r o

let[@inline] fget r d = function
  | Ffloat c -> c r; r.floats.(d)
  | Fleaf (k, x, f) -> charge r; fleaf r k x f
  | Fconv (Fint c) -> float_of_int (c r)
  | Fconv (Fbox c) -> Value.to_float (c r)

let[@inline] charge_n r n = r.pending <- r.pending + (n * r.lop)
let[@inline] fr r d = r.floats.(d)
let[@inline] idiv x y = if y = 0 then error "division by zero" else x / y
let[@inline] imod x y = if y = 0 then error "division by zero" else x mod y
let[@inline] fdiv x y = if y = 0.0 then error "division by zero" else x /. y

(* [c] is -1, 0 or 1: whether bit [c + 1] of [mask] is set *)
let[@inline] holds mask c = (mask lsr (c + 1)) land 1 = 1
let[@inline] icmp mask (x : int) y = holds mask (compare x y)
let[@inline] ikeep mask (x : int) y = if icmp mask x y then x else y

(* the kept one of two encoded floats, compared as numbers *)
let[@inline] fkeep mask (x : float) y =
  let a = num x and b = num y in
  if holds mask (Float.compare a b) then x else y

let compare_mask = function
  | Ast.Lt -> 0b001
  | Ast.Le -> 0b011
  | Ast.Gt -> 0b100
  | Ast.Ge -> 0b110
  | Ast.Eq -> 0b010
  | _ -> 0b101

(* [min] keeps its left operand where it compares <= 0, [max] >= 0 *)
let min_max_mask f = if f = "min" then 0b011 else 0b110

(* the [ileaf] kind and payload of an int leaf *)
let int_leaf env (e : Ast.expr) =
  match e with
  | Ast.Eint i -> Some (0, i)
  | Ast.Evar name -> (
      match slot env name with
      | Some i -> if slot_type env name = Tint then Some (1, i) else None
      | None -> (
          if name = "pid" then Some (2, 0)
          else if name = "nprocs" then Some (0, env.machine.Machine.nodes)
          else
            match List.assoc_opt name env.consts with
            | Some (Value.Vint i) -> Some (0, i)
            | Some (Value.Vfloat _) | None -> None))
  | _ -> None

(* the [fleaf] kind and payloads of a leaf in float arithmetic; with
   [~num:false] a float-or-zero slot keeps its encoding *)
let float_leaf env ~num:as_num (e : Ast.expr) =
  match (int_leaf env e, e) with
  | Some (0, i), _ -> Some (0, 0, float_of_int i)
  | Some (k, x), _ -> Some (k + 2, x, 0.0)
  | None, Ast.Efloat f -> Some (0, 0, f)
  | None, Ast.Evar name -> (
      match (slot env name, List.assoc_opt name env.consts) with
      | Some i, _ -> (
          match slot_type env name with
          | Tfloat -> Some (1, i, 0.0)
          | Tfz -> Some ((if as_num then 2 else 1), i, 0.0)
          | Tnone | Tint | Tbox -> None)
      | None, Some (Value.Vfloat f) -> Some (0, 0, f)
      | None, _ -> None)
  | None, _ -> None

(* ---- affine subscripts ----

   A pure int tree of [+], [-] and [*] (and unary [-]) over int leaves,
   with a constant side to every product, is [c + a1·x1 + a2·x2 +
   ap·pid] for at most two int slots [x1] and [x2]; a missing term has
   coefficient 0 and reads slot 0, which every frame has. OCaml ints
   wrap, so the form equals the tree's value mod 2⁶³. An array access
   reads such a subscript inline (a lone leaf too), and any other int
   operator takes it as one closure. Its [n] AST nodes charge [n·lop] at
   once, where the tree walk evaluates the tree: the tree makes no shared
   access, runs no directive, makes no call and does not yield. [/] and
   [%] never fold, so their zero checks stay where they are; boxed and
   unproven slots are not int leaves, so their reads keep their errors. *)
type affine = {
  c : int;
  a1 : int;
  s1 : int;
  a2 : int;
  s2 : int;
  ap : int;
  n : int;
}

let[@inline] affine_at r f =
  f.c + (f.a1 * r.ints.(f.s1)) + (f.a2 * r.ints.(f.s2)) + (f.ap * r.node)

(* An int tree's normal form, built bottom up once per tree: [Lin (c,
   terms, n)] is [c] plus [a·x] over its [terms] (an int slot [x], or -1
   for [pid], with coefficient [a]), in [n] nodes. A [+], [-], [*] or
   unary [-] that is not linear keeps its operands' forms in [Split], so
   compiling the operands does not normalise them again; [Other] is any
   other tree, or a form not worked out yet. *)
type norm = Lin of int * (int * int) list * int | Split of norm * norm | Other

let rec normalise env (e : Ast.expr) =
  let scale k = List.map (fun (x, a) -> (x, k * a)) in
  let sum f a b =
    match (normalise env a, normalise env b) with
    | Lin (c, ts, n), Lin (c', ts', n') ->
        let add ts (x, a') =
          match List.assoc x ts with
          | a -> (x, f a a') :: List.remove_assoc x ts
          | exception Not_found -> (x, f 0 a') :: ts
        in
        Lin (f c c', List.fold_left add ts ts', n + n' + 1)
    | na, nb -> Split (na, nb)
  in
  match e with
  | Ast.Ebinop (Ast.Add, a, b) -> sum ( + ) a b
  | Ast.Ebinop (Ast.Sub, a, b) -> sum ( - ) a b
  | Ast.Ebinop (Ast.Mul, a, b) -> (
      match (normalise env a, normalise env b) with
      | Lin (k, [], n), Lin (c, ts, n') | Lin (c, ts, n), Lin (k, [], n') ->
          Lin (k * c, scale k ts, n + n' + 1)
      | na, nb -> Split (na, nb))
  | Ast.Eunop (Ast.Neg, a) -> (
      match normalise env a with
      | Lin (c, ts, n) -> Lin (-c, scale (-1) ts, n + 1)
      | na -> Split (na, Other))
  | _ -> (
      match int_leaf env e with
      | Some (0, v) -> Lin (v, [], 1)
      | Some (1, x) -> Lin (0, [ (x, 1) ], 1)
      | Some (_, _) -> Lin (0, [ (-1, 1) ], 1)
      | None -> Other)

let affine = function
  | Lin (c, ts, n) -> (
      let ap = Option.value ~default:0 (List.assoc_opt (-1) ts) in
      match List.filter (fun (x, a) -> x >= 0 && a <> 0) ts with
      | [] -> Some { c; a1 = 0; s1 = 0; a2 = 0; s2 = 0; ap; n }
      | [ (s1, a1) ] -> Some { c; a1; s1; a2 = 0; s2 = 0; ap; n }
      | [ (s1, a1); (s2, a2) ] -> Some { c; a1; s1; a2; s2; ap; n }
      | _ -> None)
  | Split _ | Other -> None

(* ---- folded operators: one closure per operand shape ---- *)

(* int [+ - * / %]; the operands of an int operator are never converted,
   and a sum or difference of two leaves is affine, so it never gets
   here *)
let int_binop (op : Ast.binop) oa ob : cint =
  match (op, oa, ob) with
  | Ast.Add, Ileaf (k, x), Iint cb ->
      fun r -> charge_n r 2; let y = cb r in ileaf r k x + y
  | Ast.Add, Iint ca, Ileaf (k, x) ->
      fun r -> charge r; let y = ca r in charge r; y + ileaf r k x
  | Ast.Add, Iint ca, Iint cb -> fun r -> charge r; let x = ca r in x + cb r
  | Ast.Sub, Ileaf (k, x), Iint cb ->
      fun r -> charge_n r 2; let y = cb r in ileaf r k x - y
  | Ast.Sub, Iint ca, Ileaf (k, x) ->
      fun r -> charge r; let y = ca r in charge r; y - ileaf r k x
  | Ast.Sub, Iint ca, Iint cb -> fun r -> charge r; let x = ca r in x - cb r
  | Ast.Mul, Ileaf (k, x), Ileaf (k', x') ->
      fun r -> charge_n r 3; ileaf r k x * ileaf r k' x'
  | Ast.Mul, Ileaf (k, x), Iint cb ->
      fun r -> charge_n r 2; let y = cb r in ileaf r k x * y
  | Ast.Mul, Iint ca, Ileaf (k, x) ->
      fun r -> charge r; let y = ca r in charge r; y * ileaf r k x
  | Ast.Mul, Iint ca, Iint cb -> fun r -> charge r; let x = ca r in x * cb r
  | Ast.Div, Ileaf (k, x), Ileaf (k', x') ->
      fun r -> charge_n r 3; idiv (ileaf r k x) (ileaf r k' x')
  | Ast.Div, Ileaf (k, x), Iint cb ->
      fun r -> charge_n r 2; let y = cb r in idiv (ileaf r k x) y
  | Ast.Div, Iint ca, Ileaf (k, x) ->
      fun r -> charge r; let y = ca r in charge r; idiv y (ileaf r k x)
  | Ast.Div, Iint ca, Iint cb ->
      fun r -> charge r; let x = ca r in idiv x (cb r)
  | Ast.Mod, _, _ -> fun r -> charge r; let x = iget r oa in imod x (iget r ob)
  | _ -> assert false

(* int [min]/[max], with [m] from [min_max_mask] *)
let int_min_max m oa ob : cint =
  fun r -> charge r; let x = iget r oa in ikeep m x (iget r ob)

(* int comparisons, with [m] from [compare_mask] *)
let int_compare m oa ob : cbool =
  match (oa, ob) with
  | Ileaf (k, x), Ileaf (k', x') ->
      fun r -> charge_n r 3; icmp m (ileaf r k x) (ileaf r k' x')
  | Ileaf (k, x), Iint cb ->
      fun r -> charge_n r 2; let y = cb r in icmp m (ileaf r k x) y
  | Iint ca, Ileaf (k, x) ->
      fun r -> charge r; let y = ca r in charge r; icmp m y (ileaf r k x)
  | Iint ca, Iint cb -> fun r -> charge r; let x = ca r in icmp m x (cb r)
  | _ -> assert false

(* Float [+ - * /] on numbers, or [+ - *] on encodings ([~fz]), into
   register [d]; a float subtree operand writes [d] or [d + 1]. A float
   that an inlined function returns through a branch is bound by [let]
   before it is passed on, or it would be boxed. *)
let float_binop ~d (op : Ast.binop) ~fz oa ob : cfloat =
  match (op, fz, oa, ob) with
  | Ast.Add, false, Fleaf (k, x, f), Fleaf (k', x', f') ->
      fun r -> charge_n r 3; r.floats.(d) <- fleaf r k x f +. fleaf r k' x' f'
  | Ast.Add, false, Fleaf (k, x, f), Ffloat cb ->
      fun r -> charge_n r 2; cb r; r.floats.(d) <- fleaf r k x f +. fr r (d + 1)
  | Ast.Add, false, Ffloat ca, Fleaf (k, x, f) ->
      fun r -> charge r; ca r; charge r; r.floats.(d) <- fr r d +. fleaf r k x f
  | Ast.Add, false, Ffloat ca, Ffloat cb ->
      fun r -> charge r; ca r; cb r; r.floats.(d) <- fr r d +. fr r (d + 1)
  | Ast.Add, false, _, _ ->
      fun r ->
        charge r;
        let x = fget r d oa in
        r.floats.(d) <- x +. fget r (d + 1) ob
  | Ast.Sub, false, Fleaf (k, x, f), Fleaf (k', x', f') ->
      fun r -> charge_n r 3; r.floats.(d) <- fleaf r k x f -. fleaf r k' x' f'
  | Ast.Sub, false, Fleaf (k, x, f), Ffloat cb ->
      fun r -> charge_n r 2; cb r; r.floats.(d) <- fleaf r k x f -. fr r (d + 1)
  | Ast.Sub, false, Ffloat ca, Fleaf (k, x, f) ->
      fun r -> charge r; ca r; charge r; r.floats.(d) <- fr r d -. fleaf r k x f
  | Ast.Sub, false, Ffloat ca, Ffloat cb ->
      fun r -> charge r; ca r; cb r; r.floats.(d) <- fr r d -. fr r (d + 1)
  | Ast.Sub, false, _, _ ->
      fun r ->
        charge r;
        let x = fget r d oa in
        r.floats.(d) <- x -. fget r (d + 1) ob
  | Ast.Mul, false, Fleaf (k, x, f), Fleaf (k', x', f') ->
      fun r -> charge_n r 3; r.floats.(d) <- fleaf r k x f *. fleaf r k' x' f'
  | Ast.Mul, false, Fleaf (k, x, f), Ffloat cb ->
      fun r -> charge_n r 2; cb r; r.floats.(d) <- fleaf r k x f *. fr r (d + 1)
  | Ast.Mul, false, Ffloat ca, Fleaf (k, x, f) ->
      fun r -> charge r; ca r; charge r; r.floats.(d) <- fr r d *. fleaf r k x f
  | Ast.Mul, false, Ffloat ca, Ffloat cb ->
      fun r -> charge r; ca r; cb r; r.floats.(d) <- fr r d *. fr r (d + 1)
  | Ast.Mul, false, _, _ ->
      fun r ->
        charge r;
        let x = fget r d oa in
        r.floats.(d) <- x *. fget r (d + 1) ob
  | Ast.Div, false, Fleaf (k, x, f), Fleaf (k', x', f') ->
      fun r ->
        charge_n r 3;
        let a = fleaf r k x f and b = fleaf r k' x' f' in
        r.floats.(d) <- fdiv a b
  | Ast.Div, false, Fleaf (k, x, f), Ffloat cb ->
      fun r ->
        charge_n r 2; cb r;
        let a = fleaf r k x f in
        r.floats.(d) <- fdiv a (fr r (d + 1))
  | Ast.Div, false, Ffloat ca, Fleaf (k, x, f) ->
      fun r ->
        charge r; ca r; charge r;
        let b = fleaf r k x f in
        r.floats.(d) <- fdiv (fr r d) b
  | Ast.Div, false, Ffloat ca, Ffloat cb ->
      fun r ->
        charge r; ca r; cb r;
        r.floats.(d) <- fdiv (fr r d) (fr r (d + 1))
  | Ast.Div, false, _, _ ->
      fun r ->
        charge r;
        let a = fget r d oa in
        let b = fget r (d + 1) ob in
        r.floats.(d) <- fdiv a b
  | Ast.Mod, false, _, _ ->
      fun r ->
        charge r;
        let a = fget r d oa in
        let b = fget r (d + 1) ob in
        r.floats.(d) <- Float.rem a b
  (* an encoding's operands are [Tfz]: a slot or a subtree *)
  | Ast.Add, true, Ffloat ca, Ffloat cb ->
      fun r ->
        charge r; ca r; cb r;
        r.floats.(d) <- fz_add (fr r d) (fr r (d + 1))
  | Ast.Sub, true, Ffloat ca, Ffloat cb ->
      fun r ->
        charge r; ca r; cb r;
        r.floats.(d) <- fz_sub (fr r d) (fr r (d + 1))
  | Ast.Mul, true, Ffloat ca, Ffloat cb ->
      fun r ->
        charge r; ca r; cb r;
        r.floats.(d) <- fz_mul (fr r d) (fr r (d + 1))
  | Ast.Add, true, _, _ ->
      fun r ->
        charge r;
        let x = fget r d oa in
        let y = fget r (d + 1) ob in
        r.floats.(d) <- fz_add x y
  | Ast.Sub, true, _, _ ->
      fun r ->
        charge r;
        let x = fget r d oa in
        let y = fget r (d + 1) ob in
        r.floats.(d) <- fz_sub x y
  | Ast.Mul, true, _, _ ->
      fun r ->
        charge r;
        let x = fget r d oa in
        let y = fget r (d + 1) ob in
        r.floats.(d) <- fz_mul x y
  | _ -> assert false

(* float comparisons, with [m] from [compare_mask] *)
let float_compare ~d m oa ob : cbool =
  match (oa, ob) with
  | Fleaf (k, x, f), Fleaf (k', x', f') ->
      fun r ->
        charge_n r 3;
        holds m (Float.compare (fleaf r k x f) (fleaf r k' x' f'))
  | Fleaf (k, x, f), Ffloat cb ->
      fun r ->
        charge_n r 2; cb r;
        holds m (Float.compare (fleaf r k x f) (fr r (d + 1)))
  | Ffloat ca, Fleaf (k, x, f) ->
      fun r ->
        charge r; ca r; charge r;
        holds m (Float.compare (fr r d) (fleaf r k x f))
  | Ffloat ca, Ffloat cb ->
      fun r ->
        charge r; ca r; cb r;
        holds m (Float.compare (fr r d) (fr r (d + 1)))
  | _ ->
      fun r ->
        charge r;
        let x = fget r d oa in
        holds m (Float.compare x (fget r (d + 1) ob))

(* float [min]/[max] into register [d], with [m] from [min_max_mask]; the
   result keeps its encoding *)
let float_min_max ~d m oa ob : cfloat =
  match (oa, ob) with
  | Ffloat ca, Ffloat cb ->
      fun r ->
        charge r; ca r; cb r;
        r.floats.(d) <- fkeep m (fr r d) (fr r (d + 1))
  | _ ->
      fun r ->
        charge r;
        let x = fget r d oa in
        let y = fget r (d + 1) ob in
        r.floats.(d) <- fkeep m x y

(* A boxed read of a variable. *)
let compile_var env ~pc name : cexpr =
  match array_ref env name with
  | Some _ ->
      (* sema rejects this; defensive *)
      fun _ -> error "array %S used without a subscript" name
  | None -> (
      (* what the name means outside the procedure, as in
         [Interp.lookup_var]: a constant (which a loop variable may
         shadow), or nothing *)
      let outside () =
        match List.assoc_opt name env.consts with
        | Some v -> v
        | None -> error "undefined variable %S" name
      in
      match slot env name with
      | Some i -> (
          match slot_type env name with
          | Tint -> fun r -> charge r; Value.Vint r.ints.(i)
          | Tfloat -> fun r -> charge r; Value.Vfloat r.floats.(i)
          | Tfz -> fun r -> charge r; box_fz r.floats.(i)
          | Tnone | Tbox ->
              if Hashtbl.mem env.cur.unproven (pc, name) then fun r ->
                charge r;
                let v = r.vals.(i) in
                if v == unassigned then outside () else v
              else fun r -> charge r; r.vals.(i))
      | None ->
          if name = "pid" then fun r -> charge r; Value.Vint r.node
          else if name = "nprocs" then
            fun r -> charge r; Value.Vint r.machine.Machine.nodes
          else (
            match List.assoc_opt name env.consts with
            | Some v -> fun r -> charge r; v
            | None -> fun _ -> error "undefined variable %S" name))

let[@inline] bread r name size id i =
  check_private_index name size i;
  count_private_read r;
  r.privates.(id).(i)

let[@inline] fread r name size id i =
  check_private_index name size i;
  count_private_read r;
  r.fprivates.(id).(i)

let[@inline] bstore r name size id i v =
  check_private_index name size i;
  count_private_write r;
  r.privates.(id).(i) <- v

(* the value is in register [d] *)
let[@inline] fstore r name size id i d =
  check_private_index name size i;
  count_private_write r;
  r.fprivates.(id).(i) <- r.floats.(d)

let rec compile_expr env ~pc ~d (e : Ast.expr) : cexpr =
  match e with
  | Ast.Eint i ->
      let v = Value.Vint i in
      fun r -> charge r; v
  | Ast.Efloat f ->
      let v = Value.Vfloat f in
      fun r -> charge r; v
  | Ast.Evar name -> compile_var env ~pc name
  | _ -> (
      (* typed trees box once, at the root *)
      match type_of env e with
      | Tint ->
          let ci = compile_int env ~pc ~d e in
          fun r -> Value.Vint (ci r)
      | Tfloat ->
          let cf = compile_float env ~pc ~d ~num:true e in
          fun r -> cf r; Value.Vfloat r.floats.(d)
      | Tfz ->
          let cf = compile_float env ~pc ~d ~num:false e in
          fun r -> cf r; box_fz r.floats.(d)
      | Tnone | Tbox -> compile_boxed env ~pc ~d e)

(* the [Value] operations, for trees no static type covers *)
and compile_boxed env ~pc ~d (e : Ast.expr) : cexpr =
  match e with
  | Ast.Eindex (name, idx) -> (
      let read = Memsys.Protocol.read_p in
      let norm = normalise env idx in
      match (array_ref env name, affine norm) with
      | Some (Ashared a), Some f ->
          let n = f.n + 1 in
          fun r ->
            charge_n r n;
            r.shared.(shared_access r ~pc a (affine_at r f) read)
      | Some (Ashared a), None ->
          let o = compile_index ~norm env ~pc ~d idx in
          fun r -> charge r; r.shared.(shared_access r ~pc a (iget r o) read)
      | Some (Aboxed (id, size)), Some f ->
          let n = f.n + 1 in
          fun r -> charge_n r n; bread r name size id (affine_at r f)
      | Some (Aboxed (id, size)), None ->
          let o = compile_index ~norm env ~pc ~d idx in
          fun r -> charge r; bread r name size id (iget r o)
      | Some (Afloat _), _ -> assert false (* [Tfz] *)
      | None, _ -> fun _ -> error "subscript of non-array %S" name)
  | Ast.Ebinop (op, a, b) -> (
      let ca = compile_expr env ~pc ~d a and cb = compile_expr env ~pc ~d b in
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
          assert false (* [Tint] *))
  | Ast.Eunop (Ast.Neg, a) ->
      let ca = compile_expr env ~pc ~d a in
      fun r -> charge r; Value.neg (ca r)
  | Ast.Ecall ("min", [ a; b ]) ->
      let ca = compile_expr env ~pc ~d a and cb = compile_expr env ~pc ~d b in
      fun r ->
        charge r;
        let va = ca r in
        let vb = cb r in
        if Value.compare_num va vb <= 0 then va else vb
  | Ast.Ecall ("max", [ a; b ]) ->
      let ca = compile_expr env ~pc ~d a and cb = compile_expr env ~pc ~d b in
      fun r ->
        charge r;
        let va = ca r in
        let vb = cb r in
        if Value.compare_num va vb >= 0 then va else vb
  | Ast.Ecall ("abs", [ a ]) -> (
      let ca = compile_expr env ~pc ~d a in
      fun r ->
        charge r;
        match ca r with
        | Value.Vint i -> Value.Vint (abs i)
        | Value.Vfloat f -> Value.Vfloat (Float.abs f))
  | Ast.Ecall (name, args) ->
      let call = compile_call env ~pc ~d name args in
      fun r -> charge r; call r
  | Ast.Eint _ | Ast.Efloat _ | Ast.Evar _ | Ast.Eunop (Ast.Not, _) ->
      assert false (* [compile_expr] *)

(* precondition: [type_of env e = Tint] *)
and compile_int ?norm env ~pc ~d (e : Ast.expr) : cint =
  let norm =
    match (norm, e) with
    | Some ((Lin _ | Split _) as norm), _ -> norm
    | _, (Ast.Ebinop _ | Ast.Eunop _) -> normalise env e
    | _ -> Other
  in
  match (e, affine norm) with
  | (Ast.Ebinop _ | Ast.Eunop _), Some f -> fun r -> charge_n r f.n; affine_at r f
  | _ -> (
  let na, nb = match norm with Split (na, nb) -> (na, nb) | _ -> (Other, Other) in
  match e with
  | Ast.Eint _ | Ast.Evar _ -> (
      match int_leaf env e with
      | Some (k, x) -> fun r -> charge r; ileaf r k x
      | None -> assert false)
  | Ast.Ebinop
      ( ( Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne | Ast.And
        | Ast.Or ),
        _,
        _ )
  | Ast.Eunop (Ast.Not, _) ->
      let cb = compile_bool env ~pc ~d e in
      fun r -> if cb r then 1 else 0
  | Ast.Ebinop (op, a, b) ->
      let oa = compile_index ~norm:na env ~pc ~d a
      and ob = compile_index ~norm:nb env ~pc ~d b in
      int_binop op oa ob
  | Ast.Eunop (Ast.Neg, a) ->
      let ca = compile_int ~norm:na env ~pc ~d a in
      fun r -> charge r; -ca r
  | Ast.Ecall ("int", [ a ]) ->
      let oa = compile_index env ~pc ~d a in
      fun r -> charge r; iget r oa
  | Ast.Ecall ("abs", [ a ]) ->
      let ca = compile_int env ~pc ~d a in
      fun r -> charge r; abs (ca r)
  | Ast.Ecall ((("min" | "max") as f), [ a; b ]) ->
      let oa = compile_index env ~pc ~d a and ob = compile_index env ~pc ~d b in
      int_min_max (min_max_mask f) oa ob
  | Ast.Efloat _ | Ast.Eindex _ | Ast.Ecall _ -> assert false)

(* Precondition: [type_of env e] is [Tfloat] or [Tfz]. Writes the value
   into register [d], encoded (see [fz_zero]) or, with [~num:true], as
   [Value.to_float] of it. *)
and compile_float env ~pc ~d ~num:as_num (e : Ast.expr) : cfloat =
  reg env d;
  match e with
  | Ast.Efloat _ | Ast.Evar _ -> (
      match float_leaf env ~num:as_num e with
      | Some (k, x, f) -> fun r -> charge r; r.floats.(d) <- fleaf r k x f
      | None -> assert false)
  | Ast.Eindex (name, idx) -> (
      let norm = normalise env idx in
      match (array_ref env name, affine norm, as_num) with
      | Some (Afloat (id, size)), Some f, true ->
          let n = f.n + 1 in
          fun r ->
            charge_n r n;
            let v = fread r name size id (affine_at r f) in
            r.floats.(d) <- num v
      | Some (Afloat (id, size)), Some f, false ->
          let n = f.n + 1 in
          fun r ->
            charge_n r n;
            r.floats.(d) <- fread r name size id (affine_at r f)
      | Some (Afloat (id, size)), None, true ->
          let o = compile_index ~norm env ~pc ~d idx in
          fun r ->
            charge r;
            let v = fread r name size id (iget r o) in
            r.floats.(d) <- num v
      | Some (Afloat (id, size)), None, false ->
          let o = compile_index ~norm env ~pc ~d idx in
          fun r -> charge r; r.floats.(d) <- fread r name size id (iget r o)
      | (Some (Ashared _ | Aboxed _) | None), _, _ -> assert false)
  | Ast.Ebinop (op, a, b) ->
      (* both operands of a [Tfz] node are [Tfz]; as numbers, the node is
         plain float arithmetic *)
      let num = as_num || type_of env e <> Tfz in
      let oa = compile_num ~num env ~pc ~d a
      and ob = compile_num ~num env ~pc ~d:(d + 1) b in
      float_binop ~d op ~fz:(not num) oa ob
  | Ast.Eunop (Ast.Neg, a) ->
      if type_of env a = Tfz then begin
        (* [-(Vint 0)] is the int 0, whose number is +0, not -0 *)
        let ca = compile_float env ~pc ~d ~num:false a in
        let zero = if as_num then 0.0 else fz_zero in
        fun r ->
          charge r; ca r;
          let fl = r.floats in
          let x = fl.(d) in
          fl.(d) <- (if is_fz_zero x then zero else -.x)
      end
      else begin
        let ca = compile_float env ~pc ~d ~num:true a in
        fun r -> charge r; ca r; let fl = r.floats in fl.(d) <- -.fl.(d)
      end
  | Ast.Ecall ("abs", [ a ]) ->
      (* [Float.abs] clears the sign bit only, and [fz_zero]'s is clear *)
      let ca = compile_float env ~pc ~d ~num:as_num a in
      fun r ->
        charge r; ca r;
        let fl = r.floats in
        fl.(d) <- Float.abs fl.(d)
  | Ast.Ecall (("sqrt" | "sin" | "cos" | "floor" | "float") as f, [ a ]) -> (
      let oa = compile_num env ~pc ~d a in
      match f with
      | "sqrt" -> fun r -> charge r; r.floats.(d) <- sqrt (fget r d oa)
      | "sin" -> fun r -> charge r; r.floats.(d) <- sin (fget r d oa)
      | "cos" -> fun r -> charge r; r.floats.(d) <- cos (fget r d oa)
      | "floor" -> fun r -> charge r; r.floats.(d) <- Float.floor (fget r d oa)
      | _ -> fun r -> charge r; r.floats.(d) <- fget r d oa)
  | Ast.Ecall ("noise", [ a ]) ->
      let oa = compile_index env ~pc ~d a in
      fun r -> charge r; r.floats.(d) <- Interp.noise (iget r oa)
  | Ast.Ecall ((("min" | "max") as f), [ a; b ]) ->
      let oa = compile_num ~num:as_num env ~pc ~d a
      and ob = compile_num ~num:as_num env ~pc ~d:(d + 1) b in
      float_min_max ~d (min_max_mask f) oa ob
  | Ast.Eint _ | Ast.Eunop (Ast.Not, _) | Ast.Ecall _ -> assert false

(* [Value.to_float] of any expression as an operand, or, with
   [~num:false], the encoding of a [Tfloat] or [Tfz] one; a subtree
   writes register [d] *)
and compile_num ?(num = true) env ~pc ~d (e : Ast.expr) : fopnd =
  match float_leaf env ~num e with
  | Some (k, x, f) -> Fleaf (k, x, f)
  | None -> (
      match type_of env e with
      | Tint -> Fconv (Fint (compile_int env ~pc ~d e))
      | Tfloat | Tfz -> Ffloat (compile_float env ~pc ~d ~num e)
      | Tnone | Tbox -> Fconv (Fbox (compile_expr env ~pc ~d e)))

(* the encoding of an expression stored in float storage; a [Tnone] one
   never completes, so its boxed value's encoding never matters *)
and compile_fz env ~pc ~d (e : Ast.expr) : cfloat =
  match type_of env e with
  | Tfloat | Tfz -> compile_float env ~pc ~d ~num:false e
  | Tnone | Tint | Tbox ->
      reg env d;
      let ce = compile_expr env ~pc ~d e in
      fun r -> r.floats.(d) <- unbox_fz (ce r)

(* Conditions: comparisons and logic yield [bool] directly, so a loop or
   branch test never boxes or goes through 0/1. *)
and compile_bool env ~pc ~d (e : Ast.expr) : cbool =
  match e with
  | Ast.Ebinop
      (((Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne) as op), a, b)
    -> (
      match (type_of env a, type_of env b) with
      | Tint, Tint ->
          let oa = compile_index env ~pc ~d a
          and ob = compile_index env ~pc ~d b in
          int_compare (compare_mask op) oa ob
      | (Tint | Tfloat | Tfz), (Tint | Tfloat | Tfz) ->
          (* not both ints: [Value.compare_num] compares the numbers *)
          let oa = compile_num env ~pc ~d a
          and ob = compile_num env ~pc ~d:(d + 1) b in
          float_compare ~d (compare_mask op) oa ob
      | _ -> (
          let ca = compile_expr env ~pc ~d a and cb = compile_expr env ~pc ~d b in
          match op with
          | Ast.Lt ->
              fun r -> charge r; let va = ca r in Value.compare_num va (cb r) < 0
          | Ast.Le ->
              fun r ->
                charge r; let va = ca r in Value.compare_num va (cb r) <= 0
          | Ast.Gt ->
              fun r -> charge r; let va = ca r in Value.compare_num va (cb r) > 0
          | Ast.Ge ->
              fun r ->
                charge r; let va = ca r in Value.compare_num va (cb r) >= 0
          | Ast.Eq -> fun r -> charge r; let va = ca r in Value.equal va (cb r)
          | _ ->
              fun r -> charge r; let va = ca r in not (Value.equal va (cb r))))
  | Ast.Ebinop (Ast.And, a, b) ->
      let ba = compile_bool env ~pc ~d a and bb = compile_bool env ~pc ~d b in
      fun r -> charge r; ba r && bb r
  | Ast.Ebinop (Ast.Or, a, b) ->
      let ba = compile_bool env ~pc ~d a and bb = compile_bool env ~pc ~d b in
      fun r -> charge r; ba r || bb r
  | Ast.Eunop (Ast.Not, a) ->
      let ba = compile_bool env ~pc ~d a in
      fun r -> charge r; not (ba r)
  | _ -> (
      match type_of env e with
      | Tint ->
          let ci = compile_int env ~pc ~d e in
          fun r -> ci r <> 0
      | Tfloat | Tfz ->
          (* [Value.to_bool]: -0 is false, NaN true *)
          let o = compile_num env ~pc ~d e in
          fun r -> fget r d o <> 0.0
      | Tnone | Tbox ->
          let ce = compile_expr env ~pc ~d e in
          fun r -> Value.to_bool (ce r))

(* [Value.to_int] of any expression as an operand: subscripts, lock ids,
   [int] *)
and compile_index ?norm env ~pc ~d (e : Ast.expr) : iopnd =
  match int_leaf env e with
  | Some (k, x) -> Ileaf (k, x)
  | None -> (
      match type_of env e with
      | Tint -> Iint (compile_int ?norm env ~pc ~d e)
      | Tfloat | Tfz -> Iconv (Ifloat (d, compile_float env ~pc ~d ~num:true e))
      | Tnone | Tbox -> Iconv (Ibox (compile_expr env ~pc ~d e)))

(* A user procedure call; arguments and the result are boxed. Calls in
   statement position are not charged as an expression node. *)
and compile_call env ~pc ~d name args : cexpr =
  let cargs = Array.of_list (List.map (compile_expr env ~pc ~d) args) in
  let nargs = Array.length cargs in
  (* the callee is resolved here; its frame sizes and [cbody] are read
     at call time because a callee may be compiled after its caller *)
  match Hashtbl.find_opt env.procs name with
  | Some cp when cp.arity = nargs ->
      fun r ->
        let vals = Array.make (max 1 cp.nslots) unassigned in
        for i = 0 to nargs - 1 do
          vals.(i) <- cargs.(i) r
        done;
        let caller_vals = r.vals
        and caller_ints = r.ints
        and caller_floats = r.floats in
        r.vals <- vals;
        r.ints <- Array.make (max 1 cp.nslots) 0;
        r.floats <- Array.make (max 1 cp.nfloats) 0.0;
        let restore () =
          r.vals <- caller_vals;
          r.ints <- caller_ints;
          r.floats <- caller_floats
        in
        (match cp.cbody r with
        | () -> restore (); Value.zero
        | exception Returning v ->
            restore (); Option.value ~default:Value.zero v)
  | found ->
      (* sema rejects both; the arguments still run first, as in a
         well-formed call *)
      fun r ->
        Array.iter (fun c -> ignore (c r)) cargs;
        (match found with
        | None -> error "call of unknown procedure %S" name
        | Some cp ->
            error "procedure %S called with %d argument(s), expects %d" name
              nargs cp.arity)

(* ---- statement compilation ---- *)

(* ---- directives ----

   A directive runs its kind's protocol entry point once per block of
   each range, clipped to the array, with all its arguments: nothing is
   allocated. The machine fixes before compiling whether it runs. *)

let[@inline] directive_range (r : rt) (entry : Label.entry) directive lo hi =
  let lo = if lo < 0 then 0 else lo
  and hi = if hi >= entry.Label.elems then entry.Label.elems - 1 else hi in
  if lo <= hi then begin
    let es = entry.Label.elem_size and bs = r.machine.Machine.block_size in
    for blk = (entry.Label.base + (lo * es)) / bs
        to (entry.Label.base + (hi * es) + es - 1) / bs do
      let lat =
        directive r.proto ~node:r.node ~addr:(blk * bs) ~now:(virtual_now r)
      in
      r.pending <- r.pending + lat
    done
  end

let rec directive_ranges r entry directive = function
  | [] -> ()
  | (lo, hi) :: rest ->
      directive_range r entry directive lo hi;
      directive_ranges r entry directive rest

(* the array's entry and the protocol's entry point, if the directive
   runs *)
let directive env (kind : Ast.annot_kind) arr =
  let m = env.machine in
  match Label.find_array env.genv_layout arr with
  | None -> Error arr
  | Some _ when m.Machine.annotations = Machine.Ignore_annotations -> Ok None
  | Some entry -> (
      match kind with
      | Ast.Check_out_x -> Ok (Some (entry, Memsys.Protocol.check_out_x_lat))
      | Ast.Check_out_s -> Ok (Some (entry, Memsys.Protocol.check_out_s_lat))
      | Ast.Check_in -> Ok (Some (entry, Memsys.Protocol.check_in_lat))
      | Ast.Post_store -> Ok (Some (entry, Memsys.Protocol.post_store_lat))
      | (Ast.Prefetch_x | Ast.Prefetch_s) when not m.Machine.prefetch -> Ok None
      | Ast.Prefetch_x -> Ok (Some (entry, Memsys.Protocol.prefetch_x_lat))
      | Ast.Prefetch_s -> Ok (Some (entry, Memsys.Protocol.prefetch_s_lat)))

(* a boxed value into a slot of any type; the typing guarantees it fits *)
let store_boxed env name : rt -> Value.t -> unit =
  let i = Hashtbl.find env.cur.slots name in
  match slot_type env name with
  | Tint -> fun r v -> r.ints.(i) <- Value.to_int v
  | Tfloat | Tfz -> fun r v -> r.floats.(i) <- unbox_fz v
  | Tnone | Tbox -> fun r v -> r.vals.(i) <- v

(* ---- private loops ----

   Code is private when no other node can see what it does: no
   shared-array access, annotation, [print], barrier, lock, unlock or
   user-procedure call; intrinsics, scalars and private arrays only. The
   statements inside a private loop yield with [maybe_yield_ahead], so
   the node runs on ahead of the scheduler until it catches up before an
   operation another node can see. Nothing else runs ahead: a node that
   caught up right after it went ahead would pay for both. *)

let private_array env name =
  match array_ref env name with
  | Some (Aboxed _ | Afloat _) -> true
  | Some (Ashared _) | None -> false

let rec private_expr env (e : Ast.expr) =
  match e with
  | Ast.Eint _ | Ast.Efloat _ | Ast.Evar _ -> true
  | Ast.Eindex (name, i) -> private_array env name && private_expr env i
  | Ast.Eunop (_, a) -> private_expr env a
  | Ast.Ebinop (_, a, b) -> private_expr env a && private_expr env b
  | Ast.Ecall (name, args) ->
      List.mem_assoc name Sema.intrinsics
      && List.for_all (private_expr env) args

let rec private_stmt env (s : Ast.stmt) =
  let pe = private_expr env and pb = List.for_all (private_stmt env) in
  match s.Ast.node with
  | Ast.Sassign (Ast.Lvar _, e) -> pe e
  | Ast.Sassign (Ast.Lindex (name, i), e) ->
      private_array env name && pe i && pe e
  | Ast.Sif (c, b1, b2) -> pe c && pb b1 && pb b2
  | Ast.Sfor { from_; to_; step; body; _ } ->
      pe from_ && pe to_ && pe step && pb body
  | Ast.Swhile (c, body) -> pe c && pb body
  | Ast.Scall (name, args) ->
      List.mem_assoc name Sema.intrinsics && List.for_all pe args
  | Ast.Sreturn e -> Option.fold ~none:true ~some:pe e
  | Ast.Sprint _ | Ast.Sbarrier | Ast.Slock _ | Ast.Sunlock _ | Ast.Sannot _
  | Ast.Sannot_table _ ->
      false

(* [ahead]: the statement is inside a private loop *)
let rec compile_stmt env ~ahead (s : Ast.stmt) : cstmt =
  let pc = s.Ast.sid in
  (* the first register; a statement holds none across its end *)
  let d = Hashtbl.length env.cur.slots in
  let is_annot = Ast.is_annotation s in
  let body : cstmt =
    match s.Ast.node with
    | Ast.Sassign (Ast.Lvar name, e) -> (
        let i = Hashtbl.find env.cur.slots name in
        match slot_type env name with
        | Tint ->
            let ci = compile_int env ~pc ~d e in
            fun r -> r.ints.(i) <- ci r
        | Tfloat | Tfz ->
            let cf = compile_fz env ~pc ~d e in
            fun r -> cf r; let fl = r.floats in fl.(i) <- fl.(d)
        | Tnone | Tbox ->
            let ce = compile_expr env ~pc ~d e in
            fun r -> r.vals.(i) <- ce r)
    | Ast.Sassign (Ast.Lindex (name, idx), e) -> (
        (* a folded subscript after the value, as the tree walk has it *)
        let norm = normalise env idx in
        match (array_ref env name, e, affine norm) with
        | ( Some (Ashared entry),
            Ast.Ebinop (Ast.Add, Ast.Eindex (name2, idx2), rest),
            fold )
          when name2 = name && idx2 = idx && Interp.simple_index idx -> (
            (* Read-modify-write accumulation (A[i] = A[i] + e): the same
               charges, in the same order, as the generic store. Only the
               protocol entry points differ. A folded subscript reads
               slots only, and [rest] cannot write them, so both halves
               use one index. *)
            let crest = compile_expr env ~pc ~d rest in
            let read = Memsys.Protocol.read_rmw_p
            and write = Memsys.Protocol.write_rmw_p in
            match fold with
            | Some f ->
                let n = f.n in
                fun r ->
                  charge_n r (n + 2);  (* the Ebinop, the inner Eindex *)
                  let i = affine_at r f in
                  let va = r.shared.(shared_access r ~pc entry i read) in
                  let v = Value.add va (crest r) in
                  charge_n r n;
                  r.shared.(shared_access r ~pc entry i write) <- v
            | None ->
                let oi = compile_index ~norm env ~pc ~d idx in
                fun r ->
                  charge_n r 2;
                  let i1 = iget r oi in
                  let va = r.shared.(shared_access r ~pc entry i1 read) in
                  let v = Value.add va (crest r) in
                  let i2 = iget r oi in
                  r.shared.(shared_access r ~pc entry i2 write) <- v)
        | Some (Ashared entry), _, fold -> (
            let ce = compile_expr env ~pc ~d e in
            let write = Memsys.Protocol.write_p in
            match fold with
            | Some f ->
                fun r ->
                  let v = ce r in
                  charge_n r f.n;
                  r.shared.(shared_access r ~pc entry (affine_at r f) write) <- v
            | None ->
                let oi = compile_index ~norm env ~pc ~d idx in
                fun r ->
                  let v = ce r in
                  let i = iget r oi in
                  r.shared.(shared_access r ~pc entry i write) <- v)
        | Some (Aboxed (id, size)), _, fold -> (
            let ce = compile_expr env ~pc ~d e in
            match fold with
            | Some f ->
                fun r ->
                  let v = ce r in
                  charge_n r f.n;
                  bstore r name size id (affine_at r f) v
            | None ->
                let oi = compile_index ~norm env ~pc ~d idx in
                fun r ->
                  let v = ce r in
                  bstore r name size id (iget r oi) v)
        | Some (Afloat (id, size)), _, fold -> (
            (* the value waits in register [d] while the index runs *)
            let cf = compile_fz env ~pc ~d e in
            match fold with
            | Some f ->
                fun r ->
                  cf r;
                  charge_n r f.n;
                  fstore r name size id (affine_at r f) d
            | None ->
                let oi = compile_index ~norm env ~pc ~d:(d + 1) idx in
                fun r ->
                  cf r;
                  fstore r name size id (iget r oi) d)
        | None, _, _ -> fun _ -> error "assignment to non-array %S" name)
    | Ast.Sif (cond, b1, b2) ->
        let cc = compile_bool env ~pc ~d cond in
        let cb1 = compile_block env ~ahead b1
        and cb2 = compile_block env ~ahead b2 in
        fun r -> if cc r then cb1 r else cb2 r
    | Ast.Sfor { var; from_; to_; step; body } ->
        let cbody =
          compile_block env ~ahead:(ahead || private_stmt env s) body
        in
        if
          List.for_all
            (fun t -> t = Tint)
            [
              slot_type env var; type_of env from_; type_of env to_;
              type_of env step;
            ]
        then begin
          (* the allocation-free common case: unboxed counter and bounds *)
          let slot = Hashtbl.find env.cur.slots var in
          let cfrom = compile_int env ~pc ~d from_ in
          let cto = compile_int env ~pc ~d to_ in
          let cstep = compile_int env ~pc ~d step in
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
          let store = store_boxed env var in
          let cfrom = compile_expr env ~pc ~d from_ in
          let cto = compile_expr env ~pc ~d to_ in
          let cstep = compile_expr env ~pc ~d step in
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
              store r !cur;
              cbody r;
              r.pending <- r.pending + 1;
              cur := Value.add !cur st
            done
        end
    | Ast.Swhile (cond, body) ->
        let cc = compile_bool env ~pc ~d cond in
        let cbody =
          compile_block env ~ahead:(ahead || private_stmt env s) body
        in
        fun r ->
          while cc r do
            cbody r
          done
    | Ast.Sbarrier ->
        fun r ->
          catch_up r;
          flush_pending r;
          Sched.barrier_sync ~pc;
          r.base_now <- Sched.now ()
    | Ast.Scall (name, args) when List.mem_assoc name Sema.intrinsics ->
        (* an intrinsic cannot fail, so only its arguments' effects
           remain *)
        let cargs = List.map (compile_expr env ~pc ~d) args in
        fun r -> List.iter (fun c -> ignore (c r)) cargs
    | Ast.Scall (name, args) ->
        let call = compile_call env ~pc ~d name args in
        fun r -> ignore (call r)
    | Ast.Sreturn None -> fun _ -> raise (Returning None)
    | Ast.Sreturn (Some e) ->
        let ce = compile_expr env ~pc ~d e in
        fun r -> raise (Returning (Some (ce r)))
    | Ast.Slock e ->
        let oi = compile_index env ~pc ~d e in
        fun r ->
          let l = iget r oi in
          catch_up r;
          flush_pending r;
          Sched.lock_acquire l;
          r.base_now <- Sched.now ();
          r.held_locks <- l :: r.held_locks
    | Ast.Sunlock e ->
        let oi = compile_index env ~pc ~d e in
        fun r ->
          let l = iget r oi in
          r.held_locks <- Interp.remove_lock l r.held_locks;
          catch_up r;
          flush_pending r;
          Sched.lock_release l;
          r.base_now <- Sched.now ()
    | Ast.Sannot (kind, { arr; lo; hi }) -> (
        let olo = compile_index env ~pc ~d lo in
        let ohi = compile_index env ~pc ~d hi in
        match directive env kind arr with
        | Ok (Some (entry, run)) ->
            fun r ->
              let lo = iget r olo in
              let hi = iget r ohi in
              catch_up r;
              directive_range r entry run lo hi
        | Ok None ->
            fun r ->
              ignore (iget r olo);
              ignore (iget r ohi);
              catch_up r
        | Error arr -> fun _ -> error "annotation on unknown shared array %S" arr)
    | Ast.Sannot_table { akind; aarr; aranges } -> (
        match directive env akind aarr with
        | Ok (Some (entry, run)) ->
            fun r ->
              catch_up r;
              if r.node < Array.length aranges then
                directive_ranges r entry run aranges.(r.node)
        | Ok None -> catch_up
        | Error arr -> fun _ -> error "annotation on unknown shared array %S" arr)
    | Ast.Sprint args ->
        let cargs = List.map (compile_expr env ~pc ~d) args in
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
          catch_up r;
          r.output_buf := line :: !(r.output_buf)
  in
  if is_annot then fun r -> charge r; body r
  else if ahead then fun r -> charge r; maybe_yield_ahead r; body r
  else fun r -> charge r; maybe_yield r; body r

(* a chain of closures, so running a block allocates nothing *)
and compile_block env ~ahead block =
  let rec chain = function
    | [] -> fun _ -> ()
    | [ s ] -> s
    | s :: rest ->
        let k = chain rest in
        fun r -> s r; k r
  in
  chain (List.map (compile_stmt env ~ahead) block)

(* ---- program compilation and execution ---- *)

let compile ~machine program =
  let info = Sema.check program in
  let layout =
    Label.layout ~block_size:machine.Machine.block_size
      ~elem_size:machine.Machine.elem_size info
  in
  let float_privates = Hashtbl.create 8 in
  List.iter
    (fun (name, _) -> Hashtbl.replace float_privates name ())
    info.Sema.privates;
  let env =
    {
      genv_layout = layout;
      machine;
      consts = info.Sema.consts;
      procs = Hashtbl.create 16;
      float_privates;
      private_refs = [];
      cur = frame_of { Ast.pname = ""; params = []; body = [] };
    }
  in
  let frames = type_program env program in
  let boxed, floats =
    List.partition
      (fun (name, _) -> not (Hashtbl.mem float_privates name))
      info.Sema.privates
  in
  env.private_refs <-
    List.mapi (fun id (name, n) -> (name, Aboxed (id, n))) boxed
    @ List.mapi (fun id (name, n) -> (name, Afloat (id, n))) floats;
  (* declare every procedure first so calls resolve in any order *)
  List.iter
    (fun (p : Ast.proc) ->
      Hashtbl.replace env.procs p.Ast.pname
        {
          arity = List.length p.Ast.params;
          nslots = 0;
          nfloats = 0;
          cbody = (fun _ -> ());
        })
    program.Ast.procs;
  List.iter
    (fun ((p : Ast.proc), f) ->
      env.cur <- f;
      let cbody = compile_block env ~ahead:false p.Ast.body in
      let cp = Hashtbl.find env.procs p.Ast.pname in
      cp.cbody <- cbody;
      cp.nslots <- Hashtbl.length f.slots;
      cp.nfloats <- cp.nslots + f.nregs)
    frames;
  (info, layout, env, boxed, floats)

let run ?poll ~machine program =
  let info, layout, env, boxed, floats = compile ~machine program in
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
  let trace_rev = ref [] in
  let output_buf = ref [] in
  if machine.Machine.collect_trace then
    List.iter
      (fun (name, lo, hi) ->
        trace_rev := Trace.Event.Label { name; lo; hi } :: !trace_rev)
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
        (fun (bnode, bpc) ->
          trace_rev := Trace.Event.Barrier { bnode; bpc; vt } :: !trace_rev)
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
        trace_rev;
        output_buf;
        node;
        privates =
          Array.of_list
            (List.map (fun (_, elems) -> Array.make elems Value.zero) boxed);
        fprivates =
          Array.of_list
            (List.map (fun (_, elems) -> Array.make elems fz_zero) floats);
        lop = machine.Machine.costs.Memsys.Network.local_op;
        quantum = machine.Machine.quantum;
        pending = 0;
        base_now = 0;
        ahead = false;
        held_locks = [];
        vals = Array.make (max 1 main.nslots) unassigned;
        ints = Array.make (max 1 main.nslots) 0;
        floats = Array.make (max 1 main.nfloats) 0.0;
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
    trace = List.rev !trace_rev;
    output = List.rev !output_buf;
    shared;
    layout;
    info;
  }

let compile_only ~machine program = ignore (compile ~machine program)
