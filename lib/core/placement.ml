module Iset = Trace.Epoch.Iset
open Lang

type anchor =
  | Before of int
  | After of int
  | Loop_begin of int
  | Loop_end of int
  | Proc_begin of string
  | Proc_end of string

type edit = { anchor : anchor; stmt : Ast.stmt }

type options = { mode : Equations.mode; prefetch : bool }

let default_options = { mode = Equations.Performance; prefetch = false }

(* The fraction of the cache an epoch-boundary placement may pin. *)
let capacity_fraction = 0.5

type plan = { edits : edit list; notes : (int * string) list }

(* ---- edit application ---- *)

let apply_edits program edits =
  let table : (anchor, Ast.stmt list ref) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun { anchor; stmt } ->
      match Hashtbl.find_opt table anchor with
      | Some cell -> cell := stmt :: !cell
      | None -> Hashtbl.add table anchor (ref [ stmt ]))
    edits;
  let get anchor =
    match Hashtbl.find_opt table anchor with Some c -> List.rev !c | None -> []
  in
  (* [map_blocks] hands over each block with its nested blocks already
     rewritten, so a loop's own insertions go around its new body. *)
  let place (s : Ast.stmt) =
    let around body =
      get (Loop_begin s.Ast.sid) @ body @ get (Loop_end s.Ast.sid)
    in
    let node =
      match s.Ast.node with
      | Ast.Sfor fl -> Ast.Sfor { fl with Ast.body = around fl.Ast.body }
      | Ast.Swhile (e, b) -> Ast.Swhile (e, around b)
      | (Ast.Sif _ | Ast.Sassign _ | Ast.Sbarrier | Ast.Scall _ | Ast.Sreturn _
        | Ast.Slock _ | Ast.Sunlock _ | Ast.Sannot _ | Ast.Sannot_table _
        | Ast.Sprint _) as n ->
          n
    in
    get (Before s.Ast.sid) @ ({ s with Ast.node } :: get (After s.Ast.sid))
  in
  let program = Ast.map_blocks (List.concat_map place) program in
  let proc (p : Ast.proc) =
    let name = p.Ast.pname in
    let body = get (Proc_begin name) @ p.Ast.body @ get (Proc_end name) in
    { p with Ast.body }
  in
  { program with Ast.procs = List.map proc program.Ast.procs }

let assign_fresh_sids program =
  let next = ref (Ast.max_sid program + 1) in
  let rec stmt (s : Ast.stmt) =
    let sid =
      if s.Ast.sid >= 0 then s.Ast.sid
      else begin
        let v = !next in
        incr next;
        v
      end
    in
    let node =
      match s.Ast.node with
      | Ast.Sif (e, b1, b2) -> Ast.Sif (e, List.map stmt b1, List.map stmt b2)
      | Ast.Sfor fl -> Ast.Sfor { fl with Ast.body = List.map stmt fl.Ast.body }
      | Ast.Swhile (e, b) -> Ast.Swhile (e, List.map stmt b)
      | (Ast.Sassign _ | Ast.Sbarrier | Ast.Scall _ | Ast.Sreturn _
        | Ast.Slock _ | Ast.Sunlock _ | Ast.Sannot _ | Ast.Sannot_table _
        | Ast.Sprint _) as n ->
          n
    in
    { Ast.sid; node }
  in
  {
    program with
    Ast.procs =
      List.map
        (fun (p : Ast.proc) -> { p with Ast.body = List.map stmt p.Ast.body })
        program.Ast.procs;
  }

(* ---- static epochs ---- *)

type sepoch = {
  key : int option * int option;
  dyns : (int * int) list;
      (* (trace index, dynamic epoch index) pairs, in order; several
         traces may contribute — the Section 4.5 training-set mode *)
}

let static_epochs (einfos : Epoch_info.t array) =
  let table : (int option * int option, (int * int) list ref) Hashtbl.t =
    Hashtbl.create 16
  in
  let order = ref [] in
  Array.iteri
    (fun t einfo ->
      Array.iteri
        (fun idx e ->
          let key = Trace.Epoch.static_key e in
          match Hashtbl.find_opt table key with
          | Some cell -> cell := (t, idx) :: !cell
          | None ->
              let cell = ref [ (t, idx) ] in
              Hashtbl.add table key cell;
              order := key :: !order)
        einfo.Epoch_info.epochs)
    einfos;
  List.map
    (fun key -> { key; dyns = List.rev !(Hashtbl.find table key) })
    (List.rev !order)

(* ---- the planner ---- *)

(* Membership in an address set of one labelled array, one bit per byte
   of the array. [with_marks] sets the set's bits for the extent of a
   call and clears the same bits after, so a use costs the set's size,
   not the array's, and each lookup is O(1). *)
type marks = { mbase : int; mbytes : int; bits : Bytes.t }

let marks_of (e : Label.entry) =
  let mbytes = e.Label.elems * e.Label.elem_size in
  { mbase = e.Label.base; mbytes; bits = Bytes.make ((mbytes + 7) / 8) '\000' }

let flip m on addr =
  let o = addr - m.mbase in
  let b = Char.code (Bytes.get m.bits (o lsr 3)) and bit = 1 lsl (o land 7) in
  Bytes.set m.bits (o lsr 3) (Char.chr (if on then b lor bit else b land lnot bit))

let marked m addr =
  let o = addr - m.mbase in
  o >= 0 && o < m.mbytes
  && Char.code (Bytes.get m.bits (o lsr 3)) land (1 lsl (o land 7)) <> 0

let with_marks m set f =
  Iset.iter (flip m true) set;
  Fun.protect
    ~finally:(fun () -> Iset.iter (flip m false) set)
    (fun () -> f (marked m))

type ctx = {
  program : Ast.program;
  layout : Label.t;
  machine : Wwt.Machine.t;
  einfos : Epoch_info.t array;
  annots : Equations.annots array array array;
      (* annots.(trace).(epoch).(node), precomputed *)
  nodes : int;
  options : options;
  loops : Loops.loop list;
  consts : (string * Value.t) list;
  stmt_tbl : (int, Ast.stmt) Hashtbl.t;
  proc_tbl : (int, string) Hashtbl.t;  (* sid -> enclosing procedure *)
  pid_guards : (int, int list) Hashtbl.t;
      (* sid -> enclosing pid-dependent if headers *)
  guard_body : (int, Iset.t) Hashtbl.t;  (* guard sid -> contained sids *)
  marks : (string, marks * marks) Hashtbl.t;
      (* per labelled array, two membership bitsets, made on first use *)
  mutable edits : edit list;  (* reversed *)
  note_tbl : (int, string list) Hashtbl.t;
  seen : (anchor * string, unit) Hashtbl.t;  (* placed edits, printed *)
}

let budget_bytes ctx =
  int_of_float
    (capacity_fraction *. float_of_int ctx.machine.Wwt.Machine.cache_bytes)

let add_edit ctx anchor stmt =
  let key = (anchor, Pretty.stmt_to_string stmt) in
  if not (Hashtbl.mem ctx.seen key) then begin
    Hashtbl.add ctx.seen key ();
    ctx.edits <- { anchor; stmt } :: ctx.edits
  end

let add_note ctx sid msg =
  let prev = Option.value ~default:[] (Hashtbl.find_opt ctx.note_tbl sid) in
  if not (List.mem msg prev) then
    Hashtbl.replace ctx.note_tbl sid (prev @ [ msg ])

let add_range_edit ctx anchor kind arr lo hi =
  add_edit ctx anchor
    { Ast.sid = -1; node = Ast.Sannot (kind, { Ast.arr; lo; hi }) }

let add_table_edit ctx anchor kind arr per_node =
  Option.iter (add_edit ctx anchor)
    (Presentation.table_stmt kind ~arr ~nodes:ctx.nodes
       ~per_node_ranges:per_node)

(* Numeric evaluation of an expression under consts + explicit bindings;
   a division by zero is as unresolvable as a non-constant name. *)
let eval_const ctx ~bindings e =
  match Sema.const_eval ~consts:(ctx.consts @ bindings) e with
  | v -> Some v
  | exception (Sema.Error _ | Division_by_zero) -> None

let node_bindings ctx node =
  let nodes = ctx.machine.Wwt.Machine.nodes in
  [ ("pid", Value.Vint node); ("nprocs", Value.Vint nodes) ]

(* [e]'s values over the nodes, evaluated in node order; [None] from the
   first node where it is not a resolvable int. *)
let per_node ctx e =
  let rec go node acc =
    if node >= ctx.machine.Wwt.Machine.nodes then Some acc
    else
      match eval_const ctx ~bindings:(node_bindings ctx node) e with
      | Some (Value.Vint v) -> go (node + 1) (v :: acc)
      | Some (Value.Vfloat _) | None -> None
  in
  go 0 []

(* Whether evaluating [e] divides by zero on some node. *)
let divides_by_zero ctx e =
  List.exists
    (fun node ->
      match Sema.const_eval ~consts:(ctx.consts @ node_bindings ctx node) e with
      | _ | (exception Sema.Error _) -> false
      | exception Division_by_zero -> true)
    (List.init ctx.machine.Wwt.Machine.nodes Fun.id)

let const_step_positive ctx step =
  match eval_const ctx ~bindings:[] step with
  | Some (Value.Vint k) when k <> 0 -> Some (k > 0)
  | _ -> None

(* Bounds of a loop variable as (min_expr, max_expr), accounting for the
   step sign; None if the step is not a non-zero constant. *)
let loop_var_bounds ctx (l : Loops.loop) =
  match Hashtbl.find_opt ctx.stmt_tbl l.Loops.header_sid with
  | Some { Ast.node = Ast.Sfor { from_; to_; step; _ }; _ } -> (
      match const_step_positive ctx step with
      | Some true -> Some (from_, to_)
      | Some false -> Some (to_, from_)
      | None -> None)
  | _ -> None

let const_env ctx name = List.assoc_opt name ctx.consts

(* Substitute the variables of the loops in [to_bind] by their extreme
   values so the resulting expression is the lower (if [want_min]) or upper
   bound of [sub] over those loops. Requires the subscript to be affine so
   coefficient signs are known. *)
let bound_expr ctx ~want_min ~to_bind sub =
  match Presentation.linearize ~const_env:(const_env ctx) sub with
  | None -> None
  | Some aff ->
      let coeff v = Presentation.coeff_of_var aff v in
      let rec loop e = function
        | [] -> Some e
        | (l : Loops.loop) :: rest -> (
            match l.Loops.var with
            | None ->
                (* A while loop introduces no induction variable, so
                   nothing needs substituting at this level. *)
                loop e rest
            | Some v when coeff v = 0 -> loop e rest
            | Some v -> (
                match loop_var_bounds ctx l with
                | None -> None
                | Some (min_e, max_e) ->
                    let c = coeff v in
                    let repl =
                      if (c >= 0) = want_min then min_e else max_e
                    in
                    loop (Presentation.subst_var v repl e) rest))
      in
      loop sub to_bind

(* Over-approximate the maximum element span (hi - lo) of the pair of bound
   expressions, maximising over every remaining free variable: loop
   variables range over their bounds, [pid] over the node count. Returns
   None when something is not numerically resolvable. *)
let max_span_elems ctx ~chain lo_expr hi_expr =
  let diff = Ast.Ebinop (Ast.Sub, hi_expr, lo_expr) in
  match Presentation.linearize ~const_env:(const_env ctx) diff with
  | None -> None
  | Some aff ->
      (* The largest [c * v] over the values [v] an atom takes: a loop
         variable's bounds on every node (they may mention [pid]), any
         other atom's value on every node. [linearize] keeps no zero
         coefficient. *)
      let resolve ((atom : Presentation.atom), c) =
        let values =
          match
            List.find_opt
              (fun (l : Loops.loop) -> l.Loops.var = Some atom.Presentation.key)
              chain
          with
          | None -> per_node ctx atom.Presentation.aexpr
          | Some l -> (
              match loop_var_bounds ctx l with
              | None -> None
              | Some (min_e, max_e) -> (
                  match (per_node ctx min_e, per_node ctx max_e) with
                  | Some los, Some his -> Some (los @ his)
                  | _ -> None))
        in
        Option.map (List.fold_left (fun m v -> max m (c * v)) min_int) values
      in
      List.fold_left
        (fun acc term ->
          Option.bind acc (fun s -> Option.map (( + ) s) (resolve term)))
        (Some aff.Presentation.const) aff.Presentation.terms

(* ---- per-static-epoch planning ---- *)

let kind_of_proj = function
  | Equations.Co_x -> Ast.Check_out_x
  | Equations.Co_s -> Ast.Check_out_s
  | Equations.Ci -> Ast.Check_in

let proj_set (a : Equations.annots) = function
  | Equations.Co_x -> a.Equations.co_x
  | Equations.Co_s -> a.Equations.co_s
  | Equations.Ci -> a.Equations.ci

(* Per-pc tallies over an array's misses: [seen] misses, and [hits] /
   [hit_reads] of them passing the membership test in hand. *)
type tally = {
  mutable seen : int;
  mutable hits : int;
  mutable hit_reads : int;
  mutable dominant : bool;
}

module Pc_table = Hashtbl.Make (Int)

let tally_table () =
  let table = Pc_table.create 16 in
  let tally pc =
    match Pc_table.find_opt table pc with
    | Some c -> c
    | None ->
        let c = { seen = 0; hits = 0; hit_reads = 0; dominant = false } in
        Pc_table.add table pc c;
        c
  in
  (table, tally)

let hit (c : tally) (m : Trace.Event.miss) =
  c.hits <- c.hits + 1;
  if m.Trace.Event.kind = Trace.Event.Read_miss then
    c.hit_reads <- c.hit_reads + 1

(* Distinct pcs, ascending, with hits; for check-outs prefer the pcs of
   read-miss hits (a check-out-exclusive must precede the first read,
   Section 4.1), falling back to all hit pcs. *)
let hit_pcs table ~prefer_reads =
  let pick f =
    Pc_table.fold (fun pc c acc -> if f c then pc :: acc else acc) table []
  in
  let reads = if prefer_reads then pick (fun c -> c.hit_reads > 0) else [] in
  List.sort Int.compare
    (if reads <> [] then reads else pick (fun c -> c.hits > 0))

let place_near_access ctx ~proj ~arr ~pcs ~note_of =
  let kind = kind_of_proj proj in
  List.iter
    (fun pc ->
      match Hashtbl.find_opt ctx.stmt_tbl pc with
      | None -> ()
      | Some stmt ->
          (* A check-in relinquishes the location, so it follows the
             write that finishes with it; check-outs precede any of the
             statement's references. *)
          let subs =
            if proj = Equations.Ci then
              Presentation.array_write_subscripts stmt ~arr
            else Presentation.array_subscripts stmt ~arr
          in
          List.iter
            (fun sub ->
              let anchor =
                if proj = Equations.Ci then After pc else Before pc
              in
              add_range_edit ctx anchor kind arr sub sub;
              match note_of with
              | Some describe ->
                  add_note ctx pc
                    (Printf.sprintf "%s on %s[%s]" describe arr
                       (Pretty.expr_to_string sub))
              | None -> ())
            subs)
    pcs

(* A candidate level for an affine range: the loops whose variables the
   range spans, the loop variables live where it is placed, and where a
   check-out and a check-in go. *)
type level = {
  to_bind : Loops.loop list;
  in_scope : string list;
  co_anchor : anchor;
  ci_anchor : anchor;
}

(* Static (affine) placement for one access site. Returns true when it
   succeeded, false to fall back to dynamic placement. *)
let place_affine ctx ~proj ~(entry : Label.entry) ~pc ~start_anchor
    ~end_anchor ~anchor_sids ~target_per_node ~max_target_blocks ~covered
    ~budget_left =
  let arr = entry.Label.name in
  match Hashtbl.find_opt ctx.stmt_tbl pc with
  | None -> false
  | Some stmt ->
      (* [array_subscripts] lists an assigned subscript first: it matches
         check-out-exclusive and check-in sets exactly, and the read
         subscripts only add what it left uncovered. *)
      let subs = Presentation.array_subscripts stmt ~arr in
      let chain = Loops.containing ctx.loops pc in
      (* Loops that also enclose the epoch's barriers (e.g. LU's k loop,
         whose body holds both barriers) are still running at the epoch
         boundary: their variables are live there and must stay
         symbolic, producing the paper's parametric annotations such as
         M[k*N + k+1 .. k*N + N-1]. *)
      let encloses_anchor (l : Loops.loop) =
        anchor_sids <> []
        && List.for_all (fun sid -> List.mem sid l.Loops.body_sids) anchor_sids
      in
      let anchor_prefix, inner_chain = List.partition encloses_anchor chain in
      let vars_of = List.filter_map (fun (l : Loops.loop) -> l.Loops.var) in
      let scope_ok lv e =
        List.for_all
          (fun v ->
            v = "pid" || v = "nprocs"
            || List.mem_assoc v ctx.consts
            || List.mem v lv.in_scope)
          (Presentation.free_vars e)
      in
      (* The range [sub] covers at a level, and the largest element span
         (hi - lo) it takes on any node when that resolves. *)
      let range lv sub =
        match
          ( bound_expr ctx ~want_min:true ~to_bind:lv.to_bind sub,
            bound_expr ctx ~want_min:false ~to_bind:lv.to_bind sub )
        with
        | Some lo, Some hi when scope_ok lv lo && scope_ok lv hi ->
            Some (lo, hi, max_span_elems ctx ~chain lo hi)
        | _ -> None
      in
      let elem_size = ctx.machine.Wwt.Machine.elem_size in
      let elems_per_block = ctx.machine.Wwt.Machine.block_size / elem_size in
      (* A contiguous range that covers far more blocks than the node
         actually touches (a block-partitioned 2-D region flattened to a
         1-D span) would claim or flush other nodes' data; push such
         subscripts down to a loop level where the range is exact.
         Check-outs pin cache capacity until the matching check-in, so
         every epoch shares one budget: once the placed check-outs would
         pin more than the configured cache fraction, further ones are
         dropped rather than allowed to thrash. *)
      let fits = function
        | Some span when span >= 0 ->
            2 * ((span / elems_per_block) + 1) <= (3 * max_target_blocks) + 4
            && (proj = Equations.Ci || (span + 1) * elem_size <= !budget_left)
        | Some _ -> false
        | None ->
            (* span not resolvable numerically: only a check-in may
               proceed (it pins no capacity and over-coverage of a
               symbolic loop-level range is bounded by the loop) *)
            proj = Equations.Ci
      in
      (* outermost-first candidate levels: epoch boundary, then after
         each loop header; [outer] = loops outside the current level
         (their vars are in scope) *)
      let rec levels outer = function
        | [] -> []
        | (l : Loops.loop) :: deeper ->
            let sid = l.Loops.header_sid in
            {
              to_bind = deeper;
              in_scope = vars_of (anchor_prefix @ outer @ [ l ]);
              co_anchor = Loop_begin sid;
              ci_anchor = Loop_end sid;
            }
            :: levels (outer @ [ l ]) deeper
      in
      let boundary =
        {
          to_bind = inner_chain;
          in_scope = vars_of anchor_prefix;
          co_anchor = start_anchor;
          ci_anchor = end_anchor;
        }
      in
      (* An expression range executes on every node; if the access sits
         under a pid-dependent guard, only levels inside that guard are
         legal (the per-pid table fallback is immune — it is keyed by
         pid). *)
      let guards =
        Option.value ~default:[] (Hashtbl.find_opt ctx.pid_guards pc)
      in
      let inside_guards lv =
        match lv.co_anchor with
        | Loop_begin lsid ->
            List.for_all
              (fun g ->
                match Hashtbl.find_opt ctx.guard_body g with
                | Some body -> Iset.mem lsid body
                | None -> false)
              guards
        | Before _ | After _ | Loop_end _ | Proc_begin _ | Proc_end _ ->
            guards = []
      in
      let candidates =
        if proj = Equations.Ci then
          (* A check-in belongs at the epoch boundary: placed inside a
             loop it would flush data the loop still uses; the exact
             per-pid table is the fallback when the boundary range
             over-covers. *)
          [ boundary ]
        else
          (* Per-access levels (nothing left to bind) are the near-access
             path's job and are only justified for races. *)
          List.filter inside_guards
            (boundary
            :: List.filter (fun lv -> lv.to_bind <> []) (levels [] inner_chain))
      in
      (* A check-in only ever flushes the executing node's own cache, so
         it ignores the guards: running one on nodes they exclude is safe
         and flushes their stale read copies of the guarded data (e.g.
         every reader of the tree node 0 is about to rebuild). Its bounds
         are evaluated there too, so they must not divide by zero on any
         node. *)
      let evaluable lo hi =
        proj <> Equations.Ci || guards = []
        || not (divides_by_zero ctx lo || divides_by_zero ctx hi)
      in
      let place sub =
        List.find_map
          (fun lv ->
            match range lv sub with
            | Some (lo, hi, span) when fits span && evaluable lo hi ->
                Some (lv, lo, hi, span)
            | Some _ | None -> None)
          candidates
      in
      (* Every subscript of the statement must find a level, so the whole
         annotation set is coverable; otherwise fall back to the dynamic
         path. *)
      let placements = List.map place subs in
      if List.exists Option.is_none placements then false
      else begin
        (* Concrete per-node element interval of a placed range, when
           every free variable is pid/nprocs/consts (i.e. an
           epoch-boundary placement); [None] for loop-level ranges. *)
        let nodes = ctx.machine.Wwt.Machine.nodes in
        let interval_of lo hi node =
          let bindings = node_bindings ctx node in
          match (eval_const ctx ~bindings lo, eval_const ctx ~bindings hi) with
          | Some (Value.Vint a), Some (Value.Vint b) -> Some (a, b)
          | _ -> None
        in
        let within (a, b) addr =
          let idx = (addr - entry.Label.base) / entry.Label.elem_size in
          idx >= a && idx <= b
        in
        (* A range whose concrete footprint adds nothing new to the target
           set on any node is redundant (e.g. the four stencil neighbours
           of an already-covered centre). Symbolic ranges are kept
           conservatively. *)
        let rec adds_coverage lo hi node =
          node < nodes
          && ((match interval_of lo hi node with
              | None -> true
              | Some ab ->
                  Iset.exists
                    (fun addr ->
                      within ab addr && not (Iset.mem addr covered.(node)))
                    target_per_node.(node))
             || adds_coverage lo hi (node + 1))
        in
        List.iter
          (function
            | Some (lv, lo, hi, span) when adds_coverage lo hi 0 ->
                (* Earlier subscripts may have spent the budget. *)
                if fits span then begin
                  let anchor =
                    if proj = Equations.Ci then lv.ci_anchor else lv.co_anchor
                  in
                  add_range_edit ctx anchor (kind_of_proj proj) arr lo hi;
                  if proj <> Equations.Ci then
                    Option.iter
                      (fun s ->
                        budget_left := !budget_left - ((s + 1) * elem_size))
                      span
                end;
                for node = 0 to nodes - 1 do
                  covered.(node) <-
                    Iset.union covered.(node)
                      (match interval_of lo hi node with
                      | None ->
                          (* Symbolic range: assume it covers the node's
                             whole target set for this pc. *)
                          target_per_node.(node)
                      | Some ab ->
                          Iset.filter (within ab) target_per_node.(node))
                done
            | Some _ | None -> ())
          placements;
        true
      end

(* The membership bitsets of [entry], made on first use. *)
let marks_for ctx (entry : Label.entry) =
  match Hashtbl.find_opt ctx.marks entry.Label.name with
  | Some m -> m
  | None ->
      let m = (marks_of entry, marks_of entry) in
      Hashtbl.add ctx.marks entry.Label.name m;
      m

(* Dynamic epochs of every trace whose start (or end) barrier is [pc]. *)
let anchored_dyns ctx ~at_end pc =
  let acc = ref [] in
  Array.iteri
    (fun t einfo ->
      Array.iteri
        (fun d (e : Trace.Epoch.t) ->
          let anchor =
            if at_end then e.Trace.Epoch.end_pc else e.Trace.Epoch.start_pc
          in
          if anchor = pc then acc := (t, d) :: !acc)
        einfo.Epoch_info.epochs)
    ctx.einfos;
  !acc

let plan_epoch ctx (se : sepoch) =
  let nodes = ctx.nodes in
  let merged =
    Array.init nodes (fun node ->
        List.fold_left
          (fun acc (t, d) -> Equations.union acc ctx.annots.(t).(d).(node))
          Equations.empty se.dyns)
  in
  let drfs_list =
    List.map (fun (t, d) -> ctx.einfos.(t).Epoch_info.drfs.(d)) se.dyns
  in
  let drfs_all =
    List.fold_left
      (fun acc d -> Iset.union acc (Drfs.drfs_set d))
      Iset.empty drfs_list
  in
  let race_all =
    List.fold_left (fun acc d -> Iset.union acc (Drfs.race d)) Iset.empty
      drfs_list
  in
  let start_anchor =
    match fst se.key with Some pc -> After pc | None -> Proc_begin "main"
  in
  let end_anchor =
    match snd se.key with Some pc -> Before pc | None -> Proc_end "main"
  in
  let anchor_sids =
    List.filter_map (fun k -> k) [ fst se.key; snd se.key ]
  in
  (* The table anchors at a barrier statement that may close (or open)
     other dynamic epochs too — it will execute on every one of them, so
     it is only valid when the annotation sets of ALL the epochs sharing
     that anchor mostly agree (FFT's stage barrier closes six epochs with
     disjoint sets: drop; Ocean's sweep barrier closes identical ones:
     keep). *)
  let anchored_start = anchored_dyns ctx ~at_end:false (fst se.key)
  and anchored_end = anchored_dyns ctx ~at_end:true (snd se.key) in
  let elems_per_block =
    ctx.machine.Wwt.Machine.block_size / ctx.machine.Wwt.Machine.elem_size
  in
  (* Prefetch candidates per node, (exclusive, shared): locations this
     epoch uses that the previous epoch left elsewhere and no check-out
     or DRFS location already covers. *)
  let prefetch_sets =
    if not ctx.options.prefetch then [||]
    else
      Array.init nodes (fun node ->
          let union_over f =
            List.fold_left
              (fun acc (t, d) ->
                let einfo = ctx.einfos.(t) in
                let cur = Epoch_info.sets_at einfo ~epoch:d ~node in
                let prev = Epoch_info.sets_at einfo ~epoch:(d - 1) ~node in
                Iset.union acc (f cur prev))
              Iset.empty se.dyns
          in
          let pf_x =
            union_over (fun cur prev ->
                Iset.diff cur.Epoch_info.sw prev.Epoch_info.sw)
          in
          let pf_s =
            union_over (fun cur prev ->
                Iset.diff cur.Epoch_info.sr prev.Epoch_info.sr)
          in
          let covered = merged.(node).Equations.co_x in
          ( Iset.diff (Iset.diff pf_x drfs_all) covered,
            Iset.diff (Iset.diff pf_s drfs_all) covered ))
  in
  let budget_left = ref (budget_bytes ctx) in
  List.iter
    (fun (entry : Label.entry) ->
      let arr = entry.Label.name in
      (* The static epoch's misses on [arr]: each dynamic epoch's slice
         of its address-ordered index. *)
      let iter_arr f =
        let lo = entry.Label.base in
        let hi = lo + (entry.Label.elems * entry.Label.elem_size) - 1 in
        List.iter
          (fun (t, d) -> Epoch_info.iter_range ctx.einfos.(t) ~epoch:d ~lo ~hi f)
          se.dyns
      in
      let set_marks, racy_marks = marks_for ctx entry in
      List.iter
        (fun proj ->
          let per_node_addrs =
            Array.map
              (fun a ->
                Presentation.addrs_in_array ~layout:ctx.layout ~arr
                  (proj_set a proj))
              merged
          in
          let union_addrs =
            Array.fold_left Iset.union Iset.empty per_node_addrs
          in
          if not (Iset.is_empty union_addrs) then begin
            (* Racy part: immediately around the references — but only at
               statements whose accesses are predominantly racy. A
               statement that touches mostly clean locations (e.g. a
               stencil whose block boundary is falsely shared) would pay
               per-access directives on every iteration, so its racy
               addresses are demoted to the boundary strategy instead. *)
            (* Only true data races get the immediately-around-the-
               reference treatment; addresses involved merely in false
               sharing keep the boundary strategy (per-access directives
               cannot fix block ping-pong — the report tells the
               programmer to pad instead). *)
            let racy = Iset.inter union_addrs race_all in
            let near_addrs =
              if Iset.is_empty racy then Iset.empty
              else
                with_marks set_marks union_addrs @@ fun in_this_array ->
                with_marks racy_marks racy @@ fun is_racy ->
                (* per pc: this array's misses, and the racy ones *)
                let table, tally = tally_table () in
                iter_arr (fun (m : Trace.Event.miss) ->
                    if in_this_array m.Trace.Event.addr then begin
                      let c = tally m.Trace.Event.pc in
                      c.seen <- c.seen + 1;
                      if is_racy m.Trace.Event.addr then hit c m
                    end);
                let dominant_pcs =
                  List.filter
                    (fun pc ->
                      let c = tally pc in
                      10 * c.hits >= 7 * c.seen)
                    (hit_pcs table ~prefer_reads:(proj <> Equations.Ci))
                in
                if dominant_pcs = [] then Iset.empty
                else begin
                  place_near_access ctx ~proj ~arr ~pcs:dominant_pcs
                    ~note_of:
                      (if proj = Equations.Ci then None
                       else Some "Data Race");
                  List.iter (fun pc -> (tally pc).dominant <- true) dominant_pcs;
                  let near = ref [] in
                  iter_arr (fun (m : Trace.Event.miss) ->
                      if
                        ((proj <> Equations.Ci)
                        || m.Trace.Event.kind <> Trace.Event.Read_miss)
                        && is_racy m.Trace.Event.addr
                        && (tally m.Trace.Event.pc).dominant
                      then near := m.Trace.Event.addr :: !near);
                  Iset.of_list !near
                end
            in
            (* Clean part (plus demoted racy addresses): boundary /
               loop-level cascade. *)
            let clean_per_node =
              Array.map (fun s -> Iset.diff s near_addrs) per_node_addrs
            in
            let clean_union =
              Array.fold_left Iset.union Iset.empty clean_per_node
            in
            if not (Iset.is_empty clean_union) then begin
              let pcs =
                with_marks set_marks clean_union @@ fun in_clean ->
                let table, tally = tally_table () in
                iter_arr (fun (m : Trace.Event.miss) ->
                    if in_clean m.Trace.Event.addr then
                      hit (tally m.Trace.Event.pc) m);
                hit_pcs table ~prefer_reads:(proj <> Equations.Ci)
              in
              (* Section 4.2: when an epoch spans procedures, Programmer
                 CICO places the annotations at the boundaries of the
                 procedure that references the locations. *)
              let start_anchor, end_anchor =
                if ctx.options.mode <> Equations.Programmer then
                  (start_anchor, end_anchor)
                else
                  match
                    List.sort_uniq compare
                      (List.filter_map (Hashtbl.find_opt ctx.proc_tbl) pcs)
                  with
                  | [ proc ] when proc <> "main" ->
                      (Proc_begin proc, Proc_end proc)
                  | _ -> (start_anchor, end_anchor)
              in
              (* The trace records roughly one miss per touched cache
                 block, so coverage is compared in blocks: count the
                 distinct blocks of the densest node's target set. *)
              let max_target_blocks =
                Array.fold_left
                  (fun m set ->
                    (* ascending addresses: count block changes *)
                    let last = ref (-1) and blocks = ref 0 in
                    Iset.iter
                      (fun a ->
                        let b =
                          Memsys.Block.of_addr
                            ~block_size:ctx.machine.Wwt.Machine.block_size a
                        in
                        if b <> !last then begin
                          last := b;
                          incr blocks
                        end)
                      set;
                    max m !blocks)
                  0 clean_per_node
              in
              (* Try the static affine path per access site; sites that
                 fail feed the dynamic residue. *)
              let covered =
                Array.make (Array.length clean_per_node) Iset.empty
              in
              let residue_pcs =
                List.filter
                  (fun pc ->
                    not
                      (place_affine ctx ~proj ~entry ~pc ~start_anchor
                         ~end_anchor ~anchor_sids
                         ~target_per_node:clean_per_node ~max_target_blocks
                         ~covered ~budget_left))
                  pcs
              in
              (* A table built from the union of the dynamic instances is
                 only meaningful for a node when its instances touch
                 roughly the same addresses; for non-stationary epochs
                 (LU's shrinking trailing matrix, FFT's stage-dependent
                 pairs) the union over-annotates every iteration, so that
                 node's rows are dropped. *)
              let stationary node =
                let sets =
                  List.filter_map
                    (fun (t, d) ->
                      let set =
                        Presentation.addrs_in_array ~layout:ctx.layout ~arr
                          (proj_set ctx.annots.(t).(d).(node) proj)
                      in
                      if Iset.is_empty set then None else Some set)
                    (if proj = Equations.Ci then anchored_end
                     else anchored_start)
                in
                match sets with
                | [] | [ _ ] -> true
                | first :: rest ->
                    let inter = List.fold_left Iset.inter first rest in
                    let union = List.fold_left Iset.union first rest in
                    2 * Iset.cardinal inter >= Iset.cardinal union
              in
              if residue_pcs <> [] then begin
                let residue_addr_set =
                  (* addresses of this array touched at the residue pcs *)
                  let acc = ref [] in
                  iter_arr (fun (m : Trace.Event.miss) ->
                      if List.mem m.Trace.Event.pc residue_pcs then
                        acc := m.Trace.Event.addr :: !acc);
                  Iset.of_list !acc
                in
                let residue_per_node =
                  Array.map (fun s -> Iset.inter s residue_addr_set)
                    clean_per_node
                in
                let max_footprint =
                  Array.fold_left
                    (fun m s -> max m (Iset.cardinal s * entry.Label.elem_size))
                    0 residue_per_node
                in
                let per_node node =
                  if not (stationary node) then []
                  else
                    Presentation.block_align_ranges ~elems_per_block
                      (Presentation.ranges_for_array ~layout:ctx.layout ~arr
                         residue_per_node.(node))
                in
                if proj = Equations.Ci then
                  (* A check-in table pins no capacity. *)
                  add_table_edit ctx end_anchor Ast.Check_in arr per_node
                else if max_footprint <= !budget_left then begin
                  add_table_edit ctx start_anchor (kind_of_proj proj) arr
                    per_node;
                  budget_left := !budget_left - max_footprint
                end
                else if ctx.options.mode = Equations.Programmer then
                  (* Programmer CICO must expose the communication even
                     when the cache cannot hold it (Section 2.1's
                     "cache too small" case). *)
                  place_near_access ctx ~proj ~arr ~pcs:residue_pcs
                    ~note_of:None
                (* Performance mode: drop it — Dir1SW's implicit check-out
                   at the miss is equivalent and free. *)
              end
            end
          end)
        [ Equations.Co_x; Equations.Co_s; Equations.Ci ];
      (* Prefetch insertion at the epoch boundary. *)
      if ctx.options.prefetch then begin
        let cap_ranges ranges =
          (* prefetches are speculative: they may only fill capacity the
             placed check-outs left unused *)
          let budget = !budget_left / 2 in
          let rec loop used acc = function
            | [] ->
                budget_left := !budget_left - used;
                List.rev acc
            | (lo, hi) :: rest ->
                let bytes = (hi - lo + 1) * entry.Label.elem_size in
                if used + bytes > budget then begin
                  budget_left := !budget_left - used;
                  List.rev acc
                end
                else loop (used + bytes) ((lo, hi) :: acc) rest
          in
          loop 0 [] ranges
        in
        let table_of pick node =
          let x, s = prefetch_sets.(node) in
          let set = if pick = `X then x else s in
          cap_ranges
            (Presentation.block_align_ranges ~elems_per_block
               (Presentation.ranges_for_array ~layout:ctx.layout ~arr
                  (Presentation.addrs_in_array ~layout:ctx.layout ~arr set)))
        in
        add_table_edit ctx start_anchor Ast.Prefetch_x arr (table_of `X);
        add_table_edit ctx start_anchor Ast.Prefetch_s arr (table_of `S)
      end)
    (Label.entries ctx.layout)

let plan_traces ~program ~layout ~machine ~einfos ~options =
  if einfos = [] then invalid_arg "Placement.plan_traces: no traces";
  let einfos = Array.of_list einfos in
  let info_consts =
    match Sema.check program with
    | info -> info.Sema.consts
    | exception Sema.Error _ -> []
  in
  let stmt_tbl = Hashtbl.create 256 in
  Ast.iter_stmts (fun s -> Hashtbl.replace stmt_tbl s.Ast.sid s) program;
  let proc_tbl = Hashtbl.create 256 in
  List.iter
    (fun (p : Ast.proc) ->
      let probe = { Ast.decls = []; procs = [ p ] } in
      Ast.iter_stmts
        (fun s -> Hashtbl.replace proc_tbl s.Ast.sid p.Ast.pname)
        probe)
    program.Ast.procs;
  (* pid-dependent guards: an if whose condition mentions pid restricts
     its body to some nodes, so expression-range annotations must not be
     hoisted across it (they would make every node claim the owner's
     data). *)
  let pid_guards = Hashtbl.create 64 in
  let guard_sids = Hashtbl.create 16 in
  let is_pid_cond cond = List.mem "pid" (Presentation.free_vars cond) in
  let rec scan_block active block = List.iter (scan_stmt active) block
  and scan_stmt active (st : Ast.stmt) =
    if active <> [] then begin
      Hashtbl.replace pid_guards st.Ast.sid active;
      List.iter
        (fun g ->
          let prev = Option.value ~default:[] (Hashtbl.find_opt guard_sids g) in
          Hashtbl.replace guard_sids g (st.Ast.sid :: prev))
        active
    end;
    match st.Ast.node with
    | Ast.Sif (cond, b1, b2) ->
        let active' =
          if is_pid_cond cond then st.Ast.sid :: active else active
        in
        scan_block active' b1;
        scan_block active' b2
    | Ast.Sfor { body; _ } | Ast.Swhile (_, body) -> scan_block active body
    | Ast.Sassign _ | Ast.Sbarrier | Ast.Scall _ | Ast.Sreturn _ | Ast.Slock _
    | Ast.Sunlock _ | Ast.Sannot _ | Ast.Sannot_table _ | Ast.Sprint _ ->
        ()
  in
  List.iter (fun (p : Ast.proc) -> scan_block [] p.Ast.body) program.Ast.procs;
  let guard_body = Hashtbl.create (Hashtbl.length guard_sids) in
  Hashtbl.iter
    (fun g sids -> Hashtbl.replace guard_body g (Iset.of_list sids))
    guard_sids;
  let ctx =
    {
      program;
      layout;
      machine;
      einfos;
      annots = Array.map (Equations.all options.mode) einfos;
      nodes = einfos.(0).Epoch_info.nodes;
      options;
      loops = Loops.of_program program;
      consts = info_consts;
      stmt_tbl;
      proc_tbl;
      pid_guards;
      guard_body;
      marks = Hashtbl.create 8;
      edits = [];
      note_tbl = Hashtbl.create 32;
      seen = Hashtbl.create 256;
    }
  in
  List.iter (plan_epoch ctx) (static_epochs einfos);
  let notes =
    Hashtbl.fold
      (fun sid msgs acc -> (sid, String.concat "; " msgs) :: acc)
      ctx.note_tbl []
    |> List.sort compare
  in
  { edits = List.rev ctx.edits; notes }

let plan ~program ~layout ~machine ~einfo ~options =
  plan_traces ~program ~layout ~machine ~einfos:[ einfo ] ~options
