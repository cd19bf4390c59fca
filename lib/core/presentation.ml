module Iset = Trace.Epoch.Iset
open Lang

let coalesce ints =
  let sorted = List.sort_uniq compare ints in
  let rec loop acc cur = function
    | [] -> ( match cur with None -> List.rev acc | Some r -> List.rev (r :: acc))
    | x :: rest -> (
        match cur with
        | None -> loop acc (Some (x, x)) rest
        | Some (lo, hi) when x = hi + 1 -> loop acc (Some (lo, x)) rest
        | Some r -> loop (r :: acc) (Some (x, x)) rest)
  in
  loop [] None sorted

let block_align_ranges ~elems_per_block ranges =
  if elems_per_block <= 1 then ranges
  else
    let aligned =
      List.map
        (fun (lo, hi) ->
          ( lo / elems_per_block * elems_per_block,
            (hi / elems_per_block * elems_per_block) + elems_per_block - 1 ))
        ranges
    in
    let sorted = List.sort compare aligned in
    let rec merge = function
      | (lo1, hi1) :: (lo2, hi2) :: rest when lo2 <= hi1 + 1 ->
          merge ((lo1, max hi1 hi2) :: rest)
      | r :: rest -> r :: merge rest
      | [] -> []
    in
    merge sorted

(* The members of [set] inside the array's bytes: a slice found by
   binary search, not a filter over the whole set. *)
let restrict (e : Label.entry) set =
  Iset.range ~lo:e.Label.base
    ~hi:(e.Label.base + (e.Label.elems * e.Label.elem_size) - 1)
    set

let addrs_in_array ~layout ~arr set =
  match Label.find_array layout arr with
  | None -> Iset.empty
  | Some e -> restrict e set

let ranges_for_array ~layout ~arr set =
  match Label.find_array layout arr with
  | None -> []
  | Some e ->
      let elems =
        Iset.fold
          (fun a acc -> ((a - e.Label.base) / e.Label.elem_size) :: acc)
          (restrict e set) []
      in
      coalesce elems

(* ---- affine analysis ---- *)

type atom = { key : string; aexpr : Ast.expr }

type affine = { terms : (atom * int) list; const : int }

let add_term terms atom c =
  let rec loop = function
    | [] -> [ (atom, c) ]
    | (a', c') :: rest when a'.key = atom.key ->
        if c' + c = 0 then rest else (a', c' + c) :: rest
    | t :: rest -> t :: loop rest
  in
  loop terms

let affine_add a b =
  {
    terms = List.fold_left (fun ts (v, c) -> add_term ts v c) a.terms b.terms;
    const = a.const + b.const;
  }

let affine_scale k a =
  if k = 0 then { terms = []; const = 0 }
  else { terms = List.map (fun (v, c) -> (v, c * k)) a.terms; const = a.const * k }

(* Forward reference: atoms are keyed by their pretty-printed form, which
   is also how add_range_edit deduplicates, so keys are stable. *)
let atom_key e = Pretty.expr_to_string e

let atom_of e = { terms = [ ({ key = atom_key e; aexpr = e }, 1) ]; const = 0 }

let linearize ~const_env e =
  let exception Not_affine in
  let rec go e =
    match e with
    | Ast.Eint i -> { terms = []; const = i }
    | Ast.Efloat _ -> raise Not_affine
    | Ast.Evar name -> (
        match const_env name with
        | Some (Value.Vint i) -> { terms = []; const = i }
        | Some (Value.Vfloat _) -> raise Not_affine
        | None -> atom_of e)
    | Ast.Eunop (Ast.Neg, a) -> affine_scale (-1) (go a)
    | Ast.Eunop (Ast.Not, _) -> raise Not_affine
    | Ast.Ebinop (Ast.Add, a, b) -> affine_add (go a) (go b)
    | Ast.Ebinop (Ast.Sub, a, b) -> affine_add (go a) (affine_scale (-1) (go b))
    | Ast.Ebinop (Ast.Mul, a, b) -> (
        let fa = go a and fb = go b in
        match (fa.terms, fb.terms) with
        | [], _ -> affine_scale fa.const fb
        | _, [] -> affine_scale fb.const fa
        | _ -> atom_of e)
    | Ast.Ebinop ((Ast.Div | Ast.Mod), a, b) -> (
        (* Constant-fold when possible, otherwise keep as an atom. *)
        let fa = go a and fb = go b in
        match (fa.terms, fb.terms) with
        | [], [] when fb.const <> 0 ->
            let v =
              match e with
              | Ast.Ebinop (Ast.Div, _, _) -> fa.const / fb.const
              | _ -> fa.const mod fb.const
            in
            { terms = []; const = v }
        | _ -> atom_of e)
    | Ast.Ecall _ | Ast.Eindex _ -> atom_of e
    | Ast.Ebinop
        ((Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne | Ast.And | Ast.Or),
         _, _) ->
        atom_of e
  in
  try Some (go e) with Not_affine -> None

let coeff_of_var aff v =
  match List.find_opt (fun (a, _) -> a.key = v) aff.terms with
  | Some (_, c) -> c
  | None -> 0

let affine_to_expr a =
  let term_expr (atom, c) =
    if c = 1 then atom.aexpr
    else Ast.Ebinop (Ast.Mul, Ast.Eint c, atom.aexpr)
  in
  let base =
    match a.terms with
    | [] -> Ast.Eint a.const
    | t :: rest ->
        let sum =
          List.fold_left
            (fun acc t -> Ast.Ebinop (Ast.Add, acc, term_expr t))
            (term_expr t) rest
        in
        if a.const = 0 then sum
        else if a.const > 0 then Ast.Ebinop (Ast.Add, sum, Ast.Eint a.const)
        else Ast.Ebinop (Ast.Sub, sum, Ast.Eint (-a.const))
  in
  base

let rec subst_var v replacement e =
  let go = subst_var v replacement in
  match e with
  | Ast.Evar name when name = v -> replacement
  | Ast.Eint _ | Ast.Efloat _ | Ast.Evar _ -> e
  | Ast.Eindex (name, idx) -> Ast.Eindex (name, go idx)
  | Ast.Ebinop (op, a, b) -> Ast.Ebinop (op, go a, go b)
  | Ast.Eunop (op, a) -> Ast.Eunop (op, go a)
  | Ast.Ecall (name, args) -> Ast.Ecall (name, List.map go args)

let free_vars e =
  let acc = ref [] in
  let rec go = function
    | Ast.Evar name -> acc := name :: !acc
    | Ast.Eint _ | Ast.Efloat _ -> ()
    | Ast.Eindex (_, idx) -> go idx
    | Ast.Ebinop (_, a, b) ->
        go a;
        go b
    | Ast.Eunop (_, a) -> go a
    | Ast.Ecall (_, args) -> List.iter go args
  in
  go e;
  List.sort_uniq compare !acc

let direct_exprs (s : Ast.stmt) =
  match s.Ast.node with
  | Ast.Sassign (Ast.Lvar _, e) -> [ e ]
  | Ast.Sassign (Ast.Lindex (name, idx), e) -> [ Ast.Eindex (name, idx); e ]
  | Ast.Sif (cond, _, _) -> [ cond ]
  | Ast.Sfor { from_; to_; step; _ } -> [ from_; to_; step ]
  | Ast.Swhile (cond, _) -> [ cond ]
  | Ast.Sbarrier -> []
  | Ast.Scall (_, args) -> args
  | Ast.Sreturn (Some e) -> [ e ]
  | Ast.Sreturn None -> []
  | Ast.Slock e | Ast.Sunlock e -> [ e ]
  | Ast.Sannot (_, { lo; hi; _ }) -> [ lo; hi ]
  | Ast.Sannot_table _ -> []
  | Ast.Sprint args -> args

let array_subscripts (s : Ast.stmt) ~arr =
  let subs = ref [] in
  let rec go = function
    | Ast.Eindex (name, idx) ->
        if name = arr then subs := idx :: !subs;
        go idx
    | Ast.Eint _ | Ast.Efloat _ | Ast.Evar _ -> ()
    | Ast.Ebinop (_, a, b) ->
        go a;
        go b
    | Ast.Eunop (_, a) -> go a
    | Ast.Ecall (_, args) -> List.iter go args
  in
  List.iter go (direct_exprs s);
  (* distinct, preserving first-occurrence order *)
  List.rev
    (List.fold_left
       (fun acc e -> if List.mem e acc then acc else e :: acc)
       [] (List.rev !subs))

let array_write_subscripts (s : Ast.stmt) ~arr =
  match s.Ast.node with
  | Ast.Sassign (Ast.Lindex (name, idx), _) when name = arr -> [ idx ]
  | Ast.Sassign _ | Ast.Sif _ | Ast.Sfor _ | Ast.Swhile _ | Ast.Sbarrier
  | Ast.Scall _ | Ast.Sreturn _ | Ast.Slock _ | Ast.Sunlock _ | Ast.Sannot _
  | Ast.Sannot_table _ | Ast.Sprint _ ->
      []

let table_stmt kind ~arr ~nodes ~per_node_ranges =
  let table = Array.init nodes per_node_ranges in
  if Array.for_all (fun r -> r = []) table then None
  else
    Some
      {
        Ast.sid = -1;
        node = Ast.Sannot_table { akind = kind; aarr = arr; aranges = table };
      }
