(* Random program generation for the differential fuzzer.

   Two families of generators:

   - [free_*]: unconstrained ASTs, promoted from the original parser
     round-trip property tests. They exercise the printer, the parser and
     sema on arbitrary trees, but most of them fail to run.

   - [spmd]: well-formed SPMD programs that pass [Sema.check] and run to
     completion. Every shared index is wrapped in a bounds-respecting
     form, and cross-node sharing is data-race-free by construction:
     concurrent writers touch disjoint elements (each node writes only
     its own chunk of A), or read-modify-write B under a common lock with
     integer-valued, order-independent contributions. Race freedom is
     what makes the oracles sound — they compare results across runs with
     different timing (two engines, annotated vs unannotated), and only
     DRF programs are value-deterministic under timing changes.

   Generators are plain functions of a [Random.State.t], the same shape
   as [QCheck.Gen.t], so the qcheck property suites lift them with
   [QCheck.make] unchanged while the fuzzer needs no qcheck at all. *)

open Lang

type 'a t = Random.State.t -> 'a

let int_range lo hi st = lo + Random.State.int st (hi - lo + 1)
let oneof (xs : 'a array) st = xs.(Random.State.int st (Array.length xs))
let mk node = { Ast.sid = -1; node }

(* ---- free-form generators (printer / parser / sema fodder) ---- *)

let var_names = [| "x"; "y"; "z"; "acc"; "tmp" |]
let array_names = [| "A"; "B" |]

let rec free_expr_n n st =
  if n <= 0 then
    match Random.State.int st 4 with
    (* negative literals are spelled with an explicit Neg: [Eint (-34)]
       prints as ["(-34)"], which re-parses as [Eunop (Neg, Eint 34)] —
       same value, different tree — so leaves are non-negative *)
    | 0 -> Ast.Eint (int_range 0 99 st)
    | 1 -> Ast.Efloat (float_of_int (int_range 0 40 st) /. 4.0)
    | 2 -> Ast.Evar (oneof var_names st)
    | _ -> Ast.Evar "pid"
  else
    match Random.State.int st 5 with
    | 0 ->
        let op =
          oneof
            Ast.[| Add; Sub; Mul; Div; Mod; Lt; Le; Gt; Ge; Eq; Ne; And; Or |]
            st
        in
        Ast.Ebinop (op, free_expr_n (n / 2) st, free_expr_n (n / 2) st)
    | 1 -> Ast.Eunop (oneof Ast.[| Neg; Not |] st, free_expr_n (n / 2) st)
    | 2 -> Ast.Eindex (oneof array_names st, free_expr_n (n / 2) st)
    | 3 -> Ast.Ecall ("min", [ free_expr_n (n / 2) st; free_expr_n (n / 2) st ])
    | _ -> Ast.Ecall ("abs", [ free_expr_n (n / 2) st ])

let free_expr st = free_expr_n (min (Random.State.int st 100) 8) st

let rec free_stmt_n n st =
  let leaf st =
    match Random.State.int st 4 with
    | 0 -> mk (Ast.Sassign (Ast.Lvar (oneof var_names st), free_expr st))
    | 1 ->
        mk
          (Ast.Sassign
             (Ast.Lindex (oneof array_names st, free_expr st), free_expr st))
    | 2 ->
        let k =
          oneof
            Ast.[| Check_out_x; Check_out_s; Check_in; Prefetch_s; Post_store |]
            st
        in
        let e = free_expr st in
        mk (Ast.Sannot (k, { Ast.arr = "A"; lo = e; hi = e }))
    | _ ->
        let nargs = int_range 1 3 st in
        mk (Ast.Sprint (List.init nargs (fun _ -> free_expr st)))
  in
  if n <= 0 then leaf st
  else
    match Random.State.int st 3 with
    | 0 -> leaf st
    | 1 ->
        let c = free_expr st in
        let b1 = List.init (int_range 0 3 st) (fun _ -> free_stmt_n (n / 2) st) in
        let b2 = List.init (int_range 0 2 st) (fun _ -> free_stmt_n (n / 2) st) in
        mk (Ast.Sif (c, b1, b2))
    | _ ->
        let v = oneof var_names st in
        let step = oneof [| 1; 2; 3 |] st in
        let lo = int_range 0 4 st and hi = int_range 0 8 st in
        let body =
          List.init (int_range 1 3 st) (fun _ -> free_stmt_n (n / 2) st)
        in
        mk
          (Ast.Sfor
             {
               Ast.var = v;
               from_ = Ast.Eint lo;
               to_ = Ast.Eint hi;
               step = Ast.Eint step;
               body;
             })

let free_stmt st = free_stmt_n (min (Random.State.int st 100) 6) st

let free_program st =
  let body = List.init (int_range 1 8 st) (fun _ -> free_stmt st) in
  Ast.renumber
    {
      Ast.decls =
        [ Ast.Dshared ("A", Ast.Eint 64); Ast.Dshared ("B", Ast.Eint 64) ];
      procs = [ { Ast.pname = "main"; params = []; body } ];
    }

(* ---- well-formed SPMD programs ---- *)

type config = {
  shared_elems : int;  (** elements in each of the shared arrays A and B *)
  private_elems : int;  (** elements in each of the private arrays P and Q *)
  max_segments : int;  (** barrier-delimited phases per program *)
  max_stmts : int;  (** statements per segment *)
  max_depth : int;  (** expression depth *)
  annotations : bool;  (** sprinkle random CICO directives *)
  racy : bool;
      (** deliberately break the DRF discipline: some segments write
          shared elements at unconstrained indices with no lock, so
          several nodes may hit the same element in one epoch. Exercises
          the race oracle's racy direction — never pass such programs
          with [~expect_race_free]. *)
}

let default_config =
  {
    shared_elems = 64;
    private_elems = 16;
    max_segments = 4;
    max_stmts = 5;
    max_depth = 3;
    annotations = true;
    racy = false;
  }

(* A segment's sharing discipline decides which shared reads and writes
   the expression grammar may produce. *)
type sharing = No_shared | Own_chunk | Any_shared

(* Index wrappers: in-bounds for any payload value and any node count.
   The chunk [N / nprocs] partitions A so concurrent writers are
   element-disjoint. *)
let chunk = Ast.(Ebinop (Div, Evar "N", Evar "nprocs"))
let wrap_abs e = Ast.Ecall ("abs", [ e ])

let own_index payload =
  Ast.(
    Ebinop
      (Add, Ebinop (Mul, Evar "pid", chunk), Ebinop (Mod, wrap_abs payload, chunk)))

let any_index payload = Ast.(Ebinop (Mod, wrap_abs payload, Evar "N"))
let priv_index cfg payload = Ast.(Ebinop (Mod, wrap_abs payload, Eint cfg.private_elems))

(* Float-only scalars: the prelude gives each a float literal, and after
   that only [float_store] writes them, as it alone writes Q. *)
let float_names = [| "f"; "g" |]
let float_lit st = Ast.Efloat (float_of_int (int_range 1 40 st) /. 4.0)

let rec vexpr cfg sharing ~depth st =
  if depth <= 0 then leaf st
  else
    let sub st = vexpr cfg sharing ~depth:(depth - 1) st in
    match Random.State.int st 12 with
    | 0 | 1 | 2 ->
        Ast.Ebinop (oneof Ast.[| Add; Sub; Mul |] st, sub st, sub st)
    | 3 ->
        (* divide and modulo only by a non-zero literal *)
        Ast.Ebinop (oneof Ast.[| Div; Mod |] st, sub st, Ast.Eint (int_range 1 7 st))
    | 4 ->
        Ast.Ebinop
          (oneof Ast.[| Lt; Le; Gt; Ge; Eq; Ne; And; Or |] st, sub st, sub st)
    | 5 -> Ast.Eunop (oneof Ast.[| Neg; Not |] st, sub st)
    | 6 -> Ast.Ecall (oneof [| "min"; "max" |] st, [ sub st; sub st ])
    | 7 ->
        let f = oneof [| "abs"; "floor"; "float"; "int"; "noise" |] st in
        Ast.Ecall (f, [ sub st ])
    | 8 -> Ast.Ecall ("sqrt", [ wrap_abs (sub st) ])
    | 9 | 10 -> shared_read cfg sharing ~depth st
    | 11 -> fexpr cfg sharing ~depth:(depth - 1) st
    | _ -> leaf st

and leaf st =
  match Random.State.int st 7 with
  | 0 -> Ast.Eint (int_range 0 20 st)
  | 1 -> Ast.Efloat (float_of_int (int_range 0 40 st) /. 4.0)
  | 2 | 3 -> Ast.Evar (oneof var_names st)
  | 4 -> Ast.Evar "pid"
  | 5 -> Ast.Evar "nprocs"
  | _ -> Ast.Evar (oneof float_names st)

(* Float-typed trees: every node is a float, or the int 0 of an element
   of Q nobody wrote, whatever the operands hold at run time. They are
   all that is ever written to the float-only scalars and to Q, so a
   typing engine keeps those unboxed. Divisors are non-zero literals. *)
and fexpr cfg sharing ~depth st =
  if depth <= 0 then fleaf cfg st
  else
    let sub st = fexpr cfg sharing ~depth:(depth - 1) st in
    match Random.State.int st 10 with
    | 0 | 1 | 2 ->
        Ast.Ebinop (oneof Ast.[| Add; Sub; Mul |] st, sub st, sub st)
    | 3 -> Ast.Ebinop (oneof Ast.[| Div; Mod |] st, sub st, float_lit st)
    | 4 -> Ast.Eunop (Ast.Neg, sub st)
    | 5 -> Ast.Ecall (oneof [| "min"; "max" |] st, [ sub st; sub st ])
    | 6 -> Ast.Ecall (oneof [| "abs"; "floor" |] st, [ sub st ])
    | 7 -> Ast.Ecall ("sqrt", [ wrap_abs (sub st) ])
    | 8 ->
        (* an int or mixed tree as a float, or through [noise] *)
        let v = vexpr cfg sharing ~depth:(depth - 1) st in
        Ast.Ecall (oneof [| "float"; "noise" |] st, [ v ])
    | _ -> fleaf cfg st

and fleaf cfg st =
  match Random.State.int st 4 with
  | 0 -> float_lit st
  | 1 -> Ast.Evar (oneof float_names st)
  | 2 -> Ast.Eindex ("Q", priv_index cfg (vexpr cfg No_shared ~depth:1 st))
  | _ ->
      (* a float expression as a subscript *)
      Ast.Eindex ("Q", priv_index cfg (fexpr cfg No_shared ~depth:1 st))

and shared_read cfg sharing ~depth st =
  match sharing with
  | No_shared -> leaf st
  | Own_chunk ->
      (* this node's own chunk of A (other nodes may be writing theirs),
         or any element of B — B is only written in locked segments *)
      let payload = vexpr cfg sharing ~depth:(depth - 1) st in
      if Random.State.bool st then Ast.Eindex ("A", own_index payload)
      else Ast.Eindex ("B", any_index payload)
  | Any_shared -> (
      let payload = vexpr cfg sharing ~depth:(depth - 1) st in
      let arr = oneof array_names st in
      (* a quarter of the reads take an affine subscript of [pid], in
         bounds while [nprocs <= N], which the compiled engine folds *)
      match Random.State.int st 8 with
      | 0 -> Ast.Eindex (arr, Ast.(Ebinop (Sub, Ebinop (Sub, Evar "N", Eint 1), Evar "pid")))
      | 1 -> Ast.Eindex (arr, Ast.Evar "pid")
      | _ -> Ast.Eindex (arr, any_index payload))

let gen_annot cfg st =
  let kind =
    oneof
      Ast.[| Check_out_x; Check_out_s; Check_in; Prefetch_x; Prefetch_s; Post_store |]
      st
  in
  let bound st = Ast.Ecall ("int", [ vexpr cfg No_shared ~depth:1 st ]) in
  let lo = bound st in
  let hi = bound st in
  mk (Ast.Sannot (kind, { Ast.arr = oneof array_names st; lo; hi }))

let sharing_of = function
  | `Local -> Own_chunk
  | `Read_only -> Any_shared
  | `Locked -> No_shared
  | `Racy -> Any_shared

(* One logical statement; the while pattern expands to two (counter init +
   loop) so the loop always terminates. *)
(* A float tree clamped to [-64, 64] by [min]/[max], whose ordering
   puts NaN below every float: repeated products in loops would otherwise
   overflow, and an infinity or NaN subscript is out of bounds. *)
let float_store cfg sharing ~depth st =
  let lim = Ast.Efloat 64.0 in
  Ast.Ecall
    ( "min",
      [
        Ast.Ecall ("max", [ fexpr cfg sharing ~depth st; Ast.Eunop (Ast.Neg, lim) ]);
        lim;
      ] )

let rec stmt1 cfg kind ~sdepth st =
  let sharing = sharing_of kind in
  let depth = cfg.max_depth in
  match Random.State.int st 11 with
  | 0 | 1 ->
      [ mk (Ast.Sassign (Ast.Lvar (oneof var_names st), vexpr cfg sharing ~depth st)) ]
  | 2 ->
      let idx = priv_index cfg (vexpr cfg sharing ~depth:(depth - 1) st) in
      [ mk (Ast.Sassign (Ast.Lindex ("P", idx), vexpr cfg sharing ~depth st)) ]
  | 3 when kind = `Local ->
      let idx = own_index (vexpr cfg sharing ~depth:(depth - 1) st) in
      [ mk (Ast.Sassign (Ast.Lindex ("A", idx), vexpr cfg sharing ~depth st)) ]
  | 3 when kind = `Racy ->
      (* unsynchronized shared write at an unconstrained index — the
         deliberate race the detector must find *)
      let idx = any_index (vexpr cfg sharing ~depth:(depth - 1) st) in
      [
        mk
          (Ast.Sassign
             ( Ast.Lindex (oneof array_names st, idx),
               vexpr cfg sharing ~depth st ));
      ]
  | 4 ->
      let n = int_range 1 2 st in
      [ mk (Ast.Sprint (List.init n (fun _ -> vexpr cfg sharing ~depth:(depth - 1) st))) ]
  | 5 when cfg.annotations -> [ gen_annot cfg st ]
  | 6 when sdepth > 0 ->
      let c = vexpr cfg sharing ~depth:(depth - 1) st in
      let b1 = block cfg kind ~sdepth:(sdepth - 1) ~n:(int_range 1 2 st) st in
      let b2 =
        if Random.State.bool st then []
        else block cfg kind ~sdepth:(sdepth - 1) ~n:1 st
      in
      [ mk (Ast.Sif (c, b1, b2)) ]
  | 7 when sdepth > 0 ->
      let body = block cfg kind ~sdepth:(sdepth - 1) ~n:(int_range 1 2 st) st in
      [
        mk
          (Ast.Sfor
             {
               Ast.var = oneof var_names st;
               from_ = Ast.Eint (int_range 0 2 st);
               to_ = Ast.Eint (int_range 0 5 st);
               step = Ast.Eint (int_range 1 2 st);
               body;
             });
      ]
  | 9 ->
      let target =
        if Random.State.bool st then Ast.Lvar (oneof float_names st)
        else
          Ast.Lindex
            ("Q", priv_index cfg (vexpr cfg sharing ~depth:(depth - 1) st))
      in
      [ mk (Ast.Sassign (target, float_store cfg sharing ~depth st)) ]
  | 8 when sdepth > 0 ->
      (* while loops always step a dedicated counter the rest of the
         grammar never touches, so they terminate *)
      let w = "wc" ^ string_of_int sdepth in
      let limit = int_range 1 3 st in
      let body = block cfg kind ~sdepth:(sdepth - 1) ~n:1 st in
      [
        mk (Ast.Sassign (Ast.Lvar w, Ast.Eint 0));
        mk
          (Ast.Swhile
             ( Ast.(Ebinop (Lt, Evar w, Eint limit)),
               body
               @ [ mk (Ast.Sassign (Ast.Lvar w, Ast.(Ebinop (Add, Evar w, Eint 1)))) ]
             ));
      ]
  | _ ->
      [ mk (Ast.Sassign (Ast.Lvar (oneof var_names st), vexpr cfg sharing ~depth:1 st)) ]

and block cfg kind ~sdepth ~n st =
  List.concat (List.init n (fun _ -> stmt1 cfg kind ~sdepth st))

(* A balanced lock group: read-modify-write of B under lock 1 (always
   lock 1, even when lock 2 is additionally nested, so every B update is
   protected by a common lock). Contributions are integer-valued and read
   no shared data, so the final sums are independent of acquisition
   order. *)
let lock_group cfg st =
  let update st =
    let j = any_index (vexpr cfg No_shared ~depth:1 st) in
    mk
      Ast.(
        Sassign
          ( Lindex ("B", j),
            Ebinop
              ( Add,
                Eindex ("B", j),
                Ecall ("int", [ vexpr cfg No_shared ~depth:(cfg.max_depth - 1) st ])
              ) ))
  in
  let extras =
    if Random.State.int st 3 = 0 then stmt1 cfg `Locked ~sdepth:0 st else []
  in
  let inner =
    update st :: (if Random.State.bool st then [ update st ] else []) @ extras
  in
  let l n = mk (Ast.Slock (Ast.Eint n)) and u n = mk (Ast.Sunlock (Ast.Eint n)) in
  let group =
    match Random.State.int st 3 with
    | 0 -> (l 1 :: inner) @ [ u 1 ]
    | 1 -> (l 1 :: l 1 :: inner) @ [ u 1; u 1 ] (* reentrant *)
    | _ -> (l 1 :: l 2 :: inner) @ [ u 2; u 1 ] (* nested, fixed order *)
  in
  if Random.State.int st 4 = 0 then
    [
      mk
        (Ast.Sfor
           {
             Ast.var = oneof var_names st;
             from_ = Ast.Eint 0;
             to_ = Ast.Eint (int_range 0 2 st);
             step = Ast.Eint 1;
             body = group;
           });
    ]
  else group

(* A private-only loop: 16-64 iterations over P, Q and the scalars,
   long enough to cross several scheduling quanta, so a node runs far
   ahead of the others in a loop no other node can observe. Subscripts
   come from the counter [k], and every value written stays finite and
   bounded: the float-only scalars and Q through [float_store], P by
   halving, and the scalar [acc] modulo a literal. A third of the loops
   index with affine subscripts, in bounds by construction, which the
   compiled engine folds into the access: [k] over every element
   ([P[15 - k]]), or [k] and [m] over a 4-wide nest ([Q[4 * k + m]]).
   The rest wrap a payload in [abs] and [%]. *)
let private_loop cfg st =
  let k = Ast.Evar "k" and m = Ast.Evar "m" in
  let last = cfg.private_elems - 1 in
  let affine = Random.State.int st 3 in
  let at st =
    let r = Random.State.int st 3 in
    match affine with
    | 0 when r = 0 -> k
    | 0 when r = 1 -> Ast.(Ebinop (Sub, Eint last, k))
    | 0 -> Ast.(Ebinop (Sub, Ebinop (Mul, Eint 2, k), k))
    | 1 ->
        let flat = Ast.(Ebinop (Add, Ebinop (Mul, Eint 4, k), m)) in
        if r = 0 then flat
        else if r = 1 then Ast.(Ebinop (Sub, Eint last, flat))
        else Ast.(Ebinop (Add, Ebinop (Mul, k, Eint 4), Ebinop (Sub, Eint 3, m)))
    | _ ->
        priv_index cfg
          Ast.(
            Ebinop
              (Add, Ebinop (Mul, k, Eint (int_range 1 5 st)), Eint (int_range 0 15 st)))
  in
  let value st = vexpr cfg No_shared ~depth:(cfg.max_depth - 1) st in
  let stmt st =
    match Random.State.int st 4 with
    | 0 ->
        let target =
          if Random.State.bool st then Ast.Lvar (oneof float_names st)
          else Ast.Lindex ("Q", at st)
        in
        mk (Ast.Sassign (target, float_store cfg No_shared ~depth:cfg.max_depth st))
    | 1 ->
        mk
          Ast.(
            Sassign
              ( Lindex ("P", at st),
                Ebinop (Add, Ebinop (Mul, Eindex ("P", at st), Efloat 0.5), value st) ))
    | 2 ->
        mk
          Ast.(
            Sassign
              (Lvar "acc", Ebinop (Mod, Ebinop (Add, Evar "acc", value st), Eint 997)))
    | _ ->
        mk
          (Ast.Sif
             ( vexpr cfg No_shared ~depth:1 st,
               [ mk (Ast.Sassign (Ast.Lindex ("Q", at st), float_store cfg No_shared ~depth:1 st)) ],
               [] ))
  in
  let loop var hi body =
    mk (Ast.Sfor { Ast.var; from_ = Ast.Eint 0; to_ = Ast.Eint hi; step = Ast.Eint 1; body })
  in
  let body () = List.init (int_range 1 3 st) (fun _ -> stmt st) in
  match affine with
  | 0 -> loop "k" last (body ())
  | 1 -> loop "k" ((last + 1) / 4 - 1) [ loop "m" 3 (body ()) ]
  | _ -> loop "k" (int_range 15 63 st) (body ())

(* What follows a private loop in its segment: maybe a print of private
   values, then an access another node can see, as the segment's
   discipline allows (a locked segment's lock groups come next anyway). *)
let after_private_loop cfg kind st =
  let print =
    if Random.State.bool st then
      [ mk (Ast.Sprint [ Ast.Evar "acc"; Ast.Evar (oneof float_names st) ]) ]
    else []
  in
  let depth = cfg.max_depth - 1 in
  let shared =
    match kind with
    | `Local ->
        let idx = own_index (vexpr cfg Own_chunk ~depth st) in
        [ mk (Ast.Sassign (Ast.Lindex ("A", idx), vexpr cfg Own_chunk ~depth st)) ]
    | `Read_only ->
        [ mk (Ast.Sassign (Ast.Lvar (oneof var_names st), shared_read cfg Any_shared ~depth st)) ]
    | `Racy ->
        let idx = any_index (vexpr cfg Any_shared ~depth st) in
        [ mk (Ast.Sassign (Ast.Lindex (oneof array_names st, idx), vexpr cfg Any_shared ~depth st)) ]
    | `Locked -> []
  in
  print @ shared

let segment cfg st =
  let kind =
    (* the racy branch draws first so a racy=false configuration consumes
       the exact random stream it always did *)
    if cfg.racy && Random.State.int st 2 = 0 then `Racy
    else
      match Random.State.int st 10 with
      | 0 | 1 | 2 | 3 | 4 -> `Local
      | 5 | 6 | 7 -> `Read_only
      | _ -> `Locked
  in
  let lead =
    if Random.State.int st 3 = 0 then
      private_loop cfg st :: after_private_loop cfg kind st
    else []
  in
  let body =
    match kind with
    | `Locked ->
        List.concat
          (List.init (int_range 1 2 st) (fun _ -> lock_group cfg st))
    | (`Local | `Read_only | `Racy) as k ->
        block cfg k ~sdepth:2 ~n:(int_range 1 cfg.max_stmts st) st
  in
  lead @ body @ [ mk Ast.Sbarrier ]

(* Every scalar the grammar can read is assigned before the first segment,
   so no run trips over an undefined variable; the float-only ones get a
   float literal. *)
let prelude st =
  [
    mk Ast.(Sassign (Lvar "x", Evar "pid"));
    mk Ast.(Sassign (Lvar "y", Eint 1));
    mk Ast.(Sassign (Lvar "z", Eint 0));
    mk Ast.(Sassign (Lvar "acc", Eint 0));
    mk Ast.(Sassign (Lvar "tmp", Eint 2));
  ]
  @ List.map
      (fun f -> mk (Ast.Sassign (Ast.Lvar f, float_lit st)))
      (Array.to_list float_names)

let spmd ?(config = default_config) st =
  let cfg = config in
  let nsegs = int_range 1 cfg.max_segments st in
  let prelude = prelude st in
  let body = prelude @ List.concat (List.init nsegs (fun _ -> segment cfg st)) in
  Ast.renumber
    {
      Ast.decls =
        [
          Ast.Dconst ("N", Ast.Eint cfg.shared_elems);
          Ast.Dshared ("A", Ast.Evar "N");
          Ast.Dshared ("B", Ast.Evar "N");
          Ast.Dprivate ("P", Ast.Eint cfg.private_elems);
          Ast.Dprivate ("Q", Ast.Eint cfg.private_elems);
        ];
      procs = [ { Ast.pname = "main"; params = []; body } ];
    }

(* ---- program size (AST node count) ---- *)

let rec expr_size = function
  | Ast.Eint _ | Ast.Efloat _ | Ast.Evar _ -> 1
  | Ast.Eindex (_, e) | Ast.Eunop (_, e) -> 1 + expr_size e
  | Ast.Ebinop (_, a, b) -> 1 + expr_size a + expr_size b
  | Ast.Ecall (_, args) -> List.fold_left (fun acc e -> acc + expr_size e) 1 args

let rec stmt_size s =
  match s.Ast.node with
  | Ast.Sassign (Ast.Lvar _, e) -> 1 + expr_size e
  | Ast.Sassign (Ast.Lindex (_, i), e) -> 1 + expr_size i + expr_size e
  | Ast.Sif (c, b1, b2) -> 1 + expr_size c + block_nodes b1 + block_nodes b2
  | Ast.Sfor { Ast.from_; to_; step; body; _ } ->
      1 + expr_size from_ + expr_size to_ + expr_size step + block_nodes body
  | Ast.Swhile (c, b) -> 1 + expr_size c + block_nodes b
  | Ast.Sbarrier | Ast.Sannot_table _ -> 1
  | Ast.Scall (_, es) | Ast.Sprint es ->
      List.fold_left (fun acc e -> acc + expr_size e) 1 es
  | Ast.Sreturn None -> 1
  | Ast.Sreturn (Some e) | Ast.Slock e | Ast.Sunlock e -> 1 + expr_size e
  | Ast.Sannot (_, { Ast.lo; hi; _ }) -> 1 + expr_size lo + expr_size hi

and block_nodes b = List.fold_left (fun acc s -> acc + stmt_size s) 0 b

let size_program p =
  List.fold_left (fun acc pr -> acc + block_nodes pr.Ast.body) 0 p.Ast.procs

(* ---- shrinking ----

   Candidates must preserve well-formedness: lock/unlock pairs are
   removed only as whole balanced groups, barriers only with their whole
   segment (dropping a lone barrier would merge two segments and could
   create a cross-node race), while-loop counter updates only with their
   loop, and shared indices keep their bounds-respecting wrapper — only
   the wrapper's payload shrinks, or an own-chunk index collapses to the
   still-race-free [pid]. Candidates that break a program anyway (say, by
   removing the initialisation of a scalar that is still read) fail with
   [Runtime_error] when re-checked and are rejected by the runner, not
   here. *)

let expr_children = function
  | Ast.Eint _ | Ast.Efloat _ | Ast.Evar _ -> []
  | Ast.Eindex (_, e) | Ast.Eunop (_, e) -> [ e ]
  | Ast.Ebinop (_, a, b) -> [ a; b ]
  | Ast.Ecall (_, args) -> args

(* Shrinks of an expression in a value position: literal collapse, then
   promotion of any sub-expression. *)
let value_shrinks e =
  let lits =
    match e with
    | Ast.Eint 0 -> []
    | Ast.Eint 1 -> [ Ast.Eint 0 ]
    | _ -> [ Ast.Eint 0; Ast.Eint 1 ]
  in
  List.to_seq (lits @ expr_children e)

(* Shrinks of a shared/private index that keep the bounds wrapper. *)
let index_shrinks idx =
  match idx with
  | Ast.Ebinop
      ( Ast.Add,
        (Ast.Ebinop (Ast.Mul, Ast.Evar "pid", _) as pre),
        Ast.Ebinop (Ast.Mod, Ast.Ecall ("abs", [ p ]), m) ) ->
      (* own-chunk form: [pid] is per-node distinct, hence race-free *)
      Seq.append
        (Seq.return (Ast.Evar "pid"))
        (Seq.map
           (fun p' -> Ast.(Ebinop (Add, pre, Ebinop (Mod, Ecall ("abs", [ p' ]), m))))
           (value_shrinks p))
  | Ast.Ebinop (Ast.Mod, Ast.Ecall ("abs", [ p ]), m) ->
      Seq.append
        (Seq.return (Ast.Eint 0))
        (Seq.map
           (fun p' -> Ast.(Ebinop (Mod, Ecall ("abs", [ p' ]), m)))
           (value_shrinks p))
  | _ -> Seq.empty

let rec stmt_shrinks s =
  let with_node node = { s with Ast.node } in
  match s.Ast.node with
  | Ast.Sassign (Ast.Lvar v, e) ->
      Seq.map (fun e' -> with_node (Ast.Sassign (Ast.Lvar v, e'))) (value_shrinks e)
  | Ast.Sassign
      (Ast.Lindex (arr, idx), Ast.Ebinop (Ast.Add, Ast.Eindex (arr', idx'), c))
    when arr = arr' && idx = idx' ->
      (* locked accumulate: shrink the index on both sides at once so the
         read-modify-write keeps naming a single element *)
      Seq.append
        (Seq.map
           (fun j ->
             with_node
               (Ast.Sassign (Ast.Lindex (arr, j), Ast.(Ebinop (Add, Eindex (arr, j), c)))))
           (index_shrinks idx))
        (Seq.map
           (fun c' ->
             with_node
               (Ast.Sassign
                  (Ast.Lindex (arr, idx), Ast.(Ebinop (Add, Eindex (arr, idx), c')))))
           (value_shrinks c))
  | Ast.Sassign (Ast.Lindex (arr, idx), e) ->
      Seq.append
        (Seq.map
           (fun idx' -> with_node (Ast.Sassign (Ast.Lindex (arr, idx'), e)))
           (index_shrinks idx))
        (Seq.map
           (fun e' -> with_node (Ast.Sassign (Ast.Lindex (arr, idx), e')))
           (value_shrinks e))
  | Ast.Sif (c, b1, b2) ->
      Seq.concat
        (List.to_seq
           [
             Seq.map (fun c' -> with_node (Ast.Sif (c', b1, b2))) (value_shrinks c);
             Seq.map (fun b1' -> with_node (Ast.Sif (c, b1', b2))) (block_shrinks b1);
             Seq.map (fun b2' -> with_node (Ast.Sif (c, b1, b2'))) (block_shrinks b2);
           ])
  | Ast.Sfor fl ->
      let trivial =
        if (fl.Ast.from_, fl.Ast.to_, fl.Ast.step) <> (Ast.Eint 0, Ast.Eint 0, Ast.Eint 1)
        then
          Seq.return
            (with_node
               (Ast.Sfor
                  { fl with Ast.from_ = Ast.Eint 0; to_ = Ast.Eint 0; step = Ast.Eint 1 }))
        else Seq.empty
      in
      Seq.append trivial
        (Seq.map
           (fun b -> with_node (Ast.Sfor { fl with Ast.body = b }))
           (block_shrinks fl.Ast.body))
  | Ast.Swhile (c, b) -> (
      (* the loop's last statement is its counter update — keep it *)
      match List.rev b with
      | last :: rev_init ->
          let init = List.rev rev_init in
          Seq.map
            (fun b' -> with_node (Ast.Swhile (c, b' @ [ last ])))
            (block_shrinks init)
      | [] -> Seq.empty)
  | Ast.Sprint es ->
      Seq.concat
        (List.to_seq
           [
             (match es with
             | _ :: (_ :: _ as rest) -> Seq.return (with_node (Ast.Sprint rest))
             | _ -> Seq.empty);
             (match es with
             | [ e ] ->
                 Seq.map (fun e' -> with_node (Ast.Sprint [ e' ])) (value_shrinks e)
             | _ -> Seq.empty);
           ])
  | Ast.Sannot (k, r) ->
      Seq.append
        (Seq.map
           (fun lo -> with_node (Ast.Sannot (k, { r with Ast.lo })))
           (value_shrinks r.Ast.lo))
        (Seq.map
           (fun hi -> with_node (Ast.Sannot (k, { r with Ast.hi })))
           (value_shrinks r.Ast.hi))
  | _ -> Seq.empty

and block_shrinks (b : Ast.block) : Ast.block Seq.t =
  let arr = Array.of_list b in
  let n = Array.length arr in
  let splice i j repl =
    (* replace positions [i..j] with [repl] *)
    List.concat
      (List.init n (fun k ->
           if k < i || k > j then [ arr.(k) ] else if k = i then repl else []))
  in
  let lock_lit s =
    match s.Ast.node with
    | Ast.Slock (Ast.Eint l) -> Some (`Lock l)
    | Ast.Sunlock (Ast.Eint l) -> Some (`Unlock l)
    | _ -> None
  in
  let at i =
    match arr.(i).Ast.node with
    | Ast.Slock (Ast.Eint l) -> (
        (* remove the whole balanced group, nested same-lock holds included *)
        let rec close k depth =
          if k >= n then None
          else
            match lock_lit arr.(k) with
            | Some (`Lock l') when l' = l -> close (k + 1) (depth + 1)
            | Some (`Unlock l') when l' = l ->
                if depth = 1 then Some k else close (k + 1) (depth - 1)
            | _ -> close (k + 1) depth
        in
        match close (i + 1) 1 with
        | Some j ->
            (* peeling one level of a reentrant hold keeps the body
               protected by the inner hold, so it never introduces a
               race *)
            let peel =
              if i + 1 < n && lock_lit arr.(i + 1) = Some (`Lock l) then
                Seq.return
                  (List.concat
                     (List.init n (fun k ->
                          if k = i || k = j then [] else [ arr.(k) ])))
              else Seq.empty
            in
            Seq.append (Seq.return (splice i j [])) peel
        | None -> Seq.empty)
    | Ast.Slock _ | Ast.Sunlock _ | Ast.Sbarrier -> Seq.empty
    | Ast.Sif (_, b1, b2) ->
        Seq.concat
          (List.to_seq
             [
               Seq.return (splice i i []);
               (if b1 <> [] then Seq.return (splice i i b1) else Seq.empty);
               (if b2 <> [] then Seq.return (splice i i b2) else Seq.empty);
               Seq.map (fun s' -> splice i i [ s' ]) (stmt_shrinks arr.(i));
             ])
    | Ast.Sfor { Ast.body; _ } | Ast.Swhile (_, body) ->
        Seq.concat
          (List.to_seq
             [
               Seq.return (splice i i []);
               (if body <> [] then Seq.return (splice i i body) else Seq.empty);
               Seq.map (fun s' -> splice i i [ s' ]) (stmt_shrinks arr.(i));
             ])
    | _ ->
        Seq.append
          (Seq.return (splice i i []))
          (Seq.map (fun s' -> splice i i [ s' ]) (stmt_shrinks arr.(i)))
  in
  Seq.concat_map at (Seq.init n Fun.id)

(* Split a proc body into barrier-terminated segments. *)
let split_segments body =
  let rec go acc cur = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | s :: rest -> (
        match s.Ast.node with
        | Ast.Sbarrier -> go (List.rev (s :: cur) :: acc) [] rest
        | _ -> go acc (s :: cur) rest)
  in
  go [] [] body

let shrink_spmd (p : Ast.program) : Ast.program Seq.t =
  match p.Ast.procs with
  | [ main ] ->
      let rebuild body =
        Ast.renumber { p with Ast.procs = [ { main with Ast.body = body } ] }
      in
      let segs = split_segments main.Ast.body in
      let nsegs = List.length segs in
      let seg_removals =
        if nsegs <= 1 then Seq.empty
        else
          Seq.init nsegs (fun i ->
              rebuild (List.concat (List.filteri (fun j _ -> j <> i) segs)))
      in
      Seq.append seg_removals (Seq.map rebuild (block_shrinks main.Ast.body))
  | _ -> Seq.empty
