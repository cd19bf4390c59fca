type assoc = Left | Right | Non

let op_info = function
  | Ast.Or -> (1, Right)
  | Ast.And -> (2, Right)
  | Ast.Eq | Ast.Ne -> (3, Non)
  | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge -> (4, Non)
  | Ast.Add | Ast.Sub -> (5, Left)
  | Ast.Mul | Ast.Div | Ast.Mod -> (6, Left)

let float_literal f =
  (* Print floats so they re-lex as FLOAT (always keep a decimal point). *)
  let s = Printf.sprintf "%.12g" f in
  if String.contains s '.' || String.contains s 'e' || String.contains s 'n'
  then s
  else s ^ ".0"

let rec expr_prec buf min_prec e =
  let add = Buffer.add_string buf in
  match e with
  | Ast.Eint i ->
      if i < 0 then add (Printf.sprintf "(%d)" i) else add (string_of_int i)
  | Ast.Efloat f ->
      if f < 0.0 then add (Printf.sprintf "(%s)" (float_literal f))
      else add (float_literal f)
  | Ast.Evar name -> add name
  | Ast.Eindex (name, e) ->
      add name;
      add "[";
      expr_prec buf 0 e;
      add "]"
  | Ast.Ecall (name, args) ->
      add name;
      add "(";
      exprs_to buf args;
      add ")"
  | Ast.Eunop (op, a) ->
      add (match op with Ast.Neg -> "-" | Ast.Not -> "!");
      expr_prec buf 7 a
  | Ast.Ebinop (op, l, r) ->
      let prec, assoc = op_info op in
      let need_parens = prec < min_prec in
      if need_parens then add "(";
      expr_prec buf (if assoc = Left then prec else prec + 1) l;
      add " ";
      add (Ast.binop_name op);
      add " ";
      expr_prec buf (if assoc = Right then prec else prec + 1) r;
      if need_parens then add ")"

and exprs_to buf args =
  List.iteri
    (fun k a ->
      if k > 0 then Buffer.add_string buf ", ";
      expr_prec buf 0 a)
    args

let expr_to_string e =
  let buf = Buffer.create 64 in
  expr_prec buf 0 e;
  Buffer.contents buf

(* Statements print into one buffer, a line at a time, each line ending
   in a newline. *)

let table_to buf { Ast.akind; aarr; aranges } =
  Buffer.add_string buf (Ast.annot_kind_name akind);
  Buffer.add_string buf (" " ^ aarr ^ "[");
  Array.iteri
    (fun pid ranges ->
      if ranges <> [] then begin
        Buffer.add_string buf (Printf.sprintf "@%d: " pid);
        List.iteri
          (fun k (lo, hi) ->
            if k > 0 then Buffer.add_string buf ", ";
            Buffer.add_string buf (Printf.sprintf "%d..%d" lo hi))
          ranges;
        Buffer.add_string buf " "
      end)
    aranges;
  (* A table with no ranges at all still needs one row to re-parse. *)
  if Array.for_all (fun r -> r = []) aranges then
    Buffer.add_string buf "@0: 0..-1 ";
  Buffer.add_string buf "];"

let rec stmt_to buf ~note ~indent (s : Ast.stmt) =
  let add = Buffer.add_string buf and expr = expr_prec buf 0 in
  let pad () = for _ = 1 to indent do add "  " done in
  let block b = List.iter (stmt_to buf ~note ~indent:(indent + 1)) b in
  (match note s.Ast.sid with
  | Some msg -> pad (); add "/*** "; add msg; add " ***/\n"
  | None -> ());
  pad ();
  match s.Ast.node with
  | Ast.Sassign (Ast.Lvar name, e) -> add name; add " = "; expr e; add ";\n"
  | Ast.Sassign (Ast.Lindex (name, idx), e) ->
      add name; add "["; expr idx; add "] = "; expr e; add ";\n"
  | Ast.Sif (cond, b1, b2) ->
      add "if ("; expr cond; add ") {\n"; block b1;
      if b2 <> [] then begin pad (); add "} else {\n"; block b2 end;
      pad (); add "}\n"
  | Ast.Sfor { var; from_; to_; step; body } ->
      add "for "; add var; add " = "; expr from_; add " to "; expr to_;
      (match step with Ast.Eint 1 -> () | e -> add " step "; expr e);
      add " {\n"; block body; pad (); add "}\n"
  | Ast.Swhile (cond, body) ->
      add "while ("; expr cond; add ") {\n"; block body; pad (); add "}\n"
  | Ast.Sbarrier -> add "barrier;\n"
  | Ast.Scall (name, args) -> add name; add "("; exprs_to buf args; add ");\n"
  | Ast.Sreturn None -> add "return;\n"
  | Ast.Sreturn (Some e) -> add "return "; expr e; add ";\n"
  | Ast.Slock e -> add "lock("; expr e; add ");\n"
  | Ast.Sunlock e -> add "unlock("; expr e; add ");\n"
  | Ast.Sannot (kind, { Ast.arr; lo; hi }) ->
      add (Ast.annot_kind_name kind); add " "; add arr; add "["; expr lo;
      if lo <> hi then begin add " .. "; expr hi end;
      add "];\n"
  | Ast.Sannot_table tbl -> table_to buf tbl; add "\n"
  | Ast.Sprint args -> add "print("; exprs_to buf args; add ");\n"

let program_to_string ?(note = fun _ -> None) (p : Ast.program) =
  let buf = Buffer.create 4096 in
  let add = Buffer.add_string buf and expr = expr_prec buf 0 in
  List.iter
    (function
      | Ast.Dconst (name, e) -> add "const "; add name; add " = "; expr e; add ";\n"
      | Ast.Dshared (name, e) -> add "shared "; add name; add "["; expr e; add "];\n"
      | Ast.Dprivate (name, e) ->
          add "private "; add name; add "["; expr e; add "];\n")
    p.Ast.decls;
  if p.Ast.decls <> [] then Buffer.add_char buf '\n';
  List.iteri
    (fun k (proc : Ast.proc) ->
      if k > 0 then Buffer.add_char buf '\n';
      add "proc "; add proc.pname; add "(";
      add (String.concat ", " proc.params);
      add ") {\n";
      List.iter (stmt_to buf ~note ~indent:1) proc.body;
      add "}\n")
    p.Ast.procs;
  Buffer.contents buf

let stmt_to_string s =
  let buf = Buffer.create 64 in
  stmt_to buf ~note:(fun _ -> None) ~indent:0 s;
  Buffer.sub buf 0 (Buffer.length buf - 1)
