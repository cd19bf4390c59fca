(** Loop-structure analysis (Section 4.3 uses it to collapse annotations).

    In a structured language the loop forest is syntax-directed. Each loop
    records its header statement, induction variable (for [for] loops), its
    nesting depth (1 = outermost) and every statement id in its body,
    including those of nested loops. *)

type loop = {
  header_sid : int;
  var : string option;  (** induction variable; [None] for [while] *)
  depth : int;
  body_sids : int list;  (** all sids strictly inside the loop *)
}

val of_program : Ast.program -> loop list
(** Loops of every procedure, in program order; within a procedure in
    pre-order (outer before inner). *)

val containing : loop list -> int -> loop list
(** Loops whose body contains the statement, outermost first. *)

val innermost_containing : loop list -> int -> loop option

val loop_of_header : loop list -> int -> loop option
