(** AST editing helpers used by the annotator. *)

val stmt_by_sid : Ast.program -> int -> Ast.stmt option

val proc_of_sid : Ast.program -> int -> string option
(** Name of the procedure whose body (transitively) contains the
    statement. *)

val insert_before : Ast.program -> sid:int -> Ast.stmt list -> Ast.program
(** Insert statements immediately before the statement with id [sid],
    inside the same block. The program is returned unchanged if [sid] does
    not exist. *)

val insert_after : Ast.program -> sid:int -> Ast.stmt list -> Ast.program

val prepend_to_proc : Ast.program -> proc:string -> Ast.stmt list -> Ast.program
(** Insert at the very beginning of a procedure body. *)

val append_to_proc : Ast.program -> proc:string -> Ast.stmt list -> Ast.program

val barrier_sids : Ast.program -> int list
(** Statement ids of every [barrier], in textual order. *)

val set_const : Ast.program -> string -> int -> Ast.program
(** [set_const p name v] replaces the value of constant declaration
    [name] (used to re-run an annotated program on a different input data
    set by changing its seed). The program is returned unchanged if no
    such constant exists. *)
