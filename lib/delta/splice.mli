(** Span edits and AST splicing.

    An edit is a byte-span replacement against a base source text. The
    splicer maps the span onto the base program's top-level items using
    the lexer's token offsets ({!Lang.Lexer.tokenize_loc}), tabled once
    per base ({!items}): an edit that falls strictly inside a single
    procedure re-parses only that procedure's slice and substitutes it
    into the cached AST; anything wider (a declaration, a span crossing
    an item boundary or touching its first or last byte, an edit that
    changes the item structure) falls back to a full re-parse. Either way
    the result is byte-for-byte the program a full parse of the edited
    source would produce — sids included — which the qcheck property
    [splice(src, span, text) = parse(apply_edit(src, span, text))]
    enforces. *)

type span = { start : int; len : int }
(** A byte range [\[start, start+len)] of the base source. [len = 0] is an
    insertion point. *)

val apply_edit : string -> span -> string -> string
(** [apply_edit src span text] replaces the spanned bytes with [text].
    @raise Invalid_argument if the span is out of bounds. *)

val diff_span : string -> string -> (span * string) option
(** [diff_span base edited] is the minimal single-span edit turning [base]
    into [edited] (longest common prefix/suffix), or [None] if the strings
    are equal. *)

type kind = Const | Shared | Private | Proc

type item = { ikind : kind; iname : string; istart : int; istop : int }
(** A top-level item of the source: a declaration (ending at its [;]) or a
    procedure (ending at its closing brace). Offsets are byte spans. *)

val items : string -> item list
(** Top-level items in textual order.
    @raise Lang.Lexer.Error on an unlexable source. *)

val int_literals : string -> (span * int) list
(** Byte spans of the integer literals inside procedure bodies, in textual
    order — the single-token edit candidates used by the fuzzer, the load
    generator and the benchmark harness. *)

val splice :
  items:item list ->
  base:string ->
  base_ast:Lang.Ast.program ->
  span ->
  string ->
  Lang.Ast.program * [ `Incremental of int * item list | `Full ]
(** [splice ~items ~base ~base_ast span text] parses the edited source,
    incrementally when the edit stays strictly inside one procedure
    ([`Incremental (k, items')] re-parses only the slice of [procs]'s
    [k]-th procedure and renumbers; [items'] is the edited source's
    table), and with a full {!Lang.Parser.parse} otherwise. [items] must
    be [items base] and [base_ast] the parse of [base]; the base is not
    tokenized again. Raises whatever a full parse of the edited source
    would raise when the edited text is invalid. *)
