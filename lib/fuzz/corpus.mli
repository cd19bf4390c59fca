(** Counterexample corpus.

    A corpus entry is a [.cico] source file whose leading [//] comment
    lines record the failing oracle, the machine's node count, the fuzzer
    seed and a one-line failure description. The lexer skips [//]
    comments, so a corpus file feeds straight into [Lang.Parser.parse] —
    both for deterministic regression replay in the test suite and for
    [cachier_fuzz --replay]. *)

type entry = {
  oracle : string;
  detail : string;
  seed : int;
  nodes : int;
  protocol : Memsys.Protocol_id.t;
      (** coherence backend the failure reproduced under; [dir1sw] for
          entries written before protocol rotation *)
  source : string;
}

val render : entry -> string

val save : dir:string -> entry -> string
(** Write the entry (creating [dir] if needed) under a content-derived
    name, [<oracle>-<protocol>-<hash>.cico], so re-finding the same
    shrunk counterexample overwrites rather than accumulates and each
    backend keeps its own corpus; returns the path. *)

val load : string -> entry
val load_dir : string -> (string * entry) list
(** All [.cico] entries in a directory, sorted by filename; empty if the
    directory does not exist. *)
