type engine = Tree_walk | Compiled

let run_with ?poll engine ~machine program =
  match engine with
  | Tree_walk -> Interp.run ?poll ~machine program
  | Compiled -> Compile.run ?poll ~machine program

let collect_trace ?poll ?(engine = Compiled) ~machine program =
  let program = Lang.Ast.strip_annotations program in
  run_with ?poll engine ~machine:(Machine.trace_mode machine) program

let measure ?poll ?(engine = Compiled) ~machine ~annotations ~prefetch program =
  run_with ?poll engine
    ~machine:(Machine.perf_mode ~annotations ~prefetch machine)
    program

let source_trace ~machine src = collect_trace ~machine (Lang.Parser.parse src)

let source_measure ~machine ~annotations ~prefetch src =
  measure ~machine ~annotations ~prefetch (Lang.Parser.parse src)
