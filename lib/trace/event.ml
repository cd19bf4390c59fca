type miss_kind = Read_miss | Write_miss | Write_fault

type miss = { node : int; pc : int; addr : int; kind : miss_kind; held : int list }
type barrier = { bnode : int; bpc : int; vt : int }

type record =
  | Miss of miss
  | Barrier of barrier
  | Label of { name : string; lo : int; hi : int }

let pp_miss_kind ppf k =
  Format.pp_print_string ppf
    (match k with
    | Read_miss -> "R"
    | Write_miss -> "W"
    | Write_fault -> "F")

let pp ppf = function
  | Miss m -> (
      Format.fprintf ppf "M %d %d %d %a" m.node m.pc m.addr pp_miss_kind m.kind;
      match m.held with
      | [] -> ()
      | locks ->
          Format.fprintf ppf " L%s"
            (String.concat "," (List.map string_of_int locks)))
  | Barrier b -> Format.fprintf ppf "B %d %d %d" b.bnode b.bpc b.vt
  | Label l -> Format.fprintf ppf "L %s %d %d" l.name l.lo l.hi

let equal a b = a = b
