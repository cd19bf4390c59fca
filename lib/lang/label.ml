type entry = { name : string; base : int; elems : int; elem_size : int }

type t = { table : entry array; elem_size : int }

let round_up v align = (v + align - 1) / align * align

let layout ~block_size ~elem_size (info : Sema.info) =
  if elem_size <= 0 then invalid_arg "Label.layout: elem_size must be positive";
  let next = ref 0 in
  let table =
    List.map
      (fun (name, elems) ->
        let base = round_up !next block_size in
        next := base + (elems * elem_size);
        { name; base; elems; elem_size })
      info.Sema.shared
  in
  { table = Array.of_list table; elem_size }

let entries t = Array.to_list t.table

let total_bytes t =
  Array.fold_left (fun m e -> max m (e.base + (e.elems * e.elem_size))) 0 t.table

let find_array t name = Array.find_opt (fun e -> e.name = name) t.table

let base t name =
  match find_array t name with Some e -> e.base | None -> raise Not_found

let elems t name =
  match find_array t name with Some e -> e.elems | None -> raise Not_found

let addr_of_elem t name i =
  match find_array t name with
  | None -> raise Not_found
  | Some e ->
      if i < 0 || i >= e.elems then
        invalid_arg
          (Printf.sprintf "Label.addr_of_elem: %s[%d] out of bounds (size %d)"
             name i e.elems);
      e.base + (i * e.elem_size)

let to_label_records t =
  List.map
    (fun e -> (e.name, e.base, e.base + (e.elems * e.elem_size) - 1))
    (entries t)
