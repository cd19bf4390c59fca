module Iset = Trace.Epoch.Iset

type term = { label : string; per_array : (string * int) list }

type node_explanation = { node : int; terms : term list }

type epoch_explanation = {
  eindex : int;
  racy_arrays : string list;
  false_shared_arrays : string list;
  nodes : node_explanation list;
}

type t = { mode : Equations.mode; epochs : epoch_explanation list }

let term_sets mode info ~epoch ~node =
  List.map
    (fun (t : Equations.term) ->
      let set =
        match t.Equations.set with
        | Equations.Co_x -> "co_x"
        | Equations.Co_s -> "co_s"
        | Equations.Ci -> "ci"
      in
      (set ^ ": " ^ t.Equations.label, t.Equations.addrs))
    (Equations.terms mode info ~epoch ~node)

(* A term set ascends, so an array's addresses are one run: one cursor
   over the label table finds each run's array, and the table takes one
   update per run. Arrays with equal counts keep the table's fold
   order. *)
let per_array_counts ~layout set =
  let table : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let entries = Array.of_list (Lang.Label.entries layout) in
  let limit (e : Lang.Label.entry) = e.base + (e.elems * e.elem_size) in
  (* the current run: its array, last address and length; an address
     below every array is unlabelled *)
  let entry = ref 0 and name = ref "<unlabelled>" and hi = ref (-1)
  and run = ref 0 in
  let close () =
    if !run > 0 then
      Hashtbl.replace table !name
        (!run + Option.value ~default:0 (Hashtbl.find_opt table !name))
  in
  Iset.iter
    (fun addr ->
      if addr > !hi then begin
        close ();
        run := 0;
        while !entry < Array.length entries && addr >= limit entries.(!entry) do
          incr entry
        done;
        if !entry < Array.length entries then begin
          let e = entries.(!entry) in
          if addr >= e.base then begin
            name := e.name;
            hi := limit e - 1
          end
          else begin
            name := "<unlabelled>";
            hi := e.base - 1
          end
        end
        else begin
          name := "<unlabelled>";
          hi := max_int
        end
      end;
      incr run)
    set;
  close ();
  Hashtbl.fold (fun name c l -> (name, c) :: l) table []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

let arrays_of ~layout set =
  List.map fst (per_array_counts ~layout set)

let build ~mode ~layout (info : Epoch_info.t) =
  let epochs =
    List.init (Epoch_info.n_epochs info) (fun e ->
        let d = info.Epoch_info.drfs.(e) in
        let nodes =
          List.filter_map
            (fun node ->
              let terms =
                List.filter_map
                  (fun (label, set) ->
                    if Iset.is_empty set then None
                    else Some { label; per_array = per_array_counts ~layout set })
                  (term_sets mode info ~epoch:e ~node)
              in
              if terms = [] then None else Some { node; terms })
            (List.init info.Epoch_info.nodes Fun.id)
        in
        {
          eindex = e;
          racy_arrays = arrays_of ~layout (Drfs.race d);
          false_shared_arrays = arrays_of ~layout (Drfs.false_shared d);
          nodes;
        })
  in
  { mode; epochs }

let pp ppf t =
  let f fmt = Format.fprintf ppf fmt in
  f "@[<v>annotation rationale (%s CICO)@,"
    (match t.mode with
    | Equations.Programmer -> "Programmer"
    | Equations.Performance -> "Performance");
  List.iter
    (fun e ->
      if e.racy_arrays <> [] || e.false_shared_arrays <> [] || e.nodes <> []
      then begin
        f "@,epoch %d:@," e.eindex;
        if e.racy_arrays <> [] then
          f "  data races on: %s@," (String.concat ", " e.racy_arrays);
        if e.false_shared_arrays <> [] then
          f "  false sharing on: %s@," (String.concat ", " e.false_shared_arrays);
        List.iter
          (fun n ->
            f "  node %d:@," n.node;
            List.iter
              (fun term ->
                f "    %s: %s@," term.label
                  (String.concat ", "
                     (List.map
                        (fun (name, c) -> Printf.sprintf "%s (%d)" name c)
                        term.per_array)))
              n.terms)
          e.nodes
      end)
    t.epochs;
  f "@]"

let to_string t = Format.asprintf "%a" pp t
