module Iset = Trace.Epoch.Iset

type kind = Data_race | False_sharing

type item = {
  kind : kind;
  arr : string;
  ranges : (int * int) list;
  epochs : int list;
  pcs : int list;
}

type t = { items : item list }

let build ~layout (einfo : Epoch_info.t) =
  (* Accumulate (kind, arr) -> one run of addresses per epoch, and the
     pcs. Epochs arrive in order and each epoch's addresses ascending, so
     an array's addresses in an epoch are one run: its array and cell are
     found once per run, and one cursor over the epoch's misses by address
     gives each address's pcs. *)
  let acc :
      (kind * string, (int * int list ref) list ref * Iset.t ref) Hashtbl.t =
    Hashtbl.create 16
  in
  let entries = Array.of_list (Lang.Label.entries layout) in
  let limit (e : Lang.Label.entry) = e.base + (e.elems * e.elem_size) in
  let walk kind epoch addrs =
    let misses = einfo.Epoch_info.epochs.(epoch).Trace.Epoch.by_addr in
    let addr_at i =
      if i < Array.length misses then misses.(i).Trace.Event.addr else max_int
    in
    let entry = ref 0 and cursor = ref 0 in
    (* the current run: its array's last address, its addresses, and the
       pcs of its (kind, arr) *)
    let hi = ref (-1) and run = ref (ref []) and pcs = ref (ref Iset.empty) in
    let start addr =
      while !entry < Array.length entries && addr >= limit entries.(!entry) do
        incr entry
      done;
      let next =
        if !entry < Array.length entries then Some entries.(!entry) else None
      in
      let arr =
        match next with
        | Some e when addr >= e.base ->
            hi := limit e - 1;
            e.name
        | Some e ->
            hi := e.base - 1;
            "<unlabelled>"
        | None ->
            hi := max_int;
            "<unlabelled>"
      in
      let runs, pc_list =
        match Hashtbl.find_opt acc (kind, arr) with
        | Some cell -> cell
        | None ->
            let cell = (ref [], ref Iset.empty) in
            Hashtbl.add acc (kind, arr) cell;
            cell
      in
      (match !runs with
      | (e, r) :: _ when e = epoch -> run := r
      | _ ->
          run := ref [];
          runs := (epoch, !run) :: !runs);
      pcs := pc_list
    in
    Iset.iter
      (fun addr ->
        if addr > !hi then start addr;
        !run := addr :: !(!run);
        while addr_at !cursor < addr do
          incr cursor
        done;
        while addr_at !cursor = addr do
          let pc = misses.(!cursor).Trace.Event.pc in
          if not (Iset.mem pc !(!pcs)) then !pcs := Iset.add pc !(!pcs);
          incr cursor
        done)
      addrs
  in
  Array.iteri
    (fun epoch d ->
      walk Data_race epoch (Drfs.race d);
      walk False_sharing epoch (Drfs.false_shared d))
    einfo.Epoch_info.drfs;
  let items =
    Hashtbl.fold
      (fun (kind, arr) (runs, pcs) items ->
        let addrs =
          List.fold_left
            (fun set (_, run) -> Iset.union set (Iset.of_list !run))
            Iset.empty !runs
        in
        {
          kind;
          arr;
          ranges = Presentation.ranges_for_array ~layout ~arr addrs;
          epochs = List.rev_map fst !runs;
          pcs = Iset.elements !pcs;
        }
        :: items)
      acc []
    |> List.sort compare
  in
  { items }

let is_empty t = t.items = []
let races t = List.filter (fun i -> i.kind = Data_race) t.items
let false_sharing t = List.filter (fun i -> i.kind = False_sharing) t.items

let pp_ranges ppf ranges =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
    (fun ppf (lo, hi) ->
      if lo = hi then Format.fprintf ppf "%d" lo
      else Format.fprintf ppf "%d..%d" lo hi)
    ppf ranges

let pp_item ppf i =
  Format.fprintf ppf "%s on %s[%a] (epochs %s; statements %s)"
    (match i.kind with
    | Data_race -> "potential data race"
    | False_sharing -> "false sharing")
    i.arr pp_ranges i.ranges
    (String.concat "," (List.map string_of_int i.epochs))
    (String.concat "," (List.map string_of_int i.pcs))

let pp ppf t =
  if t.items = [] then
    Format.pp_print_string ppf "no data races or false sharing detected"
  else
    Format.pp_print_list
      ~pp_sep:Format.pp_print_newline
      pp_item ppf t.items

let to_string t = Format.asprintf "%a" pp t
