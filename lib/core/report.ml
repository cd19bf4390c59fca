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
     pc lists. Epochs arrive in order and each epoch's addresses
     ascending, so a run needs no sort; neighbouring addresses mostly
     share their pcs, so a pc list is not pushed twice in a row. *)
  let acc :
      (kind * string, (int * int list ref) list ref * int list list ref)
      Hashtbl.t =
    Hashtbl.create 16
  in
  let note kind addr ~epoch ~pcs =
    let arr =
      match Lang.Label.elem_of_addr layout addr with
      | Some (name, _) -> name
      | None -> "<unlabelled>"
    in
    let runs, pc_lists =
      match Hashtbl.find_opt acc (kind, arr) with
      | Some cell -> cell
      | None ->
          let cell = (ref [], ref []) in
          Hashtbl.add acc (kind, arr) cell;
          cell
    in
    (match !runs with
    | (e, run) :: _ when e = epoch -> run := addr :: !run
    | _ -> runs := (epoch, ref [ addr ]) :: !runs);
    match !pc_lists with
    | p :: _ when p = pcs -> ()
    | _ -> pc_lists := pcs :: !pc_lists
  in
  Array.iteri
    (fun epoch d ->
      let pcs_of = Epoch_info.pcs_of_addr einfo ~epoch in
      Iset.iter
        (fun addr -> note Data_race addr ~epoch ~pcs:(pcs_of addr))
        (Drfs.race d);
      Iset.iter
        (fun addr -> note False_sharing addr ~epoch ~pcs:(pcs_of addr))
        (Drfs.false_shared d))
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
          pcs = Iset.elements (Iset.of_list (List.concat !pcs));
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
