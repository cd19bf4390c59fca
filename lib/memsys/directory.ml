type state = Idle | Shared of int | Exclusive of int

(* A state is stored as one int code: 0 is Idle, an even code [mask lsl 1]
   is [Shared mask] and an odd code [(owner lsl 1) lor 1] is
   [Exclusive owner]. [Shared 0] encodes to 0, so it normalises to Idle
   for free; [lsr] decodes masks that use all 62 node bits. *)
let encode = function
  | Idle -> 0
  | Shared mask -> mask lsl 1
  | Exclusive owner -> (owner lsl 1) lor 1

let decode c =
  if c = 0 then Idle
  else if c land 1 = 0 then Shared (c lsr 1)
  else Exclusive (c lsr 1)

(* A base directory keeps one code per block in a flat table. An overlay
   ([writes = Some _]) shares its base's table read-only and records its
   own writes in a sparse delta — including explicit Idle codes, which
   shadow the base. The parallel engine's shard replays each run against
   an overlay of the shared directory, so concurrent shards never mutate
   the base; [commit] folds the deltas back at the epoch boundary. *)
type t = {
  n_nodes : int;
  codes : Block_table.t;
  writes : (int, int) Hashtbl.t option;
}

let max_nodes = 62

let create ~nodes =
  if nodes <= 0 || nodes > max_nodes then
    invalid_arg "Directory.create: nodes must be in [1, 62]";
  { n_nodes = nodes; codes = Block_table.create (); writes = None }

let nodes t = t.n_nodes

let code t blk =
  match t.writes with
  | None -> Block_table.get t.codes blk
  | Some w -> (
      match Hashtbl.find_opt w blk with
      | Some c -> c
      | None -> Block_table.get t.codes blk)

let set_code t blk c =
  match t.writes with
  | None -> Block_table.set t.codes blk c
  | Some w -> Hashtbl.replace w blk c

let get t blk = decode (code t blk)
let set t blk st = set_code t blk (encode st)

let overlay base =
  if base.writes <> None then
    invalid_arg "Directory.overlay: already an overlay";
  { base with writes = Some (Hashtbl.create 64) }

let commit t =
  match t.writes with
  | None -> invalid_arg "Directory.commit: not an overlay"
  | Some w ->
      Hashtbl.iter (fun blk c -> Block_table.set t.codes blk c) w;
      Hashtbl.reset w

let check_node t node =
  if node < 0 || node >= t.n_nodes then
    invalid_arg "Directory: node out of range"

let add_sharer t blk ~node =
  check_node t node;
  let c = code t blk in
  if c land 1 = 1 then
    invalid_arg "Directory.add_sharer: block is held exclusive";
  set_code t blk (c lor (1 lsl (node + 1)))

let remove_sharer t blk ~node =
  check_node t node;
  let c = code t blk in
  if c <> 0 && c land 1 = 0 then
    set_code t blk (c land lnot (1 lsl (node + 1)))

let popcount mask =
  let rec loop m acc = if m = 0 then acc else loop (m lsr 1) (acc + (m land 1)) in
  loop mask 0

(* The sharer mask of a code; 0 for Idle and Exclusive. *)
let mask_of c = if c land 1 = 0 then c lsr 1 else 0

let sharers t blk =
  let mask = mask_of (code t blk) in
  let rec loop node acc =
    if node < 0 then acc
    else if mask land (1 lsl node) <> 0 then loop (node - 1) (node :: acc)
    else loop (node - 1) acc
  in
  loop (t.n_nodes - 1) []

let sharer_count t blk = popcount (mask_of (code t blk))
let is_sharer t blk ~node = mask_of (code t blk) land (1 lsl node) <> 0

(* Non-idle [(block, code)] pairs in ascending block order: the base
   table's entries not shadowed by the overlay, plus the overlay's own
   non-idle writes. *)
let codes_asc t =
  match t.writes with
  | None ->
      Block_table.fold_right t.codes (fun blk c acc -> (blk, c) :: acc) []
  | Some w ->
      let own =
        Hashtbl.fold
          (fun blk c acc -> if c <> 0 then (blk, c) :: acc else acc)
          w []
      in
      let base =
        Block_table.fold_right t.codes
          (fun blk c acc -> if Hashtbl.mem w blk then acc else (blk, c) :: acc)
          []
      in
      List.merge (fun (a, _) (b, _) -> compare a b) base
        (List.sort (fun (a, _) (b, _) -> compare a b) own)

let entries t = List.map (fun (blk, c) -> (blk, decode c)) (codes_asc t)

(* Canonical fold for the epoch memo's state digest: non-idle entries in
   ascending block order, each contributing (block, encoded state). *)
let fold_state t ~init f =
  List.fold_left
    (fun acc (blk, c) ->
      let acc = f acc blk in
      if c land 1 = 0 then f acc ((c lsr 1) lsl 2)
      else f acc (((c lsr 1) lsl 2) lor 1))
    init (codes_asc t)

(* Structural well-formedness of the stored entries themselves: sharer
   masks name only real nodes, exclusive owners are in range (an empty
   sharer mask cannot be stored: it encodes as Idle). The protocol
   engine's [check_invariants] builds on this to cross-check against
   cache state. Entries are checked in ascending block order. *)
let validate t =
  let full = (1 lsl t.n_nodes) - 1 in
  List.find_map
    (fun (blk, c) ->
      if c land 1 = 0 then
        if (c lsr 1) land lnot full <> 0 then
          Some (blk, "sharer mask names a node out of range")
        else None
      else if c lsr 1 >= t.n_nodes then
        Some (blk, "exclusive owner out of range")
      else None)
    (codes_asc t)
