type coherence = Shared | Exclusive

type line = {
  block : int;
  state : coherence;
  dirty : bool;
  ready_at : int;
  last_use : int;
}

(* Sentinel block number for an empty way; no real block is negative. *)
let absent = min_int

(* Flag bits of a way. *)
let f_exclusive = 1
let f_dirty = 2

let flags_of state dirty =
  (match state with Shared -> 0 | Exclusive -> f_exclusive)
  lor if dirty then f_dirty else 0

let state_of f = if f land f_exclusive <> 0 then Exclusive else Shared

(* Ways live in parallel int arrays of length [n_sets * n_assoc], set by
   set: the tag (block number or [absent]), the flag bits, the virtual
   time the data arrives and the LRU stamp. The fields of an empty way
   other than its tag are stale and never read. *)
type t = {
  block_size : int;
  n_sets : int;
  n_assoc : int;
  tags : int array;
  flags : int array;
  ready : int array;
  stamp : int array;
  mru : int array;  (* per-set memo of the last way that hit *)
  mutable tick : int;  (* LRU clock *)
  mutable resident : int;
}

let check_geometry ~size_bytes ~assoc ~block_size =
  if not (Block.is_power_of_two block_size) then
    Error "block size must be a power of two"
  else if assoc <= 0 then Error "associativity must be positive"
  else if size_bytes <= 0 || size_bytes mod (assoc * block_size) <> 0 then
    Error "size must be a multiple of assoc * block size"
  else if not (Block.is_power_of_two (size_bytes / (assoc * block_size))) then
    Error "number of sets must be a power of two"
  else Ok ()

let create ~size_bytes ~assoc ~block_size =
  (match check_geometry ~size_bytes ~assoc ~block_size with
  | Ok () -> ()
  | Error reason -> invalid_arg ("Cache.create: " ^ reason));
  let n_sets = size_bytes / (assoc * block_size) in
  let ways = n_sets * assoc in
  {
    block_size;
    n_sets;
    n_assoc = assoc;
    tags = Array.make ways absent;
    flags = Array.make ways 0;
    ready = Array.make ways 0;
    stamp = Array.make ways 0;
    mru = Array.make n_sets 0;
    tick = 0;
    resident = 0;
  }

let block_size t = t.block_size
let sets t = t.n_sets
let assoc t = t.n_assoc
let capacity_blocks t = t.n_sets * t.n_assoc
let capacity_bytes t = capacity_blocks t * t.block_size
let occupancy t = t.resident
let set_of t blk = blk land (t.n_sets - 1)

(* Option-free probe: the flat index of [blk]'s way, or -1. Checks the
   set's most-recently-hit way first, which short-circuits the common
   run of repeated touches to the same block. A while loop rather than a
   local recursive function, which would allocate a closure per miss of
   the memo. *)
let probe t blk =
  let s = set_of t blk in
  let base = s * t.n_assoc in
  let memo = t.mru.(s) in
  let tags = t.tags in
  if tags.(base + memo) = blk then base + memo
  else begin
    let way = ref 0 in
    while !way < t.n_assoc && tags.(base + !way) <> blk do
      incr way
    done;
    if !way < t.n_assoc then begin
      t.mru.(s) <- !way;
      base + !way
    end
    else -1
  end

let exclusive t i = t.flags.(i) land f_exclusive <> 0
let dirty t i = t.flags.(i) land f_dirty <> 0
let set_ready_at t i v = t.ready.(i) <- v
let upgrade t i = t.flags.(i) <- t.flags.(i) lor f_exclusive
let downgrade t i = t.flags.(i) <- 0

let line_of t i =
  {
    block = t.tags.(i);
    state = state_of t.flags.(i);
    dirty = dirty t i;
    ready_at = t.ready.(i);
    last_use = t.stamp.(i);
  }

let find t blk =
  let i = probe t blk in
  if i < 0 then None else Some (line_of t i)

let touch_idx t i =
  t.tick <- t.tick + 1;
  t.stamp.(i) <- t.tick

let touch t blk =
  let i = probe t blk in
  if i >= 0 then touch_idx t i

(* One call per simulated hit: the access path is built with no
   cross-module inlining, so LRU touch and residual stall share it. *)
let hit t i ~now =
  touch_idx t i;
  let r = t.ready.(i) - now in
  if r > 0 then r else 0

let write_hit t i ~now =
  t.flags.(i) <- f_exclusive lor f_dirty;
  hit t i ~now

let fill t i ~block ~state ~dirty ~ready_at =
  t.tags.(i) <- block;
  t.flags.(i) <- flags_of state dirty;
  t.ready.(i) <- ready_at;
  t.stamp.(i) <- t.tick

let insert t ~block ~state ~dirty ~ready_at =
  let i = probe t block in
  if i >= 0 then begin
    t.flags.(i) <- flags_of state (dirty || t.flags.(i) land f_dirty <> 0);
    t.ready.(i) <- ready_at;
    touch_idx t i;
    None
  end
  else begin
    let base = set_of t block * t.n_assoc in
    t.tick <- t.tick + 1;
    (* Prefer an empty way; otherwise evict the LRU way. *)
    let empty = ref (-1) and lru = ref 0 in
    for i = 0 to t.n_assoc - 1 do
      if t.tags.(base + i) = absent then begin
        if !empty < 0 then empty := i
      end
      else if
        t.tags.(base + !lru) = absent
        || t.stamp.(base + i) < t.stamp.(base + !lru)
      then lru := i
    done;
    if !empty >= 0 then begin
      fill t (base + !empty) ~block ~state ~dirty ~ready_at;
      t.resident <- t.resident + 1;
      None
    end
    else begin
      let v = base + !lru in
      let victim =
        (t.tags.(v), state_of t.flags.(v), t.flags.(v) land f_dirty <> 0)
      in
      fill t v ~block ~state ~dirty ~ready_at;
      Some victim
    end
  end

let remove t blk =
  let i = probe t blk in
  if i < 0 then None
  else begin
    let r = Some (state_of t.flags.(i), dirty t i) in
    t.tags.(i) <- absent;
    t.resident <- t.resident - 1;
    r
  end

let flush_all t =
  let acc = ref [] in
  Array.iteri
    (fun i blk ->
      if blk <> absent then begin
        acc := (blk, state_of t.flags.(i), dirty t i) :: !acc;
        t.tags.(i) <- absent
      end)
    t.tags;
  t.resident <- 0;
  !acc

let iter t f =
  Array.iteri (fun i blk -> if blk <> absent then f (line_of t i)) t.tags

let iter_blocks t f =
  let tags = t.tags in
  for i = 0 to Array.length tags - 1 do
    let blk = tags.(i) in
    if blk <> absent then f blk
  done
