module Iset = Iset

type node_misses = { reads : Iset.t; writes : Iset.t; faults : Iset.t }

type t = {
  index : int;
  start_pc : int option;
  end_pc : int option;
  misses : Event.miss list;
  by_addr : Event.miss array;
  per_node : node_misses array;
}

let static_key e = (e.start_pc, e.end_pc)

(* The positions of [a]'s misses in address order, stably: a least-
   significant-digit radix sort over the bytes in which the addresses
   differ (three for addresses below 2^24), each a counting pass and a
   scatter of keys and positions. [x lxor min_int] maps signed order
   onto unsigned order, so every int is a valid address. The sort moves
   only ints: no comparison through a closure, no store through
   [caml_modify]; the records move once, in [by_address]'s gather. *)
let sort_positions (a : Event.miss array) =
  let n = Array.length a in
  let k = ref (Array.make n 0) and p = ref (Array.make n 0) in
  let k' = ref (Array.make n 0) and p' = ref (Array.make n 0) in
  (* the bits in which some address differs from the first *)
  let differ = ref 0 in
  for i = 0 to n - 1 do
    let x = a.(i).addr lxor min_int in
    !k.(i) <- x;
    !p.(i) <- i;
    differ := !differ lor (x lxor !k.(0))
  done;
  let count = Array.make 256 0 in
  for digit = 0 to 7 do
    let shift = 8 * digit in
    if (!differ lsr shift) land 255 <> 0 then begin
      let src : int array = !k and src_p : int array = !p in
      let dst : int array = !k' and dst_p : int array = !p' in
      Array.fill count 0 256 0;
      for i = 0 to n - 1 do
        let b = (src.(i) lsr shift) land 255 in
        count.(b) <- count.(b) + 1
      done;
      let start = ref 0 in
      for b = 0 to 255 do
        let c = count.(b) in
        count.(b) <- !start;
        start := !start + c
      done;
      for i = 0 to n - 1 do
        let x = src.(i) in
        let b = (x lsr shift) land 255 in
        let o = count.(b) in
        dst.(o) <- x;
        dst_p.(o) <- src_p.(i);
        count.(b) <- o + 1
      done;
      k := dst;
      p := dst_p;
      k' := src;
      p' := src_p
    end
  done;
  !p

let by_address misses =
  let a = Array.of_list misses in
  Array.map (fun i -> a.(i)) (sort_positions a)

(* Each node's reads, writes and faults, ascending and without repeats,
   from the epoch's misses in address order. Bucket [3 * node + kind]
   takes an address when it differs from the last one it took: a pass
   that counts, then a pass that fills arrays of exactly that size. *)
let per_node_of_sorted ~nodes (by_addr : Event.miss array) =
  let buckets = 3 * nodes in
  let bucket (m : Event.miss) =
    (3 * m.node)
    +
    match m.kind with
    | Event.Read_miss -> 0
    | Event.Write_miss -> 1
    | Event.Write_fault -> 2
  in
  let count = Array.make buckets 0 and last = Array.make buckets 0 in
  Array.iter
    (fun (m : Event.miss) ->
      let b = bucket m in
      if count.(b) = 0 || last.(b) <> m.addr then begin
        count.(b) <- count.(b) + 1;
        last.(b) <- m.addr
      end)
    by_addr;
  let sets = Array.map (fun c -> Array.make c 0) count in
  Array.fill count 0 buckets 0;
  Array.iter
    (fun (m : Event.miss) ->
      let b = bucket m in
      let c = count.(b) in
      if c = 0 || sets.(b).(c - 1) <> m.addr then begin
        sets.(b).(c) <- m.addr;
        count.(b) <- c + 1
      end)
    by_addr;
  Array.init nodes (fun n ->
      {
        reads = Iset.of_sorted_array sets.(3 * n);
        writes = Iset.of_sorted_array sets.((3 * n) + 1);
        faults = Iset.of_sorted_array sets.((3 * n) + 2);
      })

let split ~nodes records =
  let labels = ref [] in
  let epochs = ref [] in
  let current_misses = ref [] in
  let current_barriers = ref [] in
  let start_pc = ref None in
  let index = ref 0 in
  let close_epoch ~end_pc =
    let misses = List.rev !current_misses in
    List.iter
      (fun (m : Event.miss) ->
        if m.node < 0 || m.node >= nodes then
          failwith (Printf.sprintf "trace: node %d out of range" m.node))
      misses;
    let by_addr = by_address misses in
    epochs :=
      {
        index = !index;
        start_pc = !start_pc;
        end_pc;
        misses;
        by_addr;
        per_node = per_node_of_sorted ~nodes by_addr;
      }
      :: !epochs;
    incr index;
    current_misses := [];
    start_pc := end_pc
  in
  let flush_barriers () =
    match !current_barriers with
    | [] -> ()
    | (b : Event.barrier) :: rest ->
        let n = List.length !current_barriers in
        if n <> nodes then
          failwith
            (Printf.sprintf "trace: barrier group has %d records, expected %d"
               n nodes);
        List.iter
          (fun (b' : Event.barrier) ->
            if b'.vt <> b.vt || b'.bpc <> b.bpc then
              failwith "trace: inconsistent barrier group")
          rest;
        current_barriers := [];
        close_epoch ~end_pc:(Some b.bpc)
  in
  List.iter
    (fun r ->
      match r with
      | Event.Label { name; lo; hi } -> labels := (name, lo, hi) :: !labels
      | Event.Barrier b ->
          current_barriers := b :: !current_barriers;
          (* a group is complete once every node has arrived: close the
             epoch now, so back-to-back barriers (an epoch with no
             misses) form their own groups instead of merging *)
          if List.length !current_barriers = nodes then flush_barriers ()
      | Event.Miss m ->
          flush_barriers ();
          current_misses := m :: !current_misses)
    records;
  flush_barriers ();
  if !current_misses <> [] then close_epoch ~end_pc:None;
  (List.rev !epochs, List.rev !labels)
