module Iset = Set.Make (Int)

type node_misses = { reads : Iset.t; writes : Iset.t; faults : Iset.t }

type t = {
  index : int;
  start_pc : int option;
  end_pc : int option;
  misses : Event.miss list;
  per_node : node_misses array;
}

let static_key e = (e.start_pc, e.end_pc)

(* One address bucket per (node, kind), each turned into a set at once:
   a sort per bucket, not a balanced-tree insert and record copy per
   miss. *)
let per_node_of_misses ~nodes misses =
  let reads = Array.make nodes []
  and writes = Array.make nodes []
  and faults = Array.make nodes [] in
  List.iter
    (fun (m : Event.miss) ->
      if m.node < 0 || m.node >= nodes then
        failwith (Printf.sprintf "trace: node %d out of range" m.node);
      let bucket =
        match m.kind with
        | Event.Read_miss -> reads
        | Event.Write_miss -> writes
        | Event.Write_fault -> faults
      in
      bucket.(m.node) <- m.addr :: bucket.(m.node))
    misses;
  Array.init nodes (fun n ->
      {
        reads = Iset.of_list reads.(n);
        writes = Iset.of_list writes.(n);
        faults = Iset.of_list faults.(n);
      })

let by_address misses =
  let a = Array.of_list misses in
  Array.stable_sort (fun (x : Event.miss) y -> Int.compare x.addr y.addr) a;
  a

let split ~nodes records =
  let labels = ref [] in
  let epochs = ref [] in
  let current_misses = ref [] in
  let current_barriers = ref [] in
  let start_pc = ref None in
  let index = ref 0 in
  let close_epoch ~end_pc =
    let misses = List.rev !current_misses in
    epochs :=
      {
        index = !index;
        start_pc = !start_pc;
        end_pc;
        misses;
        per_node = per_node_of_misses ~nodes misses;
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
