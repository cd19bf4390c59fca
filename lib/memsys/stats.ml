type t = {
  nodes : int;
  mutable read_hits : int;
  mutable write_hits : int;
  mutable read_misses : int;
  mutable write_misses : int;
  mutable write_faults : int;
  mutable invalidations : int;
  mutable sw_traps : int;
  mutable writebacks : int;
  mutable evictions : int;
  mutable check_outs_x : int;
  mutable check_outs_s : int;
  mutable check_ins : int;
  mutable check_in_flushes : int;
  mutable prefetches : int;
  mutable useful_prefetches : int;
  mutable post_stores : int;
  mutable messages : int;
  mutable shared_reads : int;
  mutable shared_writes : int;
  mutable private_reads : int;
  mutable private_writes : int;
  mutable barriers : int;
  mutable lock_acquires : int;
  stall_cycles : int array;
}

let create ~nodes =
  if nodes <= 0 then invalid_arg "Stats.create: nodes must be positive";
  {
    nodes;
    read_hits = 0;
    write_hits = 0;
    read_misses = 0;
    write_misses = 0;
    write_faults = 0;
    invalidations = 0;
    sw_traps = 0;
    writebacks = 0;
    evictions = 0;
    check_outs_x = 0;
    check_outs_s = 0;
    check_ins = 0;
    check_in_flushes = 0;
    prefetches = 0;
    useful_prefetches = 0;
    post_stores = 0;
    messages = 0;
    shared_reads = 0;
    shared_writes = 0;
    private_reads = 0;
    private_writes = 0;
    barriers = 0;
    lock_acquires = 0;
    stall_cycles = Array.make nodes 0;
  }

let reset t =
  t.read_hits <- 0;
  t.write_hits <- 0;
  t.read_misses <- 0;
  t.write_misses <- 0;
  t.write_faults <- 0;
  t.invalidations <- 0;
  t.sw_traps <- 0;
  t.writebacks <- 0;
  t.evictions <- 0;
  t.check_outs_x <- 0;
  t.check_outs_s <- 0;
  t.check_ins <- 0;
  t.check_in_flushes <- 0;
  t.prefetches <- 0;
  t.useful_prefetches <- 0;
  t.post_stores <- 0;
  t.messages <- 0;
  t.shared_reads <- 0;
  t.shared_writes <- 0;
  t.private_reads <- 0;
  t.private_writes <- 0;
  t.barriers <- 0;
  t.lock_acquires <- 0;
  Array.fill t.stall_cycles 0 (Array.length t.stall_cycles) 0

let add_stall t ~node c =
  if node < 0 || node >= t.nodes then invalid_arg "Stats.add_stall: bad node";
  t.stall_cycles.(node) <- t.stall_cycles.(node) + c

let total_misses t = t.read_misses + t.write_misses

let total_accesses t =
  t.shared_reads + t.shared_writes + t.private_reads + t.private_writes

let shared_read_fraction t =
  let loads = t.shared_reads + t.private_reads in
  if loads = 0 then 0.0 else float_of_int t.shared_reads /. float_of_int loads

let shared_write_fraction t =
  let stores = t.shared_writes + t.private_writes in
  if stores = 0 then 0.0
  else float_of_int t.shared_writes /. float_of_int stores

let pp ppf t =
  let f fmt = Format.fprintf ppf fmt in
  f "@[<v>";
  f "read hits        %d@," t.read_hits;
  f "write hits       %d@," t.write_hits;
  f "read misses      %d@," t.read_misses;
  f "write misses     %d@," t.write_misses;
  f "write faults     %d@," t.write_faults;
  f "invalidations    %d@," t.invalidations;
  f "software traps   %d@," t.sw_traps;
  f "writebacks       %d@," t.writebacks;
  f "evictions        %d@," t.evictions;
  f "check-out X      %d@," t.check_outs_x;
  f "check-out S      %d@," t.check_outs_s;
  f "check-ins        %d (%d flushed)@," t.check_ins t.check_in_flushes;
  f "prefetches       %d (%d useful)@," t.prefetches t.useful_prefetches;
  f "post-stores      %d@," t.post_stores;
  f "messages         %d@," t.messages;
  f "shared reads     %d / %d loads (%.1f%%)@," t.shared_reads
    (t.shared_reads + t.private_reads)
    (100.0 *. shared_read_fraction t);
  f "shared writes    %d / %d stores (%.1f%%)@," t.shared_writes
    (t.shared_writes + t.private_writes)
    (100.0 *. shared_write_fraction t);
  f "barriers         %d@," t.barriers;
  f "lock acquires    %d" t.lock_acquires;
  f "@]"
