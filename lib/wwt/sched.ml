exception Deadlock of string
exception Cancelled of string

(* Per-epoch spans and counters; every update is behind [Obs.enabled]
   (or the zero-timestamp no-op of [Obs.finish]), so a disabled run pays
   one branch per barrier and allocates nothing. *)
let obs_epochs = Obs.Registry.counter "sched.epochs"

type config = {
  nodes : int;
  barrier_cost : int;
  lock_transfer : int;
  on_barrier : vt:int -> arrivals:(int * int) list -> unit;
  on_lock_acquire : node:int -> lock:int -> unit;
}

(* Every wait ends in this one effect, and its handler only files the
   continuation under the running node. What the wait means — queued in
   [ready], parked at a barrier, queued on a lock — the fiber sets up
   itself before it performs it. *)
type _ Effect.t += Suspend : unit Effect.t

type state = {
  cfg : config;
  clock : int array;
  ready : Pqueue.t;  (* nodes keyed by clock; ties pop in push order *)
  mutable conts : (unit, unit) Effect.Deep.continuation array;
      (* each node's parked continuation; [||] until the first suspension *)
  parked : bool array;  (* the node's slot holds a continuation to resume *)
  mutable current : int;  (* the node whose fiber is running *)
  mutable direct : int;  (* advances that did not park since the last pop *)
  mutable finished : int;
  mutable barrier_waiters : (int * int) list;  (* (node, pc), newest first *)
  (* Locks are reentrant: (owner, recursion depth) per lock plus FIFO
     queues of waiting nodes. *)
  lock_state : (int, int * int) Hashtbl.t;
  lock_waiters : (int, int Queue.t) Hashtbl.t;
  mutable epoch_t0 : int;
      (* start of the current barrier-to-barrier region; 0 when
         observability is off, making its [Obs.finish] a no-op *)
}

(* The running simulation of this domain, installed by [run]. *)
let current_run : state option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let state caller =
  match Domain.DLS.get current_run with
  | Some st -> st
  | None -> invalid_arg (caller ^ ": not inside Sched.run")

(* Queue the running node at its clock and wait to be popped. *)
let park st =
  Pqueue.push st.ready ~prio:st.clock.(st.current) st.current;
  Effect.perform Suspend

let now () =
  let st = state "Sched.now" in
  st.clock.(st.current)

let advance n =
  if n < 0 then invalid_arg "Sched.advance: negative cycle count";
  let st = state "Sched.advance" in
  let c = st.clock.(st.current) + n in
  st.clock.(st.current) <- c;
  (* When every parked fiber is strictly later, parking would pop this
     one straight back (pops have no side effects of their own), so keep
     running. Ties must park: equal priorities pop FIFO. Every 500 direct
     continuations force a trip through the scheduler loop, where [poll]
     runs. *)
  if Pqueue.min_prio st.ready <= c || st.direct > 500 then park st
  else st.direct <- st.direct + 1

let release_barrier st =
  let cfg = st.cfg in
  let waiters = List.rev st.barrier_waiters in
  st.barrier_waiters <- [];
  let vt = cfg.barrier_cost + Array.fold_left max 0 st.clock in
  Array.fill st.clock 0 cfg.nodes vt;
  Obs.finish "sched.epoch" st.epoch_t0;
  if Obs.enabled () then Obs.Counter.incr obs_epochs;
  cfg.on_barrier ~vt ~arrivals:(List.sort compare waiters);
  st.epoch_t0 <- Obs.start ();
  List.iter (fun (node, _) -> Pqueue.push st.ready ~prio:vt node) waiters

let barrier_sync ~pc =
  let st = state "Sched.barrier_sync" in
  st.barrier_waiters <- (st.current, pc) :: st.barrier_waiters;
  if List.length st.barrier_waiters = st.cfg.nodes then release_barrier st;
  Effect.perform Suspend

let lock_acquire l =
  let st = state "Sched.lock_acquire" in
  let node = st.current in
  match Hashtbl.find_opt st.lock_state l with
  | Some (owner, depth) when owner = node ->
      (* reentrant re-acquire: already local, no transfer *)
      Hashtbl.replace st.lock_state l (owner, depth + 1);
      st.cfg.on_lock_acquire ~node ~lock:l;
      park st
  | Some _ ->
      let q =
        match Hashtbl.find_opt st.lock_waiters l with
        | Some q -> q
        | None ->
            let q = Queue.create () in
            Hashtbl.add st.lock_waiters l q;
            q
      in
      Queue.add node q;
      Effect.perform Suspend
  | None ->
      Hashtbl.add st.lock_state l (node, 1);
      st.cfg.on_lock_acquire ~node ~lock:l;
      st.clock.(node) <- st.clock.(node) + st.cfg.lock_transfer;
      park st

let lock_release l =
  let st = state "Sched.lock_release" in
  let node = st.current in
  (match Hashtbl.find_opt st.lock_state l with
  | Some (owner, depth) when owner = node ->
      if depth > 1 then Hashtbl.replace st.lock_state l (owner, depth - 1)
      else begin
        Hashtbl.remove st.lock_state l;
        match Hashtbl.find_opt st.lock_waiters l with
        | Some q when not (Queue.is_empty q) ->
            let w = Queue.take q in
            Hashtbl.add st.lock_state l (w, 1);
            st.cfg.on_lock_acquire ~node:w ~lock:l;
            st.clock.(w) <-
              max st.clock.(w) st.clock.(node) + st.cfg.lock_transfer;
            Pqueue.push st.ready ~prio:st.clock.(w) w
        | Some _ | None -> ()
      end
  | Some _ | None ->
      raise
        (Deadlock
           (Printf.sprintf "node %d releases lock %d it does not hold" node
              l)));
  park st

exception Abandoned

(* A run that ends early (a raising [poll], a deadlock, an exception out of
   a fiber) leaves fibers parked. A continuation that is never resumed
   keeps its fiber stack for good, so unwind each one instead. *)
let abandon st =
  Array.iteri
    (fun node parked ->
      if parked then begin
        st.parked.(node) <- false;
        st.current <- node;
        try Effect.Deep.discontinue st.conts.(node) Abandoned with _ -> ()
      end)
    st.parked

let run ?poll cfg body =
  let st =
    {
      cfg;
      clock = Array.make cfg.nodes 0;
      ready = Pqueue.create ();
      conts = [||];
      parked = Array.make cfg.nodes false;
      current = 0;
      direct = 0;
      finished = 0;
      barrier_waiters = [];
      lock_state = Hashtbl.create 8;
      lock_waiters = Hashtbl.create 8;
      epoch_t0 = Obs.start ();
    }
  in
  (* One handler for every fiber, built once: nothing is allocated when a
     fiber suspends or resumes. *)
  let on_suspend =
    Some
      (fun (k : (unit, unit) Effect.Deep.continuation) ->
        if Array.length st.conts = 0 then st.conts <- Array.make cfg.nodes k
        else st.conts.(st.current) <- k;
        st.parked.(st.current) <- true)
  in
  let handler =
    {
      Effect.Deep.retc = (fun () -> st.finished <- st.finished + 1);
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Suspend ->
              (on_suspend
                : ((a, unit) Effect.Deep.continuation -> unit) option)
          | _ -> None);
    }
  in
  let outer = Domain.DLS.get current_run in
  Domain.DLS.set current_run (Some st);
  Fun.protect
    ~finally:(fun () ->
      abandon st;
      Domain.DLS.set current_run outer)
  @@ fun () ->
  (* Start every fiber: each suspends before its body runs, so its slot
     holds a continuation from the outset. All start at time 0 and run
     in node order. *)
  for node = 0 to cfg.nodes - 1 do
    st.current <- node;
    Effect.Deep.match_with
      (fun () ->
        Effect.perform Suspend;
        body node)
      () handler;
    Pqueue.push st.ready ~prio:0 node
  done;
  (* Cancellation polls run between fiber resumptions, where no fiber is
     mid-step: an exception raised by [poll] propagates out of [run]
     directly, after [abandon] unwinds the parked fibers. Polling every
     pop would put a call on the hot path, so decimate. *)
  let poll_countdown = ref 256 in
  let run_t0 = Obs.start () in
  while not (Pqueue.is_empty st.ready) do
    let node = Pqueue.pop st.ready in
    (match poll with
    | Some p ->
        decr poll_countdown;
        if !poll_countdown <= 0 then begin
          poll_countdown := 256;
          p ()
        end
    | None -> ());
    st.direct <- 0;
    st.current <- node;
    st.parked.(node) <- false;
    Effect.Deep.continue st.conts.(node) ()
  done;
  Obs.finish "sched.run" run_t0;
  (* The tail region after the last barrier is an epoch too. *)
  Obs.finish "sched.epoch" st.epoch_t0;
  if st.finished < cfg.nodes then begin
    let lock_parked =
      Hashtbl.fold (fun _ q acc -> acc + Queue.length q) st.lock_waiters 0
    in
    raise
      (Deadlock
         (Printf.sprintf
            "%d of %d nodes finished; %d parked at a barrier, %d waiting on \
             locks"
            st.finished cfg.nodes
            (List.length st.barrier_waiters)
            lock_parked))
  end;
  Array.fold_left max 0 st.clock
