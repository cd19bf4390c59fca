(* Single-flight coalescing: one table lock, per-entry waiter lists.
   Delivery happens outside the lock so waiters may do arbitrary work
   (post to an event loop, block a condition variable). *)

type 'a entry = {
  mutable delivers : (coalesced:bool -> ('a, exn) result -> unit) list;
      (* reverse arrival order; head of the reversed list is the leader *)
  mutable completed : bool;
}

type 'a t = {
  mu : Mutex.t;
  tbl : (string, 'a entry) Hashtbl.t;
  mutable coalesced : int;
}

let create () = { mu = Mutex.create (); tbl = Hashtbl.create 32; coalesced = 0 }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let join t key ~deliver =
  let role =
    locked t (fun () ->
        match Hashtbl.find_opt t.tbl key with
        | Some e when not e.completed ->
            e.delivers <- deliver :: e.delivers;
            t.coalesced <- t.coalesced + 1;
            `Joined
        | _ ->
            let e = { delivers = [ deliver ]; completed = false } in
            Hashtbl.replace t.tbl key e;
            `Leader e)
  in
  match role with
  | `Joined -> `Joined
  | `Leader e ->
      `Leader
        (fun result ->
          let waiters =
            locked t (fun () ->
                e.completed <- true;
                (* only remove our own entry: a completed leader may race
                   with a fresh flight that already replaced it *)
                (match Hashtbl.find_opt t.tbl key with
                | Some e' when e' == e -> Hashtbl.remove t.tbl key
                | _ -> ());
                List.rev e.delivers)
          in
          List.iteri
            (fun i d -> d ~coalesced:(i > 0) result)
            waiters)

let in_flight t = locked t (fun () -> Hashtbl.length t.tbl)
let coalesced_total t = locked t (fun () -> t.coalesced)
