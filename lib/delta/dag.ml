type base = {
  program : Lang.Ast.program;
  info : Lang.Sema.info;
  plan : Cachier.Placement.plan;
  result : Cachier.Annotate.result;
}

type node =
  | Source of string
  | Parsed of Lang.Ast.program
  | Sema_ok
  | Base of base

type entry = { node : node; mutable used : int }

type t = {
  mu : Mutex.t;
  capacity : int;
  tbl : (string, entry) Hashtbl.t;
  counters : (string, int ref * int ref) Hashtbl.t;  (* kind -> hits, misses *)
  mutable tick : int;
}

let default_capacity () =
  match Sys.getenv_opt "CACHIER_DELTA_DAG" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n > 0 -> n
      | Some _ | None ->
          invalid_arg "CACHIER_DELTA_DAG must be a positive integer")
  | None -> 128

let create ?capacity () =
  let capacity =
    match capacity with Some c when c > 0 -> c | _ -> default_capacity ()
  in
  {
    mu = Mutex.create ();
    capacity;
    tbl = Hashtbl.create 64;
    counters = Hashtbl.create 8;
    tick = 0;
  }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let kind_of key =
  match String.index_opt key '|' with
  | Some i -> String.sub key 0 i
  | None -> key

let counter t key =
  let kind = kind_of key in
  match Hashtbl.find_opt t.counters kind with
  | Some c -> c
  | None ->
      let c = (ref 0, ref 0) in
      Hashtbl.replace t.counters kind c;
      c

let find t key =
  locked t (fun () ->
      let hits, misses = counter t key in
      match Hashtbl.find_opt t.tbl key with
      | Some e ->
          t.tick <- t.tick + 1;
          e.used <- t.tick;
          incr hits;
          Some e.node
      | None ->
          incr misses;
          None)

let add t key node =
  locked t (fun () ->
      t.tick <- t.tick + 1;
      if not (Hashtbl.mem t.tbl key) && Hashtbl.length t.tbl >= t.capacity
      then begin
        (* evict the least recently used entry; the capacity is small
           enough that a scan beats maintaining an intrusive list *)
        let victim = ref None in
        Hashtbl.iter
          (fun k e ->
            match !victim with
            | Some (_, u) when u <= e.used -> ()
            | _ -> victim := Some (k, e.used))
          t.tbl;
        match !victim with
        | Some (k, _) -> Hashtbl.remove t.tbl k
        | None -> ()
      end;
      Hashtbl.replace t.tbl key { node; used = t.tick })

let entries t = locked t (fun () -> Hashtbl.length t.tbl)

let stats t =
  locked t (fun () ->
      List.sort compare
        (Hashtbl.fold
           (fun kind (h, m) acc -> (kind, (!h, !m)) :: acc)
           t.counters []))
