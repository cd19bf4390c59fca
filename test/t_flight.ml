(* Single-flight coalescing: the flight table in isolation, the server's
   one request path (coalescing through [Server.handle], a follower's
   retry through [Server.handle_async]), then the acceptance property
   end-to-end — a 10k thundering herd of identical requests costs exactly
   one simulation and every response is byte-identical. *)

open Service

(* ---- the table ---- *)

let test_leader_then_followers () =
  let t = Flight.create () in
  let delivered = ref [] in
  let deliver tag ~coalesced r = delivered := (tag, coalesced, r) :: !delivered in
  let complete =
    match Flight.join t "k" ~deliver:(deliver "leader") with
    | `Leader c -> c
    | `Joined -> Alcotest.fail "first join must lead"
  in
  (match Flight.join t "k" ~deliver:(deliver "f1") with
  | `Joined -> ()
  | `Leader _ -> Alcotest.fail "second join must follow");
  (match Flight.join t "other" ~deliver:(deliver "other") with
  | `Leader c -> c (Ok 99)
  | `Joined -> Alcotest.fail "distinct key must lead");
  Alcotest.(check int) "two in flight before completion" 1 (Flight.in_flight t);
  complete (Ok 7);
  Alcotest.(check int) "entries retired" 0 (Flight.in_flight t);
  let find tag =
    match List.find_opt (fun (g, _, _) -> g = tag) !delivered with
    | Some (_, coalesced, r) -> (coalesced, r)
    | None -> Alcotest.failf "no delivery for %s" tag
  in
  Alcotest.(check bool) "leader not coalesced" false (fst (find "leader"));
  Alcotest.(check bool) "follower coalesced" true (fst (find "f1"));
  Alcotest.(check bool) "follower shares the result" true
    (snd (find "f1") = Ok 7);
  Alcotest.(check bool) "other key independent" true (snd (find "other") = Ok 99);
  Alcotest.(check int) "one follower counted" 1 (Flight.coalesced_total t);
  (* post-completion arrivals start a fresh flight *)
  match Flight.join t "k" ~deliver:(deliver "late") with
  | `Leader c -> c (Ok 8)
  | `Joined -> Alcotest.fail "retired key must lead again"

let test_error_propagates_to_followers () =
  let t = Flight.create () in
  let seen = ref None in
  let complete =
    match Flight.join t "k" ~deliver:(fun ~coalesced:_ _ -> ()) with
    | `Leader c -> c
    | `Joined -> assert false
  in
  (match Flight.join t "k" ~deliver:(fun ~coalesced r -> seen := Some (coalesced, r)) with
  | `Joined -> ()
  | `Leader _ -> assert false);
  complete (Error Exit);
  match !seen with
  | Some (true, Error Exit) -> ()
  | _ -> Alcotest.fail "follower did not receive the leader's error"

(* ---- the acceptance property: 10k duplicates, one simulation ---- *)

let herd_source =
  (* small enough to simulate quickly, big enough to be real work *)
  "const N = 64;\n\
   shared A[N];\n\n\
   proc main() {\n\
  \  barrier;\n\
  \  for i = 0 to N / 4 - 1 {\n\
  \    A[pid * (N / 4) + i] = pid + i;\n\
  \  }\n\
  \  barrier;\n\
   }\n"

let test_10k_duplicates_one_simulation () =
  let config =
    {
      Server.default_config with
      machine_defaults = { Protocol.nodes = 4; cache_kb = 16; assoc = 4; block = 32; protocol = Memsys.Protocol_id.default };
      workers = 1;
      queue_capacity = 4;
    }
  in
  let server = Server.create config in
  Fun.protect
    ~finally:(fun () -> Server.shutdown server)
    (fun () ->
      let n = 10_000 in
      let op =
        Protocol.Simulate
          {
            source = Text herd_source;
            annotations = false;
            prefetch = false;
            trace = false;
          }
      in
      let mu = Mutex.create () in
      let cond = Condition.create () in
      let done_n = ref 0 in
      let errors = ref [] in
      let payloads = Hashtbl.create 4 in
      let cached_n = ref 0 in
      let deliver resp =
        Mutex.lock mu;
        (match resp with
        | Protocol.Ok_response { payload; cached; _ } ->
            Hashtbl.replace payloads payload ();
            if cached then incr cached_n
        | Protocol.Error_response { message; _ } -> errors := message :: !errors);
        incr done_n;
        if !done_n = n then Condition.signal cond;
        Mutex.unlock mu
      in
      let machine = config.Server.machine_defaults in
      for id = 1 to n do
        Server.handle_async server
          { Protocol.id; machine; seed = None; deadline_ms = None; op }
          ~deliver
      done;
      Mutex.lock mu;
      while !done_n < n do
        Condition.wait cond mu
      done;
      Mutex.unlock mu;
      Alcotest.(check (list string)) "no errors" [] !errors;
      Alcotest.(check int) "byte-identical payloads" 1 (Hashtbl.length payloads);
      let m = Server.metrics server in
      Alcotest.(check int) "exactly one simulation (measure miss)" 1
        (Metrics.misses m ~stage:"measure");
      Alcotest.(check int) "exactly one parse" 1 (Metrics.misses m ~stage:"parse");
      (* every response but the leader's was answered from the flight or
         the artifact cache *)
      Alcotest.(check int) "all but one answered without computing" (n - 1)
        !cached_n;
      Alcotest.(check bool) "coalescing observed" true (Metrics.coalesced m > 0))

(* ---- the server's one request path ---- *)

let small_machine =
  { Protocol.nodes = 4; cache_kb = 16; assoc = 4; block = 32;
    protocol = Memsys.Protocol_id.default }

let simulate_req ?(machine = small_machine) ?deadline_ms id source =
  { Protocol.id; machine; seed = None; deadline_ms;
    op = Protocol.Simulate
           { source; annotations = false; prefetch = false; trace = false } }

let with_server config f =
  let server = Server.create config in
  Fun.protect ~finally:(fun () -> Server.shutdown server) (fun () -> f server)

(* Three domains send the same slow request through [Server.handle]. The
   hot tier has no budget, so a request arriving after a flight completed
   computes again instead of hitting: each request either led a flight
   (one measure miss) or followed one. *)
let test_handle_coalesces_across_domains () =
  let config =
    { Server.default_config with budget_bytes = 0; workers = 1;
      machine_defaults = small_machine }
  in
  with_server config (fun server ->
      let req =
        simulate_req ~machine:{ small_machine with Protocol.nodes = 8 } 1
          (Protocol.Bench "tomcatv")
      in
      let domains =
        Array.init 3 (fun _ ->
            Domain.spawn (fun () -> Server.handle server req))
      in
      let payloads =
        Array.map
          (fun d ->
            match Domain.join d with
            | Protocol.Ok_response { payload; _ } -> payload
            | Protocol.Error_response { message; _ } -> Alcotest.fail message)
          domains
      in
      Array.iter
        (fun p -> Alcotest.(check string) "shared result" payloads.(0) p)
        payloads;
      (* the slow simulation makes same-flight overlap overwhelmingly
         likely, but the only hard guarantee is per-flight single
         execution *)
      let m = Server.metrics server in
      let runs = Metrics.misses m ~stage:"measure" in
      Alcotest.(check int) "every run either led or followed" 3
        (runs + Metrics.coalesced m);
      Alcotest.(check bool) "computed at least once" true (runs >= 1))

(* A follower joins a leader whose deadline has already passed: it
   retries, succeeds, and reports its latency from its own arrival. The
   single worker is busy with a slower, different request, so the
   follower joins while the leader is still queued. *)
let test_follower_retry_keeps_its_arrival () =
  let config =
    { Server.default_config with workers = 1; machine_defaults = small_machine }
  in
  with_server config (fun server ->
      let mu = Mutex.create () and cond = Condition.create () in
      let got = Hashtbl.create 3 in
      let deliver id resp =
        Mutex.protect mu (fun () ->
            Hashtbl.replace got id (resp, Obs.now_ns ());
            Condition.broadcast cond)
      in
      let await id =
        Mutex.protect mu (fun () ->
            while not (Hashtbl.mem got id) do
              Condition.wait cond mu
            done;
            Hashtbl.find got id)
      in
      let blocker =
        simulate_req ~machine:{ small_machine with Protocol.nodes = 8 } 1
          (Protocol.Bench "tomcatv")
      in
      Server.handle_async server blocker ~deliver:(deliver 1);
      Server.handle_async server
        ~received:(Unix.gettimeofday () -. 1.0)
        (simulate_req ~deadline_ms:5 2 (Protocol.Text herd_source))
        ~deliver:(deliver 2);
      Server.handle_async server
        (simulate_req 3 (Protocol.Text herd_source))
        ~deliver:(deliver 3);
      let arrived = Obs.now_ns () in
      let leader, leader_done = await 2 in
      (match leader with
      | Protocol.Error_response { error = Protocol.Deadline_exceeded; _ } -> ()
      | _ -> Alcotest.fail "the leader should miss its deadline");
      (match fst (await 3) with
      | Protocol.Ok_response { elapsed_us; _ } ->
          (* the follower arrived before [arrived] and was answered after
             its leader, so its latency covers at least that stretch *)
          let floor_us = (leader_done - arrived) / 1000 in
          if elapsed_us < floor_us then
            Alcotest.failf
              "follower reports %d us, but waited at least %d us for its \
               leader"
              elapsed_us floor_us
      | Protocol.Error_response { message; _ } ->
          Alcotest.failf "the follower should retry and succeed: %s" message);
      ignore (await 1))

let suite =
  [
    Alcotest.test_case "leader computes, followers share" `Quick
      test_leader_then_followers;
    Alcotest.test_case "errors propagate to followers" `Quick
      test_error_propagates_to_followers;
    Alcotest.test_case "handle coalesces across domains" `Quick
      test_handle_coalesces_across_domains;
    Alcotest.test_case "follower retry keeps its arrival" `Quick
      test_follower_retry_keeps_its_arrival;
    Alcotest.test_case "10k duplicates cost one simulation" `Quick
      test_10k_duplicates_one_simulation;
  ]
