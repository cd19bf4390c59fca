(* Readiness-driven I/O: an incremental line framer and a select-based
   event loop. See aio.mli for the contract. *)

module Framing = struct
  (* A growable byte buffer with a consumed prefix. [scan] remembers how
     far we have already searched for '\n', so feeding N bytes costs
     O(N) total however the chunks are sliced. *)
  type t = {
    mutable buf : Bytes.t;
    mutable start : int;  (* first unconsumed byte *)
    mutable len : int;  (* bytes buffered from [start] *)
    mutable scan : int;  (* offset from [start] already searched *)
  }

  let create () = { buf = Bytes.create 4096; start = 0; len = 0; scan = 0 }

  let ensure t extra =
    let need = t.len + extra in
    if t.start + need > Bytes.length t.buf then
      if need <= Bytes.length t.buf then begin
        (* compact in place *)
        Bytes.blit t.buf t.start t.buf 0 t.len;
        t.start <- 0
      end
      else begin
        let cap = ref (max 4096 (Bytes.length t.buf)) in
        while !cap < need do
          cap := !cap * 2
        done;
        let nb = Bytes.create !cap in
        Bytes.blit t.buf t.start nb 0 t.len;
        t.buf <- nb;
        t.start <- 0
      end

  let feed t src off len =
    if off < 0 || len < 0 || off + len > Bytes.length src then
      invalid_arg "Framing.feed";
    ensure t len;
    Bytes.blit src off t.buf (t.start + t.len) len;
    t.len <- t.len + len

  let feed_string t s = feed t (Bytes.unsafe_of_string s) 0 (String.length s)

  let next_line t =
    let rec find i =
      if i >= t.len then None
      else if Bytes.get t.buf (t.start + i) = '\n' then Some i
      else find (i + 1)
    in
    match find t.scan with
    | None ->
        t.scan <- t.len;
        None
    | Some i ->
        let line = Bytes.sub_string t.buf t.start i in
        t.start <- t.start + i + 1;
        t.len <- t.len - i - 1;
        t.scan <- 0;
        if t.len = 0 then t.start <- 0;
        Some line

  let buffered t = t.len
end

module Loop = struct
  type conn = {
    fd : Unix.file_descr;
    owner : t;
    framing : Framing.t;
    out : string Queue.t;  (* pending writes; head may be partly sent *)
    mutable out_off : int;  (* sent prefix of the head of [out] *)
    mutable out_bytes : int;  (* total unsent bytes *)
    mutable holds : int;
    mutable eof : bool;  (* peer closed its write side *)
    mutable closed : bool;
    mutable last_activity : float;
    on_line : conn -> string -> unit;
    on_close : (conn -> unit) option;
  }

  and t = {
    mutable listeners : (Unix.file_descr * (Unix.file_descr -> unit)) list;
    conns : (Unix.file_descr, conn) Hashtbl.t;
    posted : (unit -> unit) Queue.t;
    post_mu : Mutex.t;
    wake_r : Unix.file_descr;
    wake_w : Unix.file_descr;
    mutable wake_signaled : bool;  (* guarded by [post_mu] *)
    scratch : Bytes.t;
  }

  let create () =
    (* a peer that disappears between our poll and our write must surface
       as EPIPE on that one connection, not kill the process *)
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ -> ());
    let wake_r, wake_w = Unix.pipe ~cloexec:true () in
    Unix.set_nonblock wake_r;
    Unix.set_nonblock wake_w;
    {
      listeners = [];
      conns = Hashtbl.create 64;
      posted = Queue.create ();
      post_mu = Mutex.create ();
      wake_r;
      wake_w;
      wake_signaled = false;
      scratch = Bytes.create 65536;
    }

  let post t f =
    Mutex.lock t.post_mu;
    Queue.add f t.posted;
    let need_wake = not t.wake_signaled in
    if need_wake then t.wake_signaled <- true;
    Mutex.unlock t.post_mu;
    if need_wake then
      try ignore (Unix.write t.wake_w (Bytes.make 1 '!') 0 1)
      with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()

  (* Run what was posted since the last drain, if anything: swap the
     queue out under the lock, run the closures outside it. The pipe is
     left to [clear_wake]: a post that set [wake_signaled] writes its
     byte after unlocking, so the byte may land after this drain, and
     [select] then reports it. *)
  let drain_posted t =
    Mutex.lock t.post_mu;
    if t.wake_signaled then begin
      let jobs = Queue.create () in
      Queue.transfer t.posted jobs;
      t.wake_signaled <- false;
      Mutex.unlock t.post_mu;
      Queue.iter (fun f -> f ()) jobs
    end
    else Mutex.unlock t.post_mu

  (* Empty the wake pipe once [select] reports it readable. A post writes
     a byte only when it sets [wake_signaled], which only a drain clears,
     so one read empties the pipe; a byte left over would make the next
     [select] return at once, not lose a wake-up. *)
  let clear_wake t =
    try ignore (Unix.read t.wake_r t.scratch 0 64)
    with
    | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      ()

  let add_listener t fd ~on_accept = t.listeners <- (fd, on_accept) :: t.listeners
  let stop_accepting t = t.listeners <- []

  let add_conn t fd ~on_line ?on_close () =
    Unix.set_nonblock fd;
    let c =
      {
        fd;
        owner = t;
        framing = Framing.create ();
        out = Queue.create ();
        out_off = 0;
        out_bytes = 0;
        holds = 0;
        eof = false;
        closed = false;
        last_activity = Unix.gettimeofday ();
        on_line;
        on_close;
      }
    in
    Hashtbl.replace t.conns fd c;
    c

  let conn_count t = Hashtbl.length t.conns

  let drop t c =
    if not c.closed then begin
      c.closed <- true;
      Hashtbl.remove t.conns c.fd;
      (try Unix.close c.fd with Unix.Unix_error _ -> ());
      match c.on_close with Some f -> f c | None -> ()
    end

  (* Write as much of the out queue as the socket accepts right now. *)
  let flush_out t c =
    let progress = ref true in
    (try
       while (not c.closed) && c.out_bytes > 0 && !progress do
         let head = Queue.peek c.out in
         let len = String.length head - c.out_off in
         let n = Unix.write_substring c.fd head c.out_off len in
         c.out_bytes <- c.out_bytes - n;
         if n = len then begin
           ignore (Queue.pop c.out);
           c.out_off <- 0
         end
         else begin
           c.out_off <- c.out_off + n;
           progress := false
         end
       done
     with
    | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
        ()
    | Unix.Unix_error _ | Sys_error _ -> drop t c);
    if (not c.closed) && c.out_bytes > 0 then c.last_activity <- Unix.gettimeofday ()

  let send c line =
    if not c.closed then begin
      Queue.add line c.out;
      c.out_bytes <- c.out_bytes + String.length line;
      c.last_activity <- Unix.gettimeofday ();
      flush_out c.owner c
    end

  let hold c = c.holds <- c.holds + 1

  let maybe_drop_after_eof c =
    if (not c.closed) && c.eof && c.holds = 0 && c.out_bytes = 0 then
      drop c.owner c

  let release c =
    c.holds <- max 0 (c.holds - 1);
    maybe_drop_after_eof c

  let handle_readable t c =
    match Unix.read c.fd t.scratch 0 (Bytes.length t.scratch) with
    | 0 ->
        c.eof <- true;
        maybe_drop_after_eof c
    | n ->
        c.last_activity <- Unix.gettimeofday ();
        Framing.feed c.framing t.scratch 0 n;
        let rec dispatch () =
          if not c.closed then
            match Framing.next_line c.framing with
            | Some line ->
                c.on_line c line;
                dispatch ()
            | None -> ()
        in
        dispatch ()
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ()
    | exception (Unix.Unix_error _ | Sys_error _) ->
        (* peer reset mid-request: any in-flight work finishes and its
           delivery is dropped by the closed flag *)
        drop t c

  let handle_accept (lfd, on_accept) =
    let continue = ref true in
    while !continue do
      match Unix.accept ~cloexec:true lfd with
      | fd, _ -> on_accept fd
      | exception
          Unix.Unix_error
            ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR | Unix.ECONNABORTED), _, _)
        ->
          continue := false
      | exception Unix.Unix_error _ -> continue := false
    done

  let quiescent t =
    Hashtbl.length t.conns = 0
    || Hashtbl.fold
         (fun _ c acc -> acc && c.holds = 0 && c.out_bytes = 0)
         t.conns true

  let run t ?tick ?idle_timeout ?(drain_grace = 5.0) ~stop () =
    let draining = ref false in
    let drain_deadline = ref infinity in
    let finished = ref false in
    while not !finished do
      drain_posted t;
      if stop () && not !draining then begin
        draining := true;
        drain_deadline := Unix.gettimeofday () +. drain_grace;
        stop_accepting t
      end;
      if !draining && (quiescent t || Unix.gettimeofday () > !drain_deadline)
      then begin
        let all = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
        List.iter
          (fun c ->
            flush_out t c;
            drop t c)
          all;
        finished := true
      end
      else begin
        let reads = ref [ t.wake_r ] in
        let writes = ref [] in
        if not !draining then
          List.iter (fun (fd, _) -> reads := fd :: !reads) t.listeners;
        Hashtbl.iter
          (fun fd c ->
            if not c.eof then reads := fd :: !reads;
            if c.out_bytes > 0 then writes := fd :: !writes)
          t.conns;
        let timeout = 0.1 in
        (match Unix.select !reads !writes [] timeout with
        | rs, ws, _ ->
            List.iter
              (fun fd ->
                match Hashtbl.find_opt t.conns fd with
                | Some c -> flush_out t c
                | None -> ())
              ws;
            List.iter
              (fun fd ->
                if fd = t.wake_r then begin
                  clear_wake t;
                  drain_posted t
                end
                else
                  match Hashtbl.find_opt t.conns fd with
                  | Some c -> handle_readable t c
                  | None -> (
                      match List.assoc_opt fd t.listeners with
                      | Some on_accept -> handle_accept (fd, on_accept)
                      | None -> ()))
              rs
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | exception Unix.Unix_error (Unix.EBADF, _, _) ->
            (* a descriptor went away under us (e.g. the shared listener
               was closed by the coordinator): prune and carry on *)
            t.listeners <-
              List.filter
                (fun (fd, _) ->
                  match Unix.fstat fd with
                  | _ -> true
                  | exception Unix.Unix_error _ -> false)
                t.listeners);
        (* idle reaping *)
        (match idle_timeout with
        | Some limit when limit > 0. ->
            let now = Unix.gettimeofday () in
            let victims =
              Hashtbl.fold
                (fun _ c acc ->
                  if
                    c.holds = 0 && c.out_bytes = 0
                    && now -. c.last_activity > limit
                  then c :: acc
                  else acc)
                t.conns []
            in
            List.iter (drop t) victims
        | _ -> ());
        match tick with Some f -> f () | None -> ()
      end
    done
end
