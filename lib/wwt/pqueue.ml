(* Entry [i] occupies [heap.(3i)] (priority), [heap.(3i + 1)] (sequence
   number) and [heap.(3i + 2)] (payload). Sifts move a hole instead of
   swapping, and nothing is allocated except when the array grows. *)
type t = {
  mutable heap : int array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { heap = [||]; size = 0; next_seq = 0 }

let length t = t.size
let is_empty t = t.size = 0

let min_prio t = if t.size = 0 then max_int else t.heap.(0)

(* does entry [i] order before (prio, seq)? The annotations keep the
   helpers monomorphic: int loads and compares, no write barrier. *)
let[@inline] before (h : int array) i prio seq =
  let p = h.(3 * i) in
  p < prio || (p = prio && h.((3 * i) + 1) < seq)

let[@inline] set (h : int array) i prio seq value =
  h.(3 * i) <- prio;
  h.((3 * i) + 1) <- seq;
  h.((3 * i) + 2) <- value

let[@inline] move (h : int array) ~src ~dst =
  set h dst h.(3 * src) h.((3 * src) + 1) h.((3 * src) + 2)

let push t ~prio value =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  if 3 * t.size = Array.length t.heap then begin
    let heap = Array.make (max 48 (2 * Array.length t.heap)) 0 in
    Array.blit t.heap 0 heap 0 (3 * t.size);
    t.heap <- heap
  end;
  let h = t.heap in
  let i = ref t.size in
  t.size <- t.size + 1;
  while !i > 0 && not (before h ((!i - 1) / 2) prio seq) do
    let parent = (!i - 1) / 2 in
    move h ~src:parent ~dst:!i;
    i := parent
  done;
  set h !i prio seq value

let pop t =
  if t.size = 0 then invalid_arg "Pqueue.pop: empty queue";
  let h = t.heap in
  let top = h.(2) in
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then begin
    (* sift the last entry down from the root *)
    let prio = h.(3 * n)
    and seq = h.((3 * n) + 1)
    and value = h.((3 * n) + 2) in
    let i = ref 0 and placed = ref false in
    while not !placed do
      let l = (2 * !i) + 1 in
      if l >= n then placed := true
      else begin
        let c =
          if l + 1 < n && before h (l + 1) h.(3 * l) h.((3 * l) + 1) then l + 1
          else l
        in
        if before h c prio seq then begin
          move h ~src:c ~dst:!i;
          i := c
        end
        else placed := true
      end
    done;
    set h !i prio seq value
  end;
  top
