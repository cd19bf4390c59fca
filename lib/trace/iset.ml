(* A set is a strictly ascending int array. The loops below index only
   inside their arrays' bounds, so they read and write unchecked; every
   array is typed [int array], so a store is a plain store. *)
type t = int array

let get (a : int array) i = Array.unsafe_get a i
let set (a : int array) i (x : int) = Array.unsafe_set a i x
let empty : t = [||]
let singleton x : t = [| x |]

let ascending (a : int array) =
  let ok = ref true and i = ref 1 in
  while !ok && !i < Array.length a do
    ok := get a (!i - 1) < get a !i;
    incr i
  done;
  !ok

(* A list pushed in ascending order (so descending, repeats allowed),
   which is how the annotator's scans build theirs, needs no sort. *)
let rec descending = function
  | x :: (y :: _ as rest) -> x >= y && descending rest
  | [ _ ] | [] -> true

let of_list l =
  if descending l then begin
    let distinct = ref 0 and last = ref 0 in
    List.iter
      (fun x ->
        if !distinct = 0 || x <> !last then begin
          incr distinct;
          last := x
        end)
      l;
    let n = !distinct in
    let a = Array.make n 0 and k = ref n in
    List.iter
      (fun x ->
        if !k = n || get a !k <> x then begin
          decr k;
          set a !k x
        end)
      l;
    a
  end
  else Array.of_list (List.sort_uniq Int.compare l)

let of_sorted_array a =
  if ascending a then a
  else invalid_arg "Iset.of_sorted_array: not strictly ascending"

let elements = Array.to_list
let is_empty (s : t) = Array.length s = 0
let cardinal (s : t) = Array.length s

(* First position whose member is >= [x] (or the length). *)
let lower_bound (s : t) x =
  let lo = ref 0 and hi = ref (Array.length s) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if get s mid < x then lo := mid + 1 else hi := mid
  done;
  !lo

(* First position whose member is > [x] (or the length). *)
let upper_bound (s : t) x =
  let lo = ref 0 and hi = ref (Array.length s) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if get s mid <= x then lo := mid + 1 else hi := mid
  done;
  !lo

let mem x s =
  let i = lower_bound s x in
  i < Array.length s && get s i = x

let add x s =
  let i = lower_bound s x in
  let n = Array.length s in
  if i < n && get s i = x then s
  else
    Array.init (n + 1) (fun k ->
        if k < i then get s k else if k = i then x else get s (k - 1))

(* Each merge counts its result first, so it allocates the exact array
   once, or none when the result is one of its arguments. *)

let union (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  if la = 0 then b
  else if lb = 0 then a
  else begin
    let i = ref 0 and j = ref 0 and n = ref 0 in
    while !i < la && !j < lb do
      let x = get a !i and y = get b !j in
      if x <= y then incr i;
      if y <= x then incr j;
      incr n
    done;
    let n = !n + (la - !i) + (lb - !j) in
    if n = la then a
    else if n = lb then b
    else begin
      let r = Array.make n 0 in
      let i = ref 0 and j = ref 0 in
      for k = 0 to n - 1 do
        if !j >= lb || (!i < la && get a !i < get b !j) then begin
          set r k (get a !i);
          incr i
        end
        else begin
          let y = get b !j in
          set r k y;
          if !i < la && get a !i = y then incr i;
          incr j
        end
      done;
      r
    end
  end

let inter (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then empty
  else begin
    let i = ref 0 and j = ref 0 and n = ref 0 in
    while !i < la && !j < lb do
      let x = get a !i and y = get b !j in
      if x = y then incr n;
      if x <= y then incr i;
      if y <= x then incr j
    done;
    let n = !n in
    if n = la then a
    else if n = lb then b
    else if n = 0 then empty
    else begin
      let r = Array.make n 0 in
      let i = ref 0 and j = ref 0 and k = ref 0 in
      while !k < n do
        let x = get a !i and y = get b !j in
        if x = y then begin
          set r !k x;
          incr k
        end;
        if x <= y then incr i;
        if y <= x then incr j
      done;
      r
    end
  end

let diff (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then a
  else begin
    let i = ref 0 and j = ref 0 and common = ref 0 in
    while !i < la && !j < lb do
      let x = get a !i and y = get b !j in
      if x = y then incr common;
      if x <= y then incr i;
      if y <= x then incr j
    done;
    let n = la - !common in
    if n = la then a
    else if n = 0 then empty
    else begin
      let r = Array.make n 0 in
      let i = ref 0 and j = ref 0 and k = ref 0 in
      while !k < n do
        let x = get a !i in
        while !j < lb && get b !j < x do
          incr j
        done;
        if !j >= lb || get b !j <> x then begin
          set r !k x;
          incr k
        end;
        incr i
      done;
      r
    end
  end

let subset (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  la <= lb
  &&
  let i = ref 0 and j = ref 0 in
  while !i < la && !j < lb && la - !i <= lb - !j do
    let x = get a !i and y = get b !j in
    if x = y then incr i;
    if x >= y then incr j else j := lb
  done;
  !i = la

let equal (a : t) (b : t) =
  let n = Array.length a in
  n = Array.length b
  &&
  let i = ref 0 in
  while !i < n && get a !i = get b !i do
    incr i
  done;
  !i = n

let range ~lo ~hi s =
  if hi < lo then empty
  else
    let i = lower_bound s lo and j = upper_bound s hi in
    if i = 0 && j = Array.length s then s
    else if j <= i then empty
    else Array.sub s i (j - i)

let iter f (s : t) =
  for i = 0 to Array.length s - 1 do
    f (get s i)
  done

let fold f (s : t) init =
  let acc = ref init in
  for i = 0 to Array.length s - 1 do
    acc := f (get s i) !acc
  done;
  !acc

let filter p (s : t) =
  let n = Array.length s in
  let r = Array.make n 0 and k = ref 0 in
  for i = 0 to n - 1 do
    let x = get s i in
    if p x then begin
      set r !k x;
      incr k
    end
  done;
  if !k = n then s else if !k = 0 then empty else Array.sub r 0 !k

let exists p (s : t) =
  let n = Array.length s and i = ref 0 in
  while !i < n && not (p (get s !i)) do
    incr i
  done;
  !i < n
