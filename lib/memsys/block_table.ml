type t = { mutable a : int array }

let initial_blocks = 256

let create () = { a = Array.make initial_blocks 0 }

let get t blk =
  let a = t.a in
  if blk < Array.length a then a.(blk) else 0

let grow t blk =
  let len = Array.length t.a in
  let n = ref (max 1 len) in
  while !n <= blk do
    n := 2 * !n
  done;
  let b = Array.make !n 0 in
  Array.blit t.a 0 b 0 len;
  t.a <- b

let set t blk v =
  if blk < Array.length t.a then t.a.(blk) <- v
  else if v <> 0 then begin
    grow t blk;
    t.a.(blk) <- v
  end

let iter t f =
  let a = t.a in
  for blk = 0 to Array.length a - 1 do
    let v = a.(blk) in
    if v <> 0 then f blk v
  done

let fold_right t f init =
  let a = t.a in
  let acc = ref init in
  for blk = Array.length a - 1 downto 0 do
    let v = a.(blk) in
    if v <> 0 then acc := f blk v !acc
  done;
  !acc

let clear t = Array.fill t.a 0 (Array.length t.a) 0
