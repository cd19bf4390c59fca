type t = Vint of int | Vfloat of float

let zero = Vint 0
let of_bool b = Vint (if b then 1 else 0)

let to_bool = function Vint 0 -> false | Vfloat 0.0 -> false | _ -> true
let to_int = function Vint i -> i | Vfloat f -> int_of_float f
let to_float = function Vint i -> float_of_int i | Vfloat f -> f

(* Written out rather than shared through a higher-order helper, so each
   is one direct call with no closure applications inside. *)
let add a b =
  match (a, b) with
  | Vint x, Vint y -> Vint (x + y)
  | _ -> Vfloat (to_float a +. to_float b)

let sub a b =
  match (a, b) with
  | Vint x, Vint y -> Vint (x - y)
  | _ -> Vfloat (to_float a -. to_float b)

let mul a b =
  match (a, b) with
  | Vint x, Vint y -> Vint (x * y)
  | _ -> Vfloat (to_float a *. to_float b)

let div a b =
  match (a, b) with
  | Vint x, Vint y -> if y = 0 then raise Division_by_zero else Vint (x / y)
  | _ ->
      let y = to_float b in
      if y = 0.0 then raise Division_by_zero else Vfloat (to_float a /. y)

let modulo a b =
  match (a, b) with
  | Vint x, Vint y -> if y = 0 then raise Division_by_zero else Vint (x mod y)
  | _ -> Vfloat (Float.rem (to_float a) (to_float b))

let neg = function Vint i -> Vint (-i) | Vfloat f -> Vfloat (-.f)

let compare_num a b =
  match (a, b) with
  | Vint x, Vint y -> compare x y
  | _ -> compare (to_float a) (to_float b)

let equal a b = compare_num a b = 0

let pp ppf = function
  | Vint i -> Format.pp_print_int ppf i
  | Vfloat f -> Format.fprintf ppf "%g" f

let to_string v = Format.asprintf "%a" pp v
