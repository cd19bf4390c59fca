(* Identity of a coherence-protocol backend. A plain enum so machine
   configurations, cache keys and digests can carry "which protocol" as
   one comparable, marshalable value. *)

type t = Dir1sw | Sisd | Commute

let all = [ Dir1sw; Sisd; Commute ]
let default = Dir1sw

let to_string = function
  | Dir1sw -> "dir1sw"
  | Sisd -> "sisd"
  | Commute -> "commute"

let of_string = function
  | "dir1sw" -> Some Dir1sw
  | "sisd" -> Some Sisd
  | "commute" -> Some Commute
  | _ -> None

let describe = function
  | Dir1sw -> "Dir1SW directory protocol (Hill et al.)"
  | Sisd -> "self-invalidation / self-downgrade (SiSd)"
  | Commute -> "Dir1SW with privatized commutative updates (Coup-style)"

let pp ppf t = Format.pp_print_string ppf (to_string t)
