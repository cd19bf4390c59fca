(** Water: molecular dynamics with pairwise short-range forces (modelled
    on the SPLASH Water code; an extra validation target beyond the five
    benchmarks of the paper's Figure 6).

    Each node owns a slice of molecules. Every time step computes
    Lennard-Jones-style pair forces by reading {e all} positions
    (read-shared, like Barnes' force phase but without the tree), then
    integrates its own molecules (owner-written), and accumulates a
    potential-energy partial into a small shared array (false sharing
    unless padded — it is deliberately left unpadded, as in early SPLASH
    codes). *)

val source :
  ?molecules:int -> ?t:int -> ?seed:int -> nodes:int -> unit -> string
(** Default [molecules = 64], [t = 3], [seed = 1]. *)

val hand_source :
  ?molecules:int -> ?t:int -> ?seed:int -> nodes:int -> unit -> string
(** A straightforward hand annotation: positions checked in by readers
    after the force phase, own slices checked out exclusive for the
    update. *)

val default_t : int
