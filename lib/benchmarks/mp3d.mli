(** Mp3d: rarefied fluid-flow simulation (the SPLASH kernel, scaled to a
    1-D active space).

    Each node owns a contiguous slice of particles. Every time step moves
    the particles, scatters them into shared space cells
    ([CELL\[c\] = CELL\[c\] + 1] where [c] depends on the particle
    position — a data race with dynamic, input-dependent addresses), and
    then scales velocities by the local cell density. The paper reports
    the highest shared-write fraction of the suite (80 %) and the largest
    Cachier-over-hand win (45 %): dynamic access patterns are exactly
    where hand annotation goes wrong. *)

val source :
  ?particles:int -> ?cells:int -> ?t:int -> ?seed:int -> nodes:int ->
  unit -> string
(** Default [particles = 1024], [cells = 64], [t = 3], [seed = 1]. *)

val hand_source :
  ?particles:int -> ?cells:int -> ?t:int -> ?seed:int -> nodes:int ->
  unit -> string
(** The flawed hand version of Section 6: particle positions and
    velocities are checked in immediately after every write (too early —
    the same cache block holds the next particles) and the cell array is
    never checked in at all (neglected). *)

val default_particles : int
val default_t : int
