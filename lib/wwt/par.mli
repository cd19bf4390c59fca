(** The domain count one simulation of [nodes] nodes could use on this
    host. No engine reads it: spreading one simulation over domains lost
    to {!Compile} in every measured configuration (EXPERIMENTS.md,
    "Parallel engine go/no-go"). The perfbench host description reports
    it as [par_domains_at_16_nodes]. *)

val default_domains : nodes:int -> int
(** [min (Jobs.default_jobs ()) nodes], at least 1. *)
