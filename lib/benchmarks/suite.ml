type t = {
  name : string;
  source : string;
  hand_source : string;
  trace_seed : int;
  eval_seed : int;
}

let reseed program seed = Lang.Ast_util.set_const program "SEED" seed

let names = [ "matmul"; "barnes"; "tomcatv"; "ocean"; "mp3d" ]

let scaled scale base = max 1 (int_of_float (float_of_int base *. scale))

(* Problem sizes must respect each benchmark's divisibility constraints;
   round to the nearest valid size. *)
let round_to multiple v = max multiple (v / multiple * multiple)

(* One benchmark at its default scaled size. Only the requested
   generator runs, so [find] costs one source pair, not five. *)
let build ~scale ~nodes name =
  if nodes <= 0 then invalid_arg "Suite: nodes must be positive";
  let trace_seed = 1 and eval_seed = 2 in
  let bench source hand_source =
    { name; source; hand_source; trace_seed; eval_seed }
  in
  let per_node base = round_to nodes (scaled scale base) in
  match name with
  | "matmul" ->
      let pr, pc = Grid.factor nodes in
      let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
      let n = round_to (pr * pc / gcd pr pc) (scaled scale Matmul.default_n) in
      bench
        (Matmul.source ~n ~seed:trace_seed ~nodes ())
        (Matmul.hand_source ~n ~seed:trace_seed ~nodes ())
  | "barnes" ->
      let bodies = per_node Barnes.default_bodies in
      bench
        (Barnes.source ~bodies ~seed:trace_seed ~nodes ())
        (Barnes.hand_source ~bodies ~seed:trace_seed ~nodes ())
  | "tomcatv" ->
      let n = scaled scale Tomcatv.default_n in
      bench
        (Tomcatv.source ~n ~seed:trace_seed ~nodes ())
        (Tomcatv.hand_source ~n ~seed:trace_seed ~nodes ())
  | "ocean" ->
      let n = per_node Ocean.default_n in
      bench
        (Ocean.source ~n ~seed:trace_seed ~nodes ())
        (Ocean.hand_source ~n ~seed:trace_seed ~nodes ())
  | "mp3d" ->
      let particles = per_node Mp3d.default_particles in
      bench
        (Mp3d.source ~particles ~seed:trace_seed ~nodes ())
        (Mp3d.hand_source ~particles ~seed:trace_seed ~nodes ())
  | _ -> raise Not_found

let all ?(scale = 1.0) ~nodes () = List.map (build ~scale ~nodes) names
let find ?(scale = 1.0) ~nodes name = build ~scale ~nodes name
