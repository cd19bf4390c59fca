(* Trace.Iset, the annotator's one set type (a sorted int array), against
   the stdlib's balanced-tree set as the reference: every exported
   operation on random int lists with repeats, negatives, [min_int] and
   [max_int], and the canonical form the delta oracle's polymorphic
   [compare] of epoch info relies on. *)

module I = Trace.Iset
module S = Set.Make (Int)

(* Ints that collide (a small range), far apart ones (the whole int
   range) and the extremes. *)
let elt =
  QCheck.Gen.(
    frequency
      [
        (6, int_range (-20) 20);
        (2, int);
        (1, oneofl [ min_int; max_int; min_int + 1; max_int - 1; 0; -1 ]);
      ])

let arb =
  QCheck.make
    ~print:
      QCheck.Print.(
        fun (a, b, (x, lo, hi)) ->
          Printf.sprintf "a=%s b=%s x=%d lo=%d hi=%d" (list int a) (list int b)
            x lo hi)
    QCheck.Gen.(
      triple (list_size (int_range 0 40) elt) (list_size (int_range 0 40) elt)
        (triple elt elt elt))

let same i s = I.elements i = S.elements s

let raises_invalid f =
  match f () with _ -> false | exception Invalid_argument _ -> true

let prop_matches_stdlib =
  QCheck.Test.make ~count:1000 ~name:"every Iset operation = Set.Make (Int)" arb
    (fun (a, b, (x, lo, hi)) ->
      let ia = I.of_list a and ib = I.of_list b in
      let sa = S.of_list a and sb = S.of_list b in
      let even v = v land 1 = 0 in
      let collect iter s =
        let acc = ref [] in
        iter (fun v -> acc := v :: !acc) s;
        List.rev !acc
      in
      let sorted = Array.of_list (S.elements sa) in
      I.elements I.empty = [] && I.is_empty I.empty
      && I.elements (I.singleton x) = [ x ]
      && same ia sa && same ib sb
      && I.equal (I.of_sorted_array (Array.copy sorted)) ia
      && (Array.length sorted < 2
         || raises_invalid (fun () ->
                I.of_sorted_array (Array.of_list (List.rev (S.elements sa))))
            && raises_invalid (fun () ->
                   I.of_sorted_array (Array.append sorted [| sorted.(0) |])))
      && I.cardinal ia = S.cardinal sa
      && I.is_empty ia = S.is_empty sa
      && I.mem x ia = S.mem x sa
      && List.for_all (fun v -> I.mem v ia = S.mem v sa) b
      && same (I.add x ia) (S.add x sa)
      && same (I.union ia ib) (S.union sa sb)
      && same (I.inter ia ib) (S.inter sa sb)
      && same (I.diff ia ib) (S.diff sa sb)
      && same (I.diff ib ia) (S.diff sb sa)
      && I.subset ia ib = S.subset sa sb
      && I.subset ib ia = S.subset sb sa
      && I.subset (I.inter ia ib) ia
      && I.equal ia ib = S.equal sa sb
      && same (I.range ~lo ~hi ia)
           (S.filter (fun v -> lo <= v && v <= hi) sa)
      && same (I.range ~lo:(min lo hi) ~hi:(max lo hi) ia)
           (S.filter (fun v -> min lo hi <= v && v <= max lo hi) sa)
      && collect I.iter ia = collect S.iter sa
      && I.fold List.cons ia [] = S.fold List.cons sa []
      && same (I.filter even ia) (S.filter even sa)
      && I.exists even ia = S.exists even sa)

(* Two sets with the same elements are the same value, however they
   were built: [=] and [compare] see only the elements. *)
let prop_canonical =
  QCheck.Test.make ~count:500 ~name:"sets with equal elements are ="
    arb (fun (a, b, (x, _, _)) ->
      let ia = I.of_list a and ib = I.of_list b in
      let u = I.union ia ib in
      let rebuilt = I.of_list (List.rev (b @ a)) in
      u = rebuilt
      && compare u rebuilt = 0
      && I.union ib ia = u
      && I.diff u (I.diff u ia) = I.inter u ia
      && I.add x (I.add x ia) = I.add x ia
      && I.filter (fun _ -> true) ia = ia
      && I.range ~lo:min_int ~hi:max_int ia = ia
      && (I.inter ia ib = I.empty) = I.is_empty (I.inter ia ib)
      && (I.equal ia ib = (ia = ib)))

let suite = List.map Qc.qtest [ prop_matches_stdlib; prop_canonical ]
