(* Property tests over randomly shaped hierarchies: the paper's
   theorems hold "irrespective of the structure of the hierarchy", so
   we generate arbitrary domain trees (skewed, deep, shallow, lopsided)
   and check the Crescendo invariants on every one of them. *)

open Canon_idspace
open Canon_hierarchy
open Canon_overlay
open Canon_core
module Rng = Canon_rng.Rng

(* A random tree spec with bounded size and depth, deterministic in the
   integer seed so failures are reproducible. *)
let random_spec seed =
  let rng = Rng.create (seed * 2654435761) in
  let budget = ref (2 + Rng.int_below rng 40) in
  let rec go depth =
    decr budget;
    if depth >= 4 || !budget <= 0 || Rng.int_below rng 3 = 0 then Domain_tree.Leaf
    else begin
      let kids = 1 + Rng.int_below rng 4 in
      Domain_tree.Node (List.init kids (fun _ -> go (depth + 1)))
    end
  in
  match go 0 with
  | Domain_tree.Leaf -> Domain_tree.Node [ Domain_tree.Leaf; Domain_tree.Leaf ]
  | spec -> spec

let build_random seed =
  let rng = Rng.create (seed + 17) in
  let tree = Domain_tree.of_spec (random_spec seed) in
  let n = 2 + Rng.int_below rng 250 in
  let policy = if Rng.bool rng then Placement.Uniform else Placement.Zipfian 1.25 in
  let pop = Population.create rng ~tree ~policy ~n in
  let rings = Rings.build pop in
  (pop, rings, Crescendo.build rings)

let prop_random_routing_reaches =
  QCheck.Test.make ~count:40 ~name:"crescendo on random hierarchies: routing reaches"
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let pop, _rings, ov = build_random seed in
      let rng = Rng.create (seed + 1) in
      let n = Population.size pop in
      let ok = ref true in
      for _ = 1 to 25 do
        let src = Rng.int_below rng n and dst = Rng.int_below rng n in
        let route = Router.greedy_clockwise ov ~src ~key:(Overlay.id ov dst) in
        if Route.destination route <> dst then ok := false
      done;
      !ok)

let prop_random_locality =
  QCheck.Test.make ~count:40 ~name:"crescendo on random hierarchies: intra-domain locality"
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let pop, _rings, ov = build_random seed in
      let tree = pop.Population.tree in
      let rng = Rng.create (seed + 2) in
      let n = Population.size pop in
      let ok = ref true in
      for _ = 1 to 25 do
        let src = Rng.int_below rng n and dst = Rng.int_below rng n in
        let lca = Population.lca_of_nodes pop src dst in
        let route = Router.greedy_clockwise ov ~src ~key:(Overlay.id ov dst) in
        Array.iter
          (fun node ->
            if
              not
                (Domain_tree.is_ancestor tree ~anc:lca
                   ~desc:pop.Population.leaf_of_node.(node))
            then ok := false)
          route.Route.nodes
      done;
      !ok)

let prop_random_condition_b =
  QCheck.Test.make ~count:40 ~name:"crescendo on random hierarchies: condition (b)"
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let pop, rings, ov = build_random seed in
      let tree = pop.Population.tree in
      let ok = ref true in
      Overlay.iter_links ov (fun src dst ->
          let leaf_src = pop.Population.leaf_of_node.(src) in
          let leaf_dst = pop.Population.leaf_of_node.(dst) in
          if leaf_src <> leaf_dst then begin
            let lca = Domain_tree.lca tree leaf_src leaf_dst in
            let child =
              Domain_tree.ancestor_at_depth tree leaf_src (Domain_tree.depth tree lca + 1)
            in
            let d_own = Ring.successor_distance (Rings.ring rings child) pop.Population.ids.(src) in
            let d = Id.distance pop.Population.ids.(src) pop.Population.ids.(dst) in
            if d >= d_own then ok := false
          end);
      !ok)

let prop_random_degree_logarithmic =
  QCheck.Test.make ~count:40
    ~name:"crescendo on random hierarchies: mean degree within Theorem 2"
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let pop, _rings, ov = build_random seed in
      let n = Population.size pop in
      if n < 3 then true
      else begin
        let tree = pop.Population.tree in
        let levels = Float.of_int (Domain_tree.height tree + 1) in
        let log2 x = log x /. log 2.0 in
        let bound =
          log2 (Float.of_int (n - 1)) +. Float.min levels (log2 (Float.of_int n))
        in
        Overlay.mean_degree ov <= bound
      end)

let prop_random_successor_chain =
  QCheck.Test.make ~count:40
    ~name:"crescendo on random hierarchies: successor at every level"
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let pop, rings, ov = build_random seed in
      let ok = ref true in
      for node = 0 to Population.size pop - 1 do
        Array.iter
          (fun domain ->
            let ring = Rings.ring rings domain in
            if Ring.size ring >= 2 then begin
              let succ = Ring.successor_of_id ring pop.Population.ids.(node) in
              if not (Overlay.has_link ov node succ) then ok := false
            end)
          (Rings.chain rings node)
      done;
      !ok)

let prop_random_maintenance_equivalence =
  QCheck.Test.make ~count:15
    ~name:"maintenance on random hierarchies: join/leave equals static"
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let rng = Rng.create (seed + 3) in
      let tree = Domain_tree.of_spec (random_spec seed) in
      let n = 20 + Rng.int_below rng 80 in
      let pop = Population.create rng ~tree ~policy:Placement.Uniform ~n in
      let order = Array.init n Fun.id in
      Rng.shuffle_in_place rng order;
      let half = n / 2 in
      let m = Canon_sim.Maintenance.create pop ~present:(Array.sub order 0 half) in
      (* join a quarter, leave an eighth *)
      for i = half to half + (n / 4) - 1 do
        ignore (Canon_sim.Maintenance.join m order.(i))
      done;
      for i = 0 to (n / 8) - 1 do
        ignore (Canon_sim.Maintenance.leave m order.(i))
      done;
      let live = Canon_sim.Maintenance.present m in
      let chain = Canon.canonical (Rings.build_partial pop ~present:live) in
      Array.for_all
        (fun node ->
          let sort a = let a = Array.copy a in Array.sort Int.compare a; a in
          sort (Crescendo.links ~ids:pop.Population.ids (chain node) node)
          = sort (Canon_sim.Maintenance.links m node))
        live)

let suites =
  [
    ( "random-hierarchies",
      [
        QCheck_alcotest.to_alcotest prop_random_routing_reaches;
        QCheck_alcotest.to_alcotest prop_random_locality;
        QCheck_alcotest.to_alcotest prop_random_condition_b;
        QCheck_alcotest.to_alcotest prop_random_degree_logarithmic;
        QCheck_alcotest.to_alcotest prop_random_successor_chain;
        QCheck_alcotest.to_alcotest prop_random_maintenance_equivalence;
      ] );
  ]
