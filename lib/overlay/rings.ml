open Canon_hierarchy

type t = {
  population : Population.t;
  rings : Ring.t array; (* indexed by domain *)
}

let population t = t.population

let ring t d = t.rings.(d)

let ring_of_node_at_depth t node k =
  t.rings.(Population.domain_of_node_at_depth t.population node k)

let chain t node =
  let tree = t.population.Population.tree in
  let leaf = t.population.Population.leaf_of_node.(node) in
  let depth = Domain_tree.depth tree leaf in
  let out = Array.make (depth + 1) leaf in
  let rec go d i =
    out.(i) <- d;
    if d <> Domain_tree.root tree then go (Domain_tree.parent tree d) (i + 1)
  in
  go leaf 0;
  out

let build_partial pop ~present =
  let tree = pop.Population.tree in
  let nd = Domain_tree.num_domains tree in
  (* Collect member lists bottom-up: credit each node to every ancestor
     of its leaf. *)
  let buckets = Array.make nd [] in
  Array.iter
    (fun node ->
      let leaf = pop.Population.leaf_of_node.(node) in
      let rec credit d =
        buckets.(d) <- node :: buckets.(d);
        if d <> Domain_tree.root tree then credit (Domain_tree.parent tree d)
      in
      credit leaf)
    present;
  let rings =
    Array.map
      (fun bucket -> Ring.of_members ~ids:pop.Population.ids ~members:(Array.of_list bucket))
      buckets
  in
  { population = pop; rings }

let build pop = build_partial pop ~present:(Array.init (Population.size pop) Fun.id)

let add_node t node =
  let id = t.population.Population.ids.(node) in
  Array.iter (fun domain -> Ring.insert t.rings.(domain) ~id ~node) (chain t node)

let remove_node t node =
  let id = t.population.Population.ids.(node) in
  Array.iter (fun domain -> Ring.remove t.rings.(domain) ~id) (chain t node)

let responsible t ~domain ~key =
  let r = t.rings.(domain) in
  if Ring.size r = 0 then invalid_arg "Rings.responsible: empty domain";
  Ring.predecessor_of_id r key
