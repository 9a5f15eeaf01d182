open Canon_idspace
open Canon_overlay

let merge ~ids chain node ~leaf ~above =
  let id = ids.(node) in
  let acc = Link_set.create ~self:node in
  leaf chain.(0) id acc;
  (* Condition (b): at each merge only links strictly closer than the
     closest own-ring node so far survive. *)
  let cap = ref Id.space in
  for level = 1 to Array.length chain - 1 do
    cap := min !cap (Ring.successor_distance chain.(level - 1) id);
    above chain.(level) id ~cap:!cap acc
  done;
  Link_set.to_array acc

let flat pop =
  let ids = pop.Population.ids in
  let chain = [| Ring.of_members ~ids ~members:(Array.init (Array.length ids) Fun.id) |] in
  fun _ -> chain

let canonical rings =
  let pop = Rings.population rings in
  (* One chain per leaf domain, shared by its nodes. *)
  let by_leaf = Array.make (Canon_hierarchy.Domain_tree.num_domains pop.Population.tree) [||] in
  fun node ->
    let leaf = pop.Population.leaf_of_node.(node) in
    if Array.length by_leaf.(leaf) = 0 then
      by_leaf.(leaf) <- Array.map (Rings.ring rings) (Rings.chain rings node);
    by_leaf.(leaf)

let build pop ~chain links =
  Overlay.create pop ~links:(Array.init (Population.size pop) (fun node -> links (chain node) node))
