open Canon_overlay

(* The LAN clique on the leaf; ordinary Crescendo merges above, so
   condition (b)'s cap is the distance to the nearest LAN peer. *)
let links_of_node rings node =
  let ids = (Rings.population rings).Population.ids in
  Crescendo.merge rings node
    ~leaf:(fun ring _ acc -> Array.iter (Link_set.add acc) (Ring.members ring))
    ~above:(Crescendo.add_fingers ~ids)

let build rings =
  let pop = Rings.population rings in
  let links = Array.init (Population.size pop) (fun node -> links_of_node rings node) in
  Overlay.create pop ~links
