open Canon_overlay

(* The LAN clique on the leaf; ordinary Crescendo merges above, so
   condition (b)'s cap is the distance to the nearest LAN peer. *)
let build rings =
  let pop = Rings.population rings in
  let ids = pop.Population.ids in
  Canon.build pop ~chain:(Canon.canonical rings) (fun chain node ->
      Canon.merge ~ids chain node
        ~leaf:(fun ring _ acc -> Array.iter (Link_set.add acc) (Ring.members ring))
        ~above:(Crescendo.add_fingers ~ids))
