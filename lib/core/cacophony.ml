open Canon_idspace
open Canon_overlay

(* Successor then harmonic draws in the leaf ring; above it, draws kept
   under the cap, then the level's successor. Symphony's redraws reject
   targets already linked, so this order fixes the RNG stream. *)
let links_of_node rng rings node =
  let ids = (Rings.population rings).Population.ids in
  let draws ring id ~cap acc =
    Symphony.draw_long_links rng ~ids ring id
      ~wanted:(Symphony.long_links_per_node (Ring.size ring))
      ~cap acc
  in
  Crescendo.merge rings node
    ~leaf:(fun ring id acc ->
      if Ring.size ring >= 2 then begin
        Link_set.add acc (Ring.successor_of_id ring id);
        draws ring id ~cap:Id.space acc
      end)
    ~above:(fun ring id ~cap acc ->
      if Ring.size ring >= 2 then begin
        draws ring id ~cap acc;
        Link_set.add acc (Ring.successor_of_id ring id)
      end)

let build rng rings =
  let pop = Rings.population rings in
  let links = Array.init (Population.size pop) (fun node -> links_of_node rng rings node) in
  Overlay.create pop ~links
