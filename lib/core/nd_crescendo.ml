open Canon_idspace
open Canon_overlay

(* Successor then bucket choices in the leaf ring; above it, choices
   restricted under the cap, then the level's successor, which keeps the
   merged ring connected. *)
let links_of_node rng rings node =
  Crescendo.merge rings node
    ~leaf:(fun ring id acc ->
      if Ring.size ring >= 2 then begin
        Link_set.add acc (Ring.successor_of_id ring id);
        Nd_chord.add_bucket_links rng ring id ~cap:Id.space acc
      end)
    ~above:(fun ring id ~cap acc ->
      if Ring.size ring >= 2 then begin
        Nd_chord.add_bucket_links rng ring id ~cap acc;
        Link_set.add acc (Ring.successor_of_id ring id)
      end)

let build rng rings =
  let pop = Rings.population rings in
  let links = Array.init (Population.size pop) (fun node -> links_of_node rng rings node) in
  Overlay.create pop ~links
