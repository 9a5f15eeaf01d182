open Canon_overlay

let build rng rings =
  let pop = Rings.population rings in
  Canon.build pop ~chain:(Canon.canonical rings) (Xor_dht.links (Random rng) ~ids:pop.Population.ids)
