open Canon_overlay

let build rng pop =
  Canon.build pop ~chain:(Canon.flat pop) (Xor_dht.links (Random rng) ~ids:pop.Population.ids)
