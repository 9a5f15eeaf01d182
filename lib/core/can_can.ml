open Canon_overlay

let build rings =
  let pop = Rings.population rings in
  Canon.build pop ~chain:(Canon.canonical rings) (Xor_dht.links Closest ~ids:pop.Population.ids)
