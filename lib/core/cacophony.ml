open Canon_overlay

let build rng rings =
  let pop = Rings.population rings in
  Canon.build pop ~chain:(Canon.canonical rings) (Symphony.links rng ~ids:pop.Population.ids)
