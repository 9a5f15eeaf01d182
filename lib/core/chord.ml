open Canon_overlay

let build pop = Canon.build pop ~chain:(Canon.flat pop) (Crescendo.links ~ids:pop.Population.ids)
