open Canon_overlay

let build pop = Canon.build pop ~chain:(Canon.flat pop) (Xor_dht.links Closest ~ids:pop.Population.ids)
