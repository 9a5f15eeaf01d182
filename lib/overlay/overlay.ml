type t = {
  population : Population.t;
  links : int array array;
}

let create pop ~links =
  let n = Population.size pop in
  if Array.length links <> n then invalid_arg "Overlay.create: adjacency size mismatch";
  (* [seen.(dst) = src] once [src]'s list has named [dst]. *)
  let seen = Array.make n (-1) in
  Array.iteri
    (fun src targets ->
      Array.iter
        (fun dst ->
          if dst = src then invalid_arg "Overlay.create: self-link";
          if dst < 0 || dst >= n then invalid_arg "Overlay.create: target out of range";
          if seen.(dst) = src then invalid_arg "Overlay.create: duplicate link";
          seen.(dst) <- src)
        targets)
    links;
  { population = pop; links }

let population t = t.population

let size t = Population.size t.population

let id t node = t.population.Population.ids.(node)

let links t node = t.links.(node)

let degree t node = Array.length t.links.(node)

let degrees t = Array.map Array.length t.links

let mean_degree t =
  let total = Array.fold_left (fun acc l -> acc + Array.length l) 0 t.links in
  Float.of_int total /. Float.of_int (max 1 (size t))

let has_link t src dst = Array.exists (Int.equal dst) t.links.(src)

let iter_links t f =
  Array.iteri (fun src targets -> Array.iter (fun dst -> f src dst) targets) t.links
