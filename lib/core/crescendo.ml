open Canon_idspace
open Canon_overlay

let add_fingers ~ids ring id ~cap acc =
  (* Only finger distances below the cap can yield a surviving link;
     every finger survives an absent cap. *)
  let keep target = cap = Id.space || Id.distance id ids.(target) < cap in
  match Ring.finger ring id 1 with
  | None -> ()
  | Some succ ->
      (* Every finger at distance 2^k <= d(id, succ) is the successor:
         add it once and start at the first 2^k past it. *)
      if keep succ then Link_set.add acc succ;
      let k = ref (Id.log2_floor (Id.distance id ids.(succ)) + 1) in
      while !k < Id.bits && 1 lsl !k < cap do
        (match Ring.finger ring id (1 lsl !k) with
        | Some target when keep target -> Link_set.add acc target
        | Some _ | None -> ());
        incr k
      done

let links ~ids chain node =
  Canon.merge ~ids chain node ~leaf:(add_fingers ~ids ~cap:Id.space) ~above:(add_fingers ~ids)

let build rings =
  let pop = Rings.population rings in
  Canon.build pop ~chain:(Canon.canonical rings) (links ~ids:pop.Population.ids)
