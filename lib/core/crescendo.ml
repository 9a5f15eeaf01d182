open Canon_idspace
open Canon_overlay

let merge rings node ~leaf ~above =
  let id = (Rings.population rings).Population.ids.(node) in
  let acc = Link_set.create ~self:node in
  let chain = Rings.chain rings node in
  let leaf_ring = Rings.ring rings chain.(0) in
  leaf leaf_ring id acc;
  (* Condition (b): at each merge only links strictly closer than the
     closest own-ring node so far survive. *)
  let cap = ref (Ring.successor_distance leaf_ring id) in
  for level = 1 to Array.length chain - 1 do
    let ring = Rings.ring rings chain.(level) in
    above ring id ~cap:!cap acc;
    cap := min !cap (Ring.successor_distance ring id)
  done;
  Link_set.to_array acc

let add_fingers ~ids ring id ~cap acc =
  (* Only finger distances below the cap can yield a surviving link. *)
  let k = ref 0 in
  while !k < Id.bits && 1 lsl !k < cap do
    (match Ring.finger ring id (1 lsl !k) with
    | Some target when Id.distance id ids.(target) < cap -> Link_set.add acc target
    | Some _ | None -> ());
    incr k
  done

let links_of_node rings node =
  let ids = (Rings.population rings).Population.ids in
  merge rings node ~leaf:(add_fingers ~ids ~cap:Id.space) ~above:(add_fingers ~ids)

let build rings =
  let pop = Rings.population rings in
  let links = Array.init (Population.size pop) (fun node -> links_of_node rings node) in
  Overlay.create pop ~links
