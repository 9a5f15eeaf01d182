open Canon_idspace
open Canon_overlay

type kind =
  | Chord_groups of int (* T: prefix bits *)
  | Crescendo_groups

type t = {
  kind : kind;
  overlay : Overlay.t;
}

let default_group_size = 16

let group_bits ~n ~group_size =
  if n <= 0 || group_size <= 0 then invalid_arg "Proximity.group_bits";
  if n <= group_size then 0 else min Id.bits (Id.log2_floor (n / group_size))

let shift_of_bits bits = Id.bits - bits

(* Iterate the members of group [g] (top [t_bits] prefix = g) present in
   [ring], calling [f node]. *)
let iter_group ring ~t_bits g f =
  let shift = shift_of_bits t_bits in
  Ring.iter_arc ring ~start:(g lsl shift) ~len:(1 lsl shift) f

let min_latency_member ring ~t_bits g ~node_latency ~self =
  let best = ref (-1) and best_lat = ref infinity in
  iter_group ring ~t_bits g (fun node ->
      if node <> self then begin
        let l = node_latency self node in
        if l < !best_lat then begin
          best := node;
          best_lat := l
        end
      end);
  if !best < 0 then None else Some !best

let build_chord pop ~node_latency =
  let n = Population.size pop in
  let ids = pop.Population.ids in
  let t_bits = group_bits ~n ~group_size:default_group_size in
  let shift = shift_of_bits t_bits in
  let global = Ring.of_members ~ids ~members:(Array.init n Fun.id) in
  let links =
    Array.init n (fun node ->
        let id = ids.(node) in
        let g = Id.prefix id t_bits in
        let acc = Link_set.create ~self:node in
        (* Dense intra-group structure: the full clique. *)
        iter_group global ~t_bits g (fun peer -> Link_set.add acc peer);
        (* Group fingers: for each k < T, the first non-empty group at or
           after g + 2^k, entered at its lowest-latency member. *)
        for k = 0 to t_bits - 1 do
          let target_group = (g + (1 lsl k)) land ((1 lsl t_bits) - 1) in
          (* The first node at or after the target group's start. *)
          let entry = Ring.first_at_or_after global (target_group lsl shift) in
          let actual_group = Id.prefix ids.(entry) t_bits in
          if actual_group <> g then begin
            match min_latency_member global ~t_bits actual_group ~node_latency ~self:node with
            | Some best -> Link_set.add acc best
            | None -> Link_set.add acc entry
          end
        done;
        Link_set.to_array acc)
  in
  { kind = Chord_groups t_bits; overlay = Overlay.create pop ~links }

(* The top-level merge with the group rule. The exact successor is
   always kept so greedy clockwise routing stays exact. *)
let add_prox_fingers ~ids ~node_latency node ring id ~cap acc =
  (if Ring.size ring >= 2 then begin
     let succ = Ring.successor_of_id ring id in
     if Id.distance id ids.(succ) <= cap then Link_set.add acc succ
   end);
  let k = ref 0 in
  while !k < Id.bits && 1 lsl !k < cap do
    (match Ring.finger ring id (1 lsl !k) with
    | None -> ()
    | Some target ->
        if Id.distance id ids.(target) < cap then begin
          (* §3.6: at the top level the link rule only prescribes a
             *range* of admissible identifiers, and the node is free to
             pick the physically closest one (proximity neighbour
             selection, as in the paper's [5]). The admissible
             candidates are the nodes of the arc
             [id + 2^k, id + min(2^(k+1), cap)) — condition (a)
             restricted by condition (b). *)
          let hi = min (1 lsl (!k + 1)) cap in
          let start = Id.add id (1 lsl !k) in
          let len = hi - (1 lsl !k) in
          let count = Ring.arc_count ring ~start ~len in
          if count <= 1 then Link_set.add acc target
          else begin
            let best = ref target and best_lat = ref (node_latency node target) in
            (* Sample at most 32 candidates, as the paper notes s = 32
               suffices. *)
            let stride = max 1 (count / 32) in
            (* Index the arc's ranks directly: without a cap an arc can
               hold half the ring, too many to walk for 32 samples. *)
            let lo = Ring.rank_at_or_after ring start in
            let i = ref 0 in
            while !i < count do
              let peer = Ring.node_at ring ((lo + !i) mod Ring.size ring) in
              if peer <> node then begin
                let l = node_latency node peer in
                if l < !best_lat then begin
                  best := peer;
                  best_lat := l
                end
              end;
              i := !i + stride
            done;
            Link_set.add acc !best
          end
        end);
    incr k
  done

let build_crescendo rings ~node_latency =
  let pop = Rings.population rings in
  let ids = pop.Population.ids in
  let root_ring = Rings.ring rings (Canon_hierarchy.Domain_tree.root pop.Population.tree) in
  (* Ordinary Crescendo below the root, the proximity pick on the root
     ring. With a flat hierarchy the root is the leaf, and no cap
     applies. *)
  let links chain node =
    let rule ring id ~cap acc =
      if ring == root_ring then add_prox_fingers ~ids ~node_latency node ring id ~cap acc
      else Crescendo.add_fingers ~ids ring id ~cap acc
    in
    Canon.merge ~ids chain node ~leaf:(rule ~cap:Id.space) ~above:rule
  in
  { kind = Crescendo_groups; overlay = Canon.build pop ~chain:(Canon.canonical rings) links }

let overlay t = t.overlay

let route t ~src ~dst =
  let ov = t.overlay in
  match t.kind with
  | Crescendo_groups -> Router.greedy_clockwise ov ~src ~key:(Overlay.id ov dst)
  | Chord_groups t_bits -> (
      (* Group-greedy: the clockwise rule over group ids, a node's top
         [T] bits kept in place. It arrives in the destination's group,
         and the intra-group clique takes one hop to [dst]. *)
      let mask = (Id.space - 1) land lnot ((1 lsl shift_of_bits t_bits) - 1) in
      let group_id node = Overlay.id ov node land mask in
      match Router.route { (Router.frozen ov) with id = group_id } ~src ~key:(group_id dst) with
      | None -> assert false (* nothing is dead, so nothing strands *)
      | Some route ->
          let nodes = route.Route.nodes in
          let last = nodes.(Array.length nodes - 1) in
          if group_id last <> group_id dst then
            raise
              (Router.Stuck
                 { at = last; key = Overlay.id ov dst; hops = Array.length nodes - 1; path = nodes })
          else if last = dst then route
          else Route.{ nodes = Array.append nodes [| dst |] })
