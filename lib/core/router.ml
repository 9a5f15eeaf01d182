open Canon_idspace
open Canon_hierarchy
open Canon_overlay
module Span = Canon_telemetry.Span
module Trace = Canon_telemetry.Trace

exception Stuck of { at : int; key : Id.t; hops : int; path : int array }

(* Hierarchy level of a link: depth of the lowest common ancestor
   domain of its endpoints — 0 for a top-level link, deeper is more
   local. This is the level a span records for each hop. *)
let level_of_edge overlay =
  let pop = Overlay.population overlay in
  let tree = pop.Population.tree in
  fun u v -> Domain_tree.depth tree (Population.lca_of_nodes pop u v)

(* --- the clockwise rule over a link view --------------------------- *)

type view = {
  size : int;
  id : int -> Id.t;
  links : int -> int array;
  live : int -> bool;
}

let frozen overlay =
  {
    size = Overlay.size overlay;
    id = Overlay.id overlay;
    links = Overlay.links overlay;
    live = (fun _ -> true);
  }

type step = Forward of { next : int; deviated : bool } | Arrived | Blocked

(* Largest clockwise progress that does not overshoot the key: maximize
   distance(u, v) subject to distance(u, v) <= du, equivalently minimize
   distance(v, key). With [dead], the same pass tracks the choice with
   nothing dead (to flag a deviation) and whether a dead link would have
   made progress (Blocked, not Arrived: a live owner closer to the key
   may exist but [u] cannot see it). *)
let step ?dead view ~at:u ~key =
  let id_u = view.id u in
  let du = Id.distance id_u key in
  if du = 0 then Arrived
  else begin
    let links = view.links u in
    let best = ref (-1) and best_remaining = ref du in
    match dead with
    | None ->
        for i = 0 to Array.length links - 1 do
          let v = links.(i) in
          let id_v = view.id v in
          let remaining = Id.distance id_v key in
          if Id.distance id_u id_v <= du && remaining < !best_remaining then begin
            best := v;
            best_remaining := remaining
          end
        done;
        if !best < 0 then Arrived else Forward { next = !best; deviated = false }
    | Some dead ->
        let free = ref (-1) and free_remaining = ref du and blocked = ref false in
        for i = 0 to Array.length links - 1 do
          let v = links.(i) in
          let id_v = view.id v in
          if Id.distance id_u id_v <= du then begin
            let remaining = Id.distance id_v key in
            if remaining < !free_remaining then begin
              free := v;
              free_remaining := remaining
            end;
            if dead v then blocked := true
            else if remaining < !best_remaining then begin
              best := v;
              best_remaining := remaining
            end
          end
        done;
        if !best >= 0 then Forward { next = !best; deviated = !best <> !free }
        else if !blocked then Blocked
        else Arrived
  end

let no_level _ _ = 0

let record trace ~kind ~key ~level outcome nodes =
  match trace with
  | None -> ()
  | Some tr -> Trace.record tr ~kind ~key ~outcome ~nodes ~level ()

(* The one route loop: apply [rule] from [src] until the message arrives
   or is blocked. A generous hop budget: any genuine route is O(log n);
   if it exceeds the node count something is structurally wrong. *)
let walk ?trace ~kind ~level ~size ~src ~key rule =
  let max_hops = size + 1 in
  let rec go u acc hops =
    match rule u with
    | Forward { next; _ } ->
        if hops >= max_hops then begin
          let path = Array.of_list (List.rev (u :: acc)) in
          record trace ~kind ~key ~level Span.Stuck path;
          raise (Stuck { at = u; key; hops; path })
        end;
        go next (u :: acc) (hops + 1)
    | Arrived ->
        let nodes = Array.of_list (List.rev (u :: acc)) in
        record trace ~kind ~key ~level Span.Arrived nodes;
        Some Route.{ nodes }
    | Blocked ->
        record trace ~kind ~key ~level Span.Stranded (Array.of_list (List.rev (u :: acc)));
        None
  in
  go src [] 0

let route ?trace ?(level = no_level) ?dead view ~src ~key =
  (match dead with
  | Some dead when dead src -> invalid_arg "Router.route: dead source"
  | Some _ | None -> ());
  walk ?trace ~kind:"greedy_clockwise" ~level ~size:view.size ~src ~key (fun u ->
      step ?dead view ~at:u ~key)

(* Over a static overlay nothing is dead, so nothing strands. *)
let frozen_walk ?trace ~kind overlay ~src ~key rule =
  let level = match trace with None -> no_level | Some _ -> level_of_edge overlay in
  match walk ?trace ~kind ~level ~size:(Overlay.size overlay) ~src ~key rule with
  | Some r -> r
  | None -> assert false

let greedy_clockwise ?trace overlay ~src ~key =
  let view = frozen overlay in
  frozen_walk ?trace ~kind:"greedy_clockwise" overlay ~src ~key (fun u -> step view ~at:u ~key)

let greedy_clockwise_lookahead ?trace overlay ~src ~key =
  (* Score of standing at [w]: remaining clockwise distance to the key.
     A first hop [v] is scored by the best reachable remaining distance
     among [v] itself and [v]'s no-overshoot neighbours. *)
  let remaining w = Id.distance (Overlay.id overlay w) key in
  let no_overshoot a b =
    Id.distance (Overlay.id overlay a) (Overlay.id overlay b) <= remaining a
  in
  let score v =
    let best = ref (remaining v) in
    Array.iter
      (fun w -> if no_overshoot v w && remaining w < !best then best := remaining w)
      (Overlay.links overlay v);
    !best
  in
  let rule u =
    let du = remaining u in
    let best = ref (-1) and best_score = ref du and best_progress = ref (-1) in
    Array.iter
      (fun v ->
        if no_overshoot u v then begin
          let s = score v in
          let progress = du - remaining v in
          if s < !best_score || (s = !best_score && progress > !best_progress) then begin
            best := v;
            best_score := s;
            best_progress := progress
          end
        end)
      (Overlay.links overlay u);
    if !best < 0 then Arrived else Forward { next = !best; deviated = false }
  in
  frozen_walk ?trace ~kind:"greedy_clockwise_lookahead" overlay ~src ~key rule

let greedy_xor ?trace overlay ~src ~key =
  let rule u =
    let best = ref (-1) and best_d = ref (Id.xor_distance (Overlay.id overlay u) key) in
    Array.iter
      (fun v ->
        let d = Id.xor_distance (Overlay.id overlay v) key in
        if d < !best_d then begin
          best := v;
          best_d := d
        end)
      (Overlay.links overlay u);
    if !best < 0 then Arrived else Forward { next = !best; deviated = false }
  in
  frozen_walk ?trace ~kind:"greedy_xor" overlay ~src ~key rule
