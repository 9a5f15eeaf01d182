open Canon_idspace
open Canon_hierarchy
open Canon_overlay
module Span = Canon_telemetry.Span
module Trace = Canon_telemetry.Trace

exception Stuck of { at : int; key : Id.t; hops : int; path : int array }

let stuck u acc key hops =
  Stuck { at = u; key; hops; path = Array.of_list (List.rev (u :: acc)) }

(* Hierarchy level of a link: depth of the lowest common ancestor
   domain of its endpoints — 0 for a top-level link, deeper is more
   local. This is the level a span records for each hop. *)
let level_of_edge overlay =
  let pop = Overlay.population overlay in
  let tree = pop.Population.tree in
  fun u v -> Domain_tree.depth tree (Population.lca_of_nodes pop u v)

(* Run one routing thunk under a trace: emit an Arrived span for the
   returned route, or a Stuck span for the partial path before
   re-raising. Engines only call this on the [Some trace] branch, so
   the untraced path pays one match and nothing else. *)
let traced tr ~kind ~key ~level run =
  match run () with
  | route ->
      Trace.record tr ~kind ~key ~outcome:Span.Arrived ~nodes:route.Route.nodes ~level ();
      route
  | exception (Stuck { path; _ } as e) ->
      Trace.record tr ~kind ~key ~outcome:Span.Stuck ~nodes:path ~level ();
      raise e

(* A generous hop budget: any genuine route is O(log n); if we exceed
   the node count something is structurally wrong. *)
let collect overlay src step key =
  let max_hops = Overlay.size overlay + 1 in
  let rec go u acc hops =
    match step u with
    | None -> Route.{ nodes = Array.of_list (List.rev (u :: acc)) }
    | Some v ->
        if hops >= max_hops then raise (stuck u acc key hops);
        go v (u :: acc) (hops + 1)
  in
  go src [] 0

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

let route ?trace ?(level = no_level) ?dead view ~src ~key =
  (match dead with
  | Some dead when dead src -> invalid_arg "Router.route: dead source"
  | Some _ | None -> ());
  let max_hops = view.size + 1 (* the same budget as [collect] *) in
  let record outcome nodes =
    match trace with
    | None -> ()
    | Some tr -> Trace.record tr ~kind:"greedy_clockwise" ~key ~outcome ~nodes ~level ()
  in
  let rec go u acc hops =
    match step ?dead view ~at:u ~key with
    | Forward { next; _ } ->
        if hops >= max_hops then begin
          let path = Array.of_list (List.rev (u :: acc)) in
          record Span.Stuck path;
          raise (Stuck { at = u; key; hops; path })
        end;
        go next (u :: acc) (hops + 1)
    | Arrived ->
        let nodes = Array.of_list (List.rev (u :: acc)) in
        record Span.Arrived nodes;
        Some Route.{ nodes }
    | Blocked ->
        record Span.Stranded (Array.of_list (List.rev (u :: acc)));
        None
  in
  go src [] 0

let greedy_clockwise ?trace overlay ~src ~key =
  let level = match trace with None -> no_level | Some _ -> level_of_edge overlay in
  match route ?trace ~level (frozen overlay) ~src ~key with
  | Some r -> r
  | None -> assert false (* nothing is dead, so nothing strands *)

let greedy_clockwise_lookahead ?trace overlay ~src ~key =
  let step u =
    let du = Id.distance (Overlay.id overlay u) key in
    if du = 0 then None
    else begin
      (* Score of standing at [w]: remaining clockwise distance to the
         key. A first hop [v] is scored by the best reachable remaining
         distance among [v] itself and [v]'s no-overshoot neighbours. *)
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
      if !best < 0 then None else Some !best
    end
  in
  match trace with
  | None -> collect overlay src step key
  | Some tr ->
      traced tr ~kind:"greedy_clockwise_lookahead" ~key ~level:(level_of_edge overlay)
        (fun () -> collect overlay src step key)

let greedy_xor ?trace overlay ~src ~key =
  let step u =
    let du = Id.xor_distance (Overlay.id overlay u) key in
    if du = 0 then None
    else begin
      let best = ref (-1) and best_d = ref du in
      Array.iter
        (fun v ->
          let d = Id.xor_distance (Overlay.id overlay v) key in
          if d < !best_d then begin
            best := v;
            best_d := d
          end)
        (Overlay.links overlay u);
      if !best < 0 then None else Some !best
    end
  in
  match trace with
  | None -> collect overlay src step key
  | Some tr ->
      traced tr ~kind:"greedy_xor" ~key ~level:(level_of_edge overlay) (fun () ->
          collect overlay src step key)
