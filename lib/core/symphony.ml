open Canon_idspace
open Canon_overlay
module Rng = Canon_rng.Rng

let long_links_per_node n = if n <= 1 then 0 else Id.log2_floor n

let harmonic_distance rng ~n =
  if n < 2 then invalid_arg "Symphony.harmonic_distance: need n >= 2";
  (* Inverse-CDF sampling: x = n^(u-1) has density 1/(x ln n) on [1/n, 1). *)
  let u = Rng.float rng in
  let x = Float.of_int n ** (u -. 1.0) in
  let d = int_of_float (x *. Float.of_int Id.space) in
  max 1 (min (Id.space - 1) d)

(* [floor(log2 n)] harmonic long links from [id] over a ring of n >= 2
   nodes, kept below [cap]. Failed draws (self, duplicate, beyond cap)
   are redrawn a bounded number of times, as in Symphony's own
   construction. *)
let draw_long_links rng ~ids ring id ~cap acc =
  let n = Ring.size ring in
  let wanted = long_links_per_node n in
  let added = ref 0 and attempts = ref 0 in
  while !added < wanted && !attempts < 16 * wanted do
    incr attempts;
    let d = harmonic_distance rng ~n in
    let target = Ring.first_at_or_after ring (Id.add id d) in
    let dist = Id.distance id ids.(target) in
    if dist > 0 && dist < cap && not (Link_set.mem acc target) then begin
      Link_set.add acc target;
      incr added
    end
  done

(* Successor then harmonic draws in the leaf ring; above it, draws kept
   under the cap, then the level's successor. The redraws reject targets
   already linked, so this order fixes the RNG stream. *)
let links rng ~ids chain node =
  Canon.merge ~ids chain node
    ~leaf:(fun ring id acc ->
      if Ring.size ring >= 2 then begin
        Link_set.add acc (Ring.successor_of_id ring id);
        draw_long_links rng ~ids ring id ~cap:Id.space acc
      end)
    ~above:(fun ring id ~cap acc ->
      if Ring.size ring >= 2 then begin
        draw_long_links rng ~ids ring id ~cap acc;
        Link_set.add acc (Ring.successor_of_id ring id)
      end)

let build rng pop = Canon.build pop ~chain:(Canon.flat pop) (links rng ~ids:pop.Population.ids)
