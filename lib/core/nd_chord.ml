open Canon_idspace
open Canon_overlay
module Rng = Canon_rng.Rng

let add_bucket_links rng ring id ~cap acc =
  let k = ref 0 in
  while !k < Id.bits && 1 lsl !k < cap do
    let lo = 1 lsl !k in
    let len = min (lo) (cap - lo) in
    (* Arc of clockwise distances [lo, lo+len) from id, where
       lo + len <= min(2^(k+1), cap). *)
    let start = Id.add id lo in
    let count = Ring.arc_count ring ~start ~len in
    if count > 0 then Link_set.add acc (Ring.arc_nth ring ~start ~len (Rng.int_below rng count));
    incr k
  done

(* Successor then bucket choices in the leaf ring; above it, choices
   restricted under the cap, then the level's successor, which keeps the
   merged ring connected. *)
let links rng ~ids chain node =
  Canon.merge ~ids chain node
    ~leaf:(fun ring id acc ->
      if Ring.size ring >= 2 then begin
        Link_set.add acc (Ring.successor_of_id ring id);
        add_bucket_links rng ring id ~cap:Id.space acc
      end)
    ~above:(fun ring id ~cap acc ->
      if Ring.size ring >= 2 then begin
        add_bucket_links rng ring id ~cap acc;
        Link_set.add acc (Ring.successor_of_id ring id)
      end)

let build rng pop = Canon.build pop ~chain:(Canon.flat pop) (links rng ~ids:pop.Population.ids)
