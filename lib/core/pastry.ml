open Canon_idspace
open Canon_overlay
module Rng = Canon_rng.Rng

let digit_bits = 4

let digits = Id.bits / digit_bits

(* Digit [l] (0 = most significant) of an identifier. *)
let digit id l = (id lsr (Id.bits - ((l + 1) * digit_bits))) land ((1 lsl digit_bits) - 1)

(* The identifier range of routing cell (l, d) of [id]: all ids sharing
   the first [l] digits of [id] and carrying digit [d] at position [l].
   A single aligned range of length 2^(bits - (l+1)*b). *)
let cell_range id l d =
  let suffix_bits = Id.bits - ((l + 1) * digit_bits) in
  let prefix = Id.prefix id (l * digit_bits) in
  let base = ((prefix lsl digit_bits) lor d) lsl suffix_bits in
  (base, 1 lsl suffix_bits)

let count_range ring lo len =
  Ring.rank_at_or_after ring (lo + len) - Ring.rank_at_or_after ring lo

let random_in_cell rng ring id l d =
  let base, len = cell_range id l d in
  let count = count_range ring base len in
  if count = 0 then None
  else begin
    let rank = Ring.rank_at_or_after ring base + Rng.int_below rng count in
    Some (Ring.node_at ring rank)
  end

(* Fill every still-empty routing cell of [id] from [ring]. [filled] is
   indexed by l * 2^b + d. *)
let fill_cells rng ring id ~filled acc =
  for l = 0 to digits - 1 do
    for d = 0 to (1 lsl digit_bits) - 1 do
      let slot = (l lsl digit_bits) lor d in
      if (not filled.(slot)) && d <> digit id l then
        match random_in_cell rng ring id l d with
        | None -> ()
        | Some target ->
            Link_set.add acc target;
            filled.(slot) <- true
    done
  done

(* Cells fill bottom-up over the chain; a cell filled lower down is
   never re-filled, so the cap goes unused. *)
let links rng ~ids chain node =
  let filled = Array.make (digits lsl digit_bits) false in
  let fill ring id acc = fill_cells rng ring id ~filled acc in
  Canon.merge ~ids chain node ~leaf:fill ~above:(fun ring id ~cap:_ acc -> fill ring id acc)

let build rng pop = Canon.build pop ~chain:(Canon.flat pop) (links rng ~ids:pop.Population.ids)

let build_canonical rng rings =
  let pop = Rings.population rings in
  Canon.build pop ~chain:(Canon.canonical rings) (links rng ~ids:pop.Population.ids)
