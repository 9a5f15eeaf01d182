open Canon_idspace
open Canon_overlay
module Rng = Canon_rng.Rng

type choice =
  | Closest
  | Random of Rng.t

(* Count of ring members with identifier in [lo, hi), 0 <= lo <= hi <= space. *)
let count_range ring lo hi =
  Ring.rank_at_or_after ring hi - Ring.rank_at_or_after ring lo

(* The k-th XOR bucket of [id] is the aligned identifier range
   [base, base + 2^k) where base flips bit k of [id] and clears the bits
   below it. *)
let bucket_base id k = (id lxor (1 lsl k)) land lnot ((1 lsl k) - 1)

let closest_in_bucket ring id k =
  (* Bit descent: narrow the aligned range towards the identifier whose
     low bits match [id]'s, i.e. the member minimizing [xor id]. *)
  let lo = ref (bucket_base id k) and len = ref (1 lsl k) in
  if count_range ring !lo (!lo + !len) = 0 then None
  else begin
    while !len > 1 do
      let half = !len / 2 in
      (* First half has the (log2 half)-th bit clear; prefer the half
         matching [id]'s bit to minimize the XOR distance. *)
      let id_bit_set = id land half <> 0 in
      let preferred = if id_bit_set then !lo + half else !lo in
      if count_range ring preferred (preferred + half) > 0 then lo := preferred
      else if id_bit_set then () (* stay in [lo, lo+half) *)
      else lo := !lo + half;
      len := half
    done;
    let rank = Ring.rank_at_or_after ring !lo in
    Some (Ring.node_at ring rank)
  end

let random_in_bucket rng ring id k =
  let base = bucket_base id k in
  let count = count_range ring base (base + (1 lsl k)) in
  if count = 0 then None
  else begin
    let rank = Ring.rank_at_or_after ring base + Rng.int_below rng count in
    Some (Ring.node_at ring rank)
  end

let bucket_member choice ring id k =
  match choice with
  | Closest -> closest_in_bucket ring id k
  | Random rng -> random_in_bucket rng ring id k

let fill_buckets choice ring id ~filled acc =
  for k = 0 to Id.bits - 1 do
    if not filled.(k) then
      match bucket_member choice ring id k with
      | None -> ()
      | Some target ->
          Link_set.add acc target;
          filled.(k) <- true
  done

(* Buckets fill bottom-up over the chain; a bucket filled lower down is
   never re-filled, so the cap goes unused. *)
let links choice ~ids chain node =
  let filled = Array.make Id.bits false in
  let fill ring id acc = fill_buckets choice ring id ~filled acc in
  Canon.merge ~ids chain node ~leaf:fill ~above:(fun ring id ~cap:_ acc -> fill ring id acc)
