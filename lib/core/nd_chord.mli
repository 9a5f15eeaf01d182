(** Nondeterministic Chord (CFS / Gummadi et al., paper §3.2).

    Instead of the closest node at least [2{^k}] away, a node links to a
    {e uniformly random} node at clockwise distance in [[2{^k},
    2{^k+1})] for each [k], plus its successor. Routing properties are
    almost identical to Symphony. *)

open Canon_overlay

val links :
  Canon_rng.Rng.t -> ids:Canon_idspace.Id.t array -> Ring.t array -> int -> int array
(** The nondeterministic Chord rule pair over a chain of rings (see
    {!Canon.merge}). For each [k] with [2{^k} < cap], a uniformly random
    node at clockwise distance in [[2{^k}, min(2{^k+1}, cap))], when
    that arc is non-empty: in the leaf ring the successor, then the
    choices with no cap; above it the choices restricted under the cap
    exactly as §3.2 prescribes, then the level's successor. Over the
    global ring alone it is ND-Chord; over a domain chain,
    ND-Crescendo. *)

val build : Canon_rng.Rng.t -> Population.t -> Overlay.t
(** {!links} over {!Canon.flat}. *)
