(** Symphony (Manku, Bawa, Raghavan; USITS 2003) — randomized small-world
    DHT over the ring, second baseline (paper §3.1).

    Each node keeps a link to its successor plus [floor(log2 n)] long
    links; a long link spans a clockwise distance [x * 2{^N}] where [x]
    is drawn from the harmonic density [1/(x ln n)] on [[1/n, 1]].
    Greedy clockwise routing takes O(log{^2} n / k) hops with k long
    links; with 1-lookahead this drops to O(log n / log log n). *)

open Canon_overlay

val links :
  Canon_rng.Rng.t -> ids:Canon_idspace.Id.t array -> Ring.t array -> int -> int array
(** The Symphony rule pair over a chain of rings (see {!Canon.merge}):
    in the leaf ring the successor and [floor(log2 n_leaf)] harmonic
    draws; above it [floor(log2 n_level)] draws kept under the cap,
    then the level's successor. Failed draws (self, duplicate, beyond
    the cap) are redrawn a bounded number of times. Over the global
    ring alone it is flat Symphony; over a domain chain, Cacophony. *)

val build : Canon_rng.Rng.t -> Population.t -> Overlay.t
(** Flat Symphony: {!links} over {!Canon.flat}. *)

val harmonic_distance : Canon_rng.Rng.t -> n:int -> int
(** One harmonic draw: a clockwise distance in [[1, 2{^N})] distributed
    as [x * 2{^N}] with [x ~ 1/(x ln n)] on [[1/n, 1)]. Requires
    [n >= 2]. *)
