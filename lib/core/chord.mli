(** Flat Chord (Stoica et al., SIGCOMM 2001) — the paper's primary
    baseline.

    Each node with identifier [m] links, for every [0 <= k < N], to the
    closest node at least clockwise distance [2{^k}] away. The [k = 0]
    link is the node's successor, so greedy clockwise routing is always
    live. Expected out-degree is at most [log2(n-1) + 1] (paper
    Theorem 1) and expected route length at most [log2(n-1)/2 + 1/2]
    (Theorem 4). *)

open Canon_overlay

val build : Population.t -> Overlay.t
(** {!Crescendo.links} over {!Canon.flat}: deterministic given the
    population, the hierarchy, if any, ignored. *)
