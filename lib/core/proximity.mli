(** Proximity adaptation — the group-based construction of §3.6.

    Nodes sharing the top [T] identifier bits form a group; [T] is
    chosen so the expected group size is a constant
    ({!default_group_size}). Link rules then apply to {e group}
    identifiers: a rule that demands "the first node after id q" is
    satisfied by {e any} node of q's group, and the construction
    exploits that freedom by picking the group member with the lowest
    physical latency from the linking node. Nodes within a group form a
    dense (complete) network.

    - [Chord (Prox.)]: Chord built on groups — per [k < T] one link into
      group [g + 2{^k}] (the first non-empty group at or after it),
      lowest-latency member; plus the intra-group clique. Routing is
      {!Router.route} over group ids — each node's top [T] bits kept in
      place, the rest cleared — toward the destination's group id, then
      one intra-group clique hop to the destination.
    - [Crescendo (Prox.)]: a pair of rules over {!Canon.merge}:
      ordinary Crescendo fingers below the root; at the top-level merge
      each surviving finger picks the lowest-latency node among all
      admissible candidates — the arc [\[2{^k}, min(2{^k+1}, cap))]
      allowed by conditions (a) and (b) — sampling at most 32 of them
      (the paper notes s = 32 suffices for proximity neighbour
      selection). The exact top-level successor is always kept so
      greedy clockwise routing stays exact. In a one-level hierarchy
      the root is the leaf, and the pick runs there with no cap. *)

open Canon_overlay

type t

val default_group_size : int
(** 16 — the constant expected group size (the paper cites measurements
    that sampling s = 32 nodes suffices; a 16-node group plus the
    clique gives comparable choice at comparable state). *)

val group_bits : n:int -> group_size:int -> int
(** [T = max 0 (floor(log2(n / group_size)))]. *)

val build_chord : Population.t -> node_latency:(int -> int -> float) -> t
(** Groups of [T = group_bits ~n ~group_size:default_group_size] bits. *)

val build_crescendo : Rings.t -> node_latency:(int -> int -> float) -> t

val overlay : t -> Overlay.t

val route : t -> src:int -> dst:int -> Route.t
(** Route to a destination node (group-greedy + clique hop for Chord;
    plain greedy clockwise for Crescendo). Raises {!Router.Stuck} when
    the group-greedy route arrives in a group other than the
    destination's. *)
