(** Crescendo — the Canonical version of Chord (paper §2), the paper's
    primary contribution.

    Every node first builds ordinary Chord links inside its lowest-level
    (leaf) domain ring. Sibling rings are then merged bottom-up: during
    the merge producing the ring of domain [D], a node [m] adds a link
    to a node [m'] of a sibling ring iff

    - (a) [m'] is the closest node at least distance [2{^k}] away for
      some [k], applied over the union of the merged rings, and
    - (b) [m'] is strictly closer to [m] than every node of [m]'s own
      (pre-merge) ring.

    Consequently a node links to its successor in the ring at {e every}
    level of its domain chain, which is what makes greedy clockwise
    routing hierarchical: routes never leave the lowest domain
    containing source and destination (intra-domain locality), and all
    routes from a domain to an outside target exit through the target's
    closest predecessor in the domain (inter-domain convergence).

    With a one-level hierarchy, Crescendo is exactly Chord: both are
    {!links} over {!Canon.merge}. *)

open Canon_overlay

val links : ids:Canon_idspace.Id.t array -> Ring.t array -> int -> int array
(** The Chord rule pair: fingers in the leaf ring, fingers under the
    cap above it. [links ~ids chain node] is [node]'s link set over a
    chain of rings, leaf first; [ids] maps node indices to
    identifiers. Over [[| ring |]] it is the Chord finger rule against
    that ring. *)

val add_fingers :
  ids:Canon_idspace.Id.t array -> Ring.t -> Canon_idspace.Id.t -> cap:int -> Link_set.t -> unit
(** The Chord rule kept under a cap: for each [k] with [2{^k} < cap],
    the closest node of the ring at least [2{^k}] away from [id], when
    it lies strictly closer than [cap]. Every [k] with [2{^k}] up to the
    successor's distance names the successor, so it is added once and
    those [k] are skipped. *)

val build : Rings.t -> Overlay.t
(** Deterministic given the rings. Domains with no nodes contribute
    nothing. *)
