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

    With a one-level hierarchy, Crescendo is exactly Chord.

    {2 Canon's one clockwise merge}

    Every clockwise Canonical construction — Crescendo, Hybrid,
    Cacophony, ND-Crescendo and Crescendo (Prox.) — is a pair of link
    rules over {!merge}: one for the leaf ring, one applied at each
    enclosing ring under condition (b)'s distance cap. *)

open Canon_overlay

val merge :
  Rings.t ->
  int ->
  leaf:(Ring.t -> Canon_idspace.Id.t -> Link_set.t -> unit) ->
  above:(Ring.t -> Canon_idspace.Id.t -> cap:int -> Link_set.t -> unit) ->
  int array
(** [merge rings node ~leaf ~above] is the bottom-up walk over [node]'s
    domain chain. [leaf] adds links inside the leaf ring; [above] then
    runs on each enclosing ring from the leaf's parent to the root and
    receives [~cap], the clockwise distance to [node]'s closest
    own-ring node so far (the minimum successor distance over the rings
    already merged). A link survives condition (b) iff it is strictly
    closer than [cap]; [above] must drop the others. Both rules receive
    [node]'s identifier and add into its link accumulator. The result
    is the link set in insertion order. *)

val add_fingers :
  ids:Canon_idspace.Id.t array -> Ring.t -> Canon_idspace.Id.t -> cap:int -> Link_set.t -> unit
(** The Chord rule kept under a cap: for each [k] with [2{^k} < cap],
    the closest node of the ring at least [2{^k}] away from [id], when
    it lies strictly closer than [cap]. [ids] maps node indices to
    identifiers. At [cap = Id.space] this adds the fingers of
    {!Chord.links_of_id}, in the same order. *)

val build : Rings.t -> Overlay.t
(** Deterministic given the rings. Domains with no nodes contribute
    nothing. *)

val links_of_node : Rings.t -> int -> int array
(** The link set of a single node, leaf-to-root (used by dynamic
    maintenance to compute the links a joining node must establish). *)
