(** Canon (paper §2): a hierarchical DHT is a flat DHT's link rule
    re-applied at every merge of a node's domain chain. A flat DHT is
    the same rule over a one-ring chain, the global ring, so every flat
    and Canonical construction is one rule over {!merge}, built by
    {!build} over the chain {!flat} or {!canonical} gives each node. *)

open Canon_overlay

val merge :
  ids:Canon_idspace.Id.t array ->
  Ring.t array ->
  int ->
  leaf:(Ring.t -> Canon_idspace.Id.t -> Link_set.t -> unit) ->
  above:(Ring.t -> Canon_idspace.Id.t -> cap:int -> Link_set.t -> unit) ->
  int array
(** [merge ~ids chain node ~leaf ~above] walks [node]'s chain of rings,
    leaf first. [leaf] adds links inside [chain.(0)]; [above] then runs
    on each enclosing ring with [~cap], the clockwise distance to
    [node]'s closest own-ring node so far. A link survives condition
    (b) iff it is strictly closer than [cap]. Both rules receive
    [ids.(node)] and add into [node]'s accumulator; the result is in
    insertion order. *)

val flat : Population.t -> int -> Ring.t array
(** Every node's chain is the global ring alone: the hierarchy is
    ignored. *)

val canonical : Rings.t -> int -> Ring.t array
(** A node's domain chain, leaf first, one array per leaf domain. *)

val build :
  Population.t -> chain:(int -> Ring.t array) -> (Ring.t array -> int -> int array) -> Overlay.t
(** [build pop ~chain links] applies [links] to each node's chain, in
    node order. *)
