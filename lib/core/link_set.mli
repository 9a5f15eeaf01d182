(** Per-node link accumulator used by every construction: collects link
    targets, silently dropping self-links and duplicates (several finger
    distances often select the same node).

    Membership is an array mark per target, shared by all sets of one
    domain, rather than a table per set. So exactly one set is live per
    domain: the one made by the latest {!create}. Build one node's links
    to the end before starting the next node's. *)

type t

val create : self:int -> t
(** A fresh, empty set; any set created earlier in this domain is no
    longer live. *)

val add : t -> int -> unit
(** Adds a target unless it is [self] or already present. Raises
    [Invalid_argument] for a negative target or a set that is no longer
    live. *)

val mem : t -> int -> bool
(** Raises [Invalid_argument] for a set that is no longer live. *)

val to_array : t -> int array
(** Targets in insertion order. *)
