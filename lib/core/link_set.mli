(** Per-node link accumulator used by every construction: collects link
    targets, silently dropping self-links and duplicates (several finger
    distances often select the same node). *)

type t

val create : self:int -> t

val add : t -> int -> unit
(** Adds a target unless it is [self] or already present. *)

val mem : t -> int -> bool

val to_array : t -> int array
(** Targets in insertion order. *)
