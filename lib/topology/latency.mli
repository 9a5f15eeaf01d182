(** Latency oracle over a transit-stub topology.

    Distances are computed {e on demand}: the first query from a source
    router runs one single-source Dijkstra and memoizes the whole row
    (a [float array] over destinations) in a router-indexed array, so
    {!create} runs no shortest-path work and a workload that touches
    [k] distinct sources costs [k] Dijkstras and [k * V] floats — never
    the O(V^2) all-pairs table an eager oracle materializes. Each row is
    computed once and stays resident.

    Overlay nodes attach to stub routers over an access link
    ([access_ms], 1 ms in the paper), so the latency between two overlay
    nodes attached to routers [r1] and [r2] is
    [access + spt(r1, r2) + access] — 2 ms when both hang off the same
    stub router, matching the paper's observation.

    Every oracle feeds the process-wide [latency.*] telemetry counters
    (rows computed, hits, misses); {!stats} gives one oracle's own. *)

type t

val create : Transit_stub.t -> t
(** No shortest-path work happens until the first query. *)

val topology : t -> Transit_stub.t

val router_latency : t -> int -> int -> float
(** Shortest-path latency between two routers, in ms. Memoizes the
    source's row on first use. *)

val node_latency : t -> int -> int -> float
(** [node_latency t r1 r2] is the overlay-node-to-overlay-node latency
    between nodes attached to stub routers [r1] and [r2], including both
    access links. [r1 = r2] gives twice the access latency. *)

type stats = {
  rows_computed : int;  (** Dijkstra runs, one per distinct source queried *)
  rows_resident : int;  (** rows currently memoized (= [rows_computed]) *)
  hits : int;  (** queries answered from a memoized row *)
  misses : int;  (** queries that had to run Dijkstra *)
}

val stats : t -> stats
(** This oracle's counters since {!create}. *)

val mean_node_latency : t -> Canon_rng.Rng.t -> samples:int -> float
(** Monte-Carlo estimate of the mean direct latency between two overlay
    nodes attached to uniformly random {e distinct} stub routers — the
    denominator of the paper's "stretch" metric. (A degenerate topology
    with a single stub router samples the same-router pair.) *)
