(** Setup-cost benchmark for the latency oracle: eager all-pairs
    Dijkstra table vs the lazy memoized oracle, on transit-stub
    topologies scaled to 4096/16384/65536 routers (1024/4096 at quick
    scale).

    For each size: eager all-pairs setup time — a lazy oracle warmed
    on every source router (measured up to 4096 routers, estimated from the observed per-row Dijkstra cost
    beyond — the whole point is that the eager table stops being
    runnable), lazy [Latency.create] time (no Dijkstra), the time for 1000
    random node-latency lookups, the number of rows those lookups
    actually computed, and the resident-memory comparison (full V^2
    matrix vs computed rows x V). *)

val run : scale:Common.scale -> seed:int -> Canon_stats.Table.t
