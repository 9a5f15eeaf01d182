module Metrics = Canon_telemetry.Metrics

(* Process-wide telemetry, bound once (see Metrics). Counters aggregate
   over every oracle in the process; per-oracle figures are in [stats]. *)
let m_rows = Metrics.counter "latency.rows_computed"
let m_hits = Metrics.counter "latency.hits"
let m_misses = Metrics.counter "latency.misses"

type t = {
  topology : Transit_stub.t;
  graph : Graph.t;
  access : float;
  rows : float array array; (* per-source shortest-path rows; [||] until first use *)
  mutable computed : int;
  mutable hit : int;
  mutable miss : int;
}

type stats = {
  rows_computed : int;
  rows_resident : int;
  hits : int;
  misses : int;
}

let create ts =
  let graph = Transit_stub.graph ts in
  {
    topology = ts;
    graph;
    access = (Transit_stub.params ts).Transit_stub.access_ms;
    rows = Array.make (Graph.num_vertices graph) [||];
    computed = 0;
    hit = 0;
    miss = 0;
  }

let topology t = t.topology

let row t src =
  let r = t.rows.(src) in
  if Array.length r > 0 then begin
    t.hit <- t.hit + 1;
    Metrics.incr m_hits;
    r
  end
  else begin
    t.miss <- t.miss + 1;
    Metrics.incr m_misses;
    let dist = Graph.dijkstra t.graph src in
    t.rows.(src) <- dist;
    t.computed <- t.computed + 1;
    Metrics.incr m_rows;
    dist
  end

let router_latency t a b = (row t a).(b)

let node_latency t a b = t.access +. (row t a).(b) +. t.access

let stats t =
  { rows_computed = t.computed; rows_resident = t.computed; hits = t.hit; misses = t.miss }

let mean_node_latency t rng ~samples =
  if samples <= 0 then invalid_arg "Latency.mean_node_latency: samples must be positive";
  let stubs = Transit_stub.stub_routers t.topology in
  (* The mean-direct normalizer is over *distinct* node pairs: drawing
     the same stub for both endpoints would charge 2 x access_ms for a
     zero-distance pair and bias the stretch denominator down. A
     single-stub topology has no distinct pair, so it keeps a = b. *)
  let distinct = Array.length stubs > 1 in
  let total = ref 0.0 in
  for _ = 1 to samples do
    let a = Canon_rng.Rng.pick rng stubs in
    let b = ref (Canon_rng.Rng.pick rng stubs) in
    while distinct && !b = a do
      b := Canon_rng.Rng.pick rng stubs
    done;
    total := !total +. node_latency t a !b
  done;
  !total /. Float.of_int samples
