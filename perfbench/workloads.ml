(* The benchmark's workloads. Each one is a set-up, run a few times and
   timed, that returns a batch function; the runner calls the batch
   function repeatedly for as long as the run lasts. Every batch of a
   run is a pure function of the seed and the batch's index: build-prox
   and route-greedy repeat the same work in every batch, churn-live and
   kv-faults draw a fresh trajectory per batch. Counts are read from
   fixed batches, so they repeat exactly at a seed.

   Inputs are generated here from the seed; the library only ever
   receives the generated populations, keys, pairs and RNG states. Calls
   into the library's public functions are wrapped in {!Tracer} spans,
   and every result is checked against an independent expectation. *)

open Canon_idspace
open Canon_hierarchy
open Canon_topology
open Canon_overlay
open Canon_core
open Canon_sim
open Canon_net
open Canon_storage
module Rng = Canon_rng.Rng
module Metrics = Canon_telemetry.Metrics

type size =
  | Full
  | Small  (** tiny inputs for the determinism self-test *)

type batch = {
  lookups : int;  (** lookups completed *)
  lookup_ns : int;  (** wall time of the phase that issued them *)
  checked : int;  (** results checked independently *)
  rejected : int;  (** results the checks rejected *)
  sim_ok : int;  (** simulated successes (delivered lookups, served ops) *)
  sim_total : int;
  sim : (string * string) list;
      (** simulation outputs that must repeat exactly at a seed *)
  layer : (string * float) list;
      (** per-layer state read off the batch's results (links per node,
          hop means, queue depths, per-oracle statistics) *)
}

type t = {
  name : string;
  setup : size -> seed:int -> record_op:(int -> unit) -> int -> batch;
      (** [setup size ~seed ~record_op] builds the inputs and returns the
          batch function, which takes the batch's index in the run;
          [record_op ns] receives each client operation's wall time *)
}

let rng seed k = Rng.create ((seed * 1_000_003) + k)

(* The generator of stream [k] of batch [i]: workloads whose batches
   draw fresh trajectories use it, so a run averages over many of them
   while batch [i] of a seed is always the same. *)
let batch_rng seed i k = rng seed ((1000 * (i + 1)) + k)

(* Span names, one per layer call the benchmark wraps. *)
let s_topology = Tracer.name "topology.generate"

let s_population = Tracer.name "population.create"

let s_rings = Tracer.name "rings.build"

let s_latency = Tracer.name "latency.query"

let s_chord = Tracer.name "chord.build"

let s_crescendo = Tracer.name "crescendo.build"

let s_prox_chord = Tracer.name "prox_chord.build"

let s_prox_crescendo = Tracer.name "prox_crescendo.build"

let s_route = Tracer.name "router.route"

let s_prox_route = Tracer.name "prox.route"

let s_prepare = Tracer.name "churn.prepare"

let s_apply = Tracer.name "churn.apply"

let s_pop = Tracer.name "event_queue.pop"

let s_net_create = Tracer.name "net.create"

let s_launch = Tracer.name "net.launch"

let s_handle = Tracer.name "net.handle"

let s_put = Tracer.name "store.put"

let s_get = Tracer.name "store.get"

let span nm f =
  Tracer.enter nm;
  let r = f () in
  Tracer.leave ();
  r

(* The [node_latency] closure handed to [Proximity] and [Net]. Traced
   batches get a version that charges every query to [latency.query]. *)
let node_latency lat attach =
  let plain a b = Latency.node_latency lat attach.(a) attach.(b) in
  if !Tracer.on then fun a b ->
    let t0 = Tracer.now_ns () in
    let r = plain a b in
    Tracer.account s_latency (Tracer.now_ns () - t0);
    r
  else plain

let attach_of pop =
  match pop.Population.attach with
  | Some a -> a
  | None -> invalid_arg "Workloads: population without attachment points"

let oracle_layer lat =
  let s = Latency.stats lat in
  let queries = s.Latency.hits + s.Latency.misses in
  [
    ("latency.rows_computed", Float.of_int s.Latency.rows_computed);
    ("latency.rows_resident", Float.of_int s.Latency.rows_resident);
    ( "latency.hit_ratio",
      if queries = 0 then 0.0 else Float.of_int s.Latency.hits /. Float.of_int queries );
  ]

(* A latency oracle with the row of every router a node attaches to
   already computed, so batches only ever hit memoized rows. *)
let warm_oracle ts attach =
  let lat = Latency.create ts in
  Array.iter (fun r -> ignore (Latency.router_latency lat r r)) attach;
  lat

let topology_population ~seed ~n =
  let ts =
    span s_topology (fun () -> Transit_stub.generate (rng seed 1) Transit_stub.default_params)
  in
  let pop =
    span s_population (fun () ->
        Population.create_with_attach (rng seed 2) ~tree:(Transit_stub.hierarchy ts)
          ~leaf_to_attach:(Transit_stub.stub_router_of_leaf ts) ~n)
  in
  (ts, pop)

let root_of pop = Domain_tree.root pop.Population.tree

let float_bits f = Printf.sprintf "%h" f

(* A timed client operation: [f] runs inside a span of [nm] tagged with
   operation id [op]; its wall time goes to [record_op]. *)
let timed_op ~record_op nm ~op f =
  let t0 = Tracer.now_ns () in
  Tracer.enter ~op nm;
  let r = f () in
  Tracer.leave ();
  record_op (Tracer.now_ns () - t0);
  r

(* --- build-prox --------------------------------------------------------- *)

(* The fig6 pipeline: the four overlays built one after the other over
   one transit-stub population with a fresh (cold) latency oracle, each
   followed by a short probe-routing pass over it. *)
let build_prox size ~seed ~record_op =
  let n, probes = match size with Full -> (32768, 10000) | Small -> (2048, 400) in
  let ts, pop = topology_population ~seed ~n in
  let rings = span s_rings (fun () -> Rings.build pop) in
  let attach = attach_of pop in
  let root = root_of pop in
  let r = rng seed 3 in
  let greedy_inputs =
    Array.init probes (fun _ ->
        let src = Rng.int_below r n and key = Id.random r in
        (src, Rings.responsible rings ~domain:root ~key, key))
  in
  let prox_inputs =
    Array.init probes (fun _ ->
        let src = Rng.int_below r n and dst = Rng.int_below r n in
        (src, dst, pop.Population.ids.(dst)))
  in
  fun _batch ->
    let lat = Latency.create ts in
    let node_latency = node_latency lat attach in
    let rejected = ref 0 and hops = ref 0 and op = ref 0 and probe_ns = ref 0 in
    (* Routes every input with [route src key] inside a [nm] span; the
       route must end at the input's expected node. Returns the summed
       physical latency of the routes; [probe_ns] counts only the
       routing calls, not the latency sums. *)
    let probe nm inputs route =
      let sum = ref 0.0 in
      Array.iter
        (fun (src, expect, key) ->
          let t0 = Tracer.now_ns () in
          let path = timed_op ~record_op nm ~op:!op (fun () -> route src key expect) in
          probe_ns := !probe_ns + (Tracer.now_ns () - t0);
          incr op;
          if Route.destination path <> expect then incr rejected;
          hops := !hops + Route.hops path;
          sum := !sum +. Route.latency path ~node_latency)
        inputs;
      !sum
    in
    let greedy overlay src key _ = Router.greedy_clockwise overlay ~src ~key in
    let prox overlay src _ dst = Proximity.route overlay ~src ~dst in
    let chord = span s_chord (fun () -> Chord.build pop) in
    let lat_chord = probe s_route greedy_inputs (greedy chord) in
    let crescendo = span s_crescendo (fun () -> Crescendo.build rings) in
    let lat_crescendo = probe s_route greedy_inputs (greedy crescendo) in
    let prox_chord = span s_prox_chord (fun () -> Proximity.build_chord pop ~node_latency) in
    let lat_prox_chord = probe s_prox_route prox_inputs (prox prox_chord) in
    let prox_crescendo =
      span s_prox_crescendo (fun () -> Proximity.build_crescendo rings ~node_latency)
    in
    let lat_prox_crescendo = probe s_prox_route prox_inputs (prox prox_crescendo) in
    let lookups = 4 * probes in
    let links =
      [
        ("chord.links_per_node", Overlay.mean_degree chord);
        ("crescendo.links_per_node", Overlay.mean_degree crescendo);
        ("prox_chord.links_per_node", Overlay.mean_degree (Proximity.overlay prox_chord));
        ( "prox_crescendo.links_per_node",
          Overlay.mean_degree (Proximity.overlay prox_crescendo) );
      ]
    in
    {
      lookups;
      lookup_ns = !probe_ns;
      checked = lookups;
      rejected = !rejected;
      sim_ok = lookups - !rejected;
      sim_total = lookups;
      sim =
        ("route.hops", string_of_int !hops)
        :: List.map
             (fun (k, v) -> (k, float_bits v))
             ([
                ("latency_sum.chord", lat_chord);
                ("latency_sum.crescendo", lat_crescendo);
                ("latency_sum.prox_chord", lat_prox_chord);
                ("latency_sum.prox_crescendo", lat_prox_crescendo);
              ]
             @ links @ oracle_layer lat);
      layer =
        (("router.hops_mean", Float.of_int !hops /. Float.of_int lookups) :: links)
        @ oracle_layer lat;
    }

(* --- route-greedy ------------------------------------------------------- *)

(* Closed-loop greedy lookups on a prebuilt 3-level hierarchy; no
   topology, so the latency oracle is never called. *)
let route_greedy size ~seed ~record_op =
  let n, lookups = match size with Full -> (32768, 20000) | Small -> (2048, 2000) in
  let pop =
    span s_population (fun () ->
        let tree = Domain_tree.of_spec (Domain_tree.uniform_spec ~fanout:10 ~levels:3) in
        Population.create (rng seed 1) ~tree ~policy:(Placement.Zipfian 1.25) ~n)
  in
  let rings = span s_rings (fun () -> Rings.build pop) in
  let chord = span s_chord (fun () -> Chord.build pop) in
  let crescendo = span s_crescendo (fun () -> Crescendo.build rings) in
  let root = root_of pop in
  let r = rng seed 3 in
  (* Even lookups route over Chord, odd ones over Crescendo. *)
  let inputs =
    Array.init lookups (fun _ ->
        let src = Rng.int_below r n and key = Id.random r in
        (src, key, Rings.responsible rings ~domain:root ~key))
  in
  fun _batch ->
    let rejected = ref 0 and hops = ref 0 and crescendo_hops = ref 0 in
    let t0 = Tracer.now_ns () in
    Array.iteri
      (fun i (src, key, expect) ->
        let overlay = if i land 1 = 0 then chord else crescendo in
        let route =
          timed_op ~record_op s_route ~op:i (fun () -> Router.greedy_clockwise overlay ~src ~key)
        in
        if Route.destination route <> expect then incr rejected;
        let h = Route.hops route in
        hops := !hops + h;
        if i land 1 = 1 then crescendo_hops := !crescendo_hops + h)
      inputs;
    let elapsed = Tracer.now_ns () - t0 in
    {
      lookups;
      lookup_ns = elapsed;
      checked = lookups;
      rejected = !rejected;
      sim_ok = lookups - !rejected;
      sim_total = lookups;
      sim =
        [
          ("route.hops", string_of_int !hops);
          ("route.crescendo_hops", string_of_int !crescendo_hops);
        ];
      layer =
        [
          ("router.hops_mean", Float.of_int !hops /. Float.of_int lookups);
          ("chord.links_per_node", Overlay.mean_degree chord);
          ("crescendo.links_per_node", Overlay.mean_degree crescendo);
        ];
    }

(* --- churn-live --------------------------------------------------------- *)

type payload =
  | Membership of Churn.event
  | Launch of int
  | Rpc of int * Net.event  (** the lookup the message belongs to *)

(* One merged-queue trajectory: a sustained Poisson join/leave stream
   driving [Maintenance] through [Churn.apply], interleaved with async
   [Net] lookups over a [Live_view]. Arrivals are open-loop in simulated
   time; the queue is drained as fast as the process can go. *)
let churn_phase ~chord ~rng ~pop ~config ~lookups ~lookup_spacing_ms ~node_latency
    ~record_op =
  let n = Population.size pop and root = root_of pop in
  let view_ref = ref None in
  let on_event h = match !view_ref with None -> () | Some v -> Live_view.on_hook v h in
  let driver, schedule =
    span s_prepare (fun () -> Churn.prepare ~on_event (rng 11) pop config)
  in
  let m = Churn.maintenance driver in
  let view = if chord then Live_view.chord m else Live_view.crescendo m in
  view_ref := Some view;
  let net =
    span s_net_create (fun () ->
        Net.create ~live:view ~rng:(rng 12) ~node_latency (Maintenance.overlay m))
  in
  let q = Event_queue.create () in
  let pushes = ref 0 and max_depth = ref 0 in
  let push_payload ~time p =
    Event_queue.push q ~time p;
    incr pushes;
    let d = Event_queue.size q in
    if d > !max_depth then max_depth := d
  in
  let t = ref 0.0 in
  List.iter
    (fun (dt, ev) ->
      t := !t +. dt;
      push_payload ~time:!t (Membership ev))
    schedule;
  let lk_rng = rng 13 in
  t := 0.0;
  for i = 0 to lookups - 1 do
    t := !t +. Rng.exponential lk_rng ~mean:lookup_spacing_ms;
    push_payload ~time:!t (Launch i)
  done;
  let pick_rng = rng 14 in
  let rec live_node () =
    let v = Rng.int_below pick_rng n in
    if Live_view.is_live view v then v else live_node ()
  in
  let current = ref (-1) in
  let push ~time ev = push_payload ~time (Rpc (!current, ev)) in
  let op_ns = Array.make lookups 0 in
  let pendings = Array.make lookups None in
  let delivered = ref 0 and rejected = ref 0 and hops = ref 0 in
  let on_done key (r : Async_route.t) =
    if Async_route.delivered r then begin
      incr delivered;
      hops := !hops + Route.hops r.Async_route.route;
      (* The key's responsible node among the nodes live right now. *)
      let expect = Ring.predecessor_of_id (Rings.ring (Maintenance.rings m) root) key in
      if Route.destination r.Async_route.route <> expect then incr rejected
    end
  in
  let pops = ref 0 and events = ref 0 and last = ref 0.0 in
  let t_drain = Tracer.now_ns () in
  let rec drain () =
    Tracer.enter s_pop;
    let next = Event_queue.pop q in
    Tracer.leave ();
    match next with
    | None -> ()
    | Some (time, payload) ->
        incr pops;
        last := time;
        (match payload with
        | Membership ev ->
            incr events;
            span s_apply (fun () -> Churn.apply driver ev)
        | Launch i ->
            let src = live_node () and dst = live_node () in
            let key = pop.Population.ids.(dst) in
            current := i;
            let t0 = Tracer.now_ns () in
            Tracer.enter ~op:i s_launch;
            pendings.(i) <- Some (Net.launch ~on_done:(on_done key) net ~now:time ~push ~src ~key);
            Tracer.leave ();
            op_ns.(i) <- op_ns.(i) + (Tracer.now_ns () - t0)
        | Rpc (i, ev) ->
            current := i;
            let t0 = Tracer.now_ns () in
            Tracer.enter ~op:i s_handle;
            Net.handle net ~now:time ~push ev;
            Tracer.leave ();
            op_ns.(i) <- op_ns.(i) + (Tracer.now_ns () - t0));
        drain ()
  in
  drain ();
  let drain_ns = Tracer.now_ns () - t_drain in
  Array.iter
    (function
      | Some p when Net.result p = None -> ignore (Net.abandon net p ~now:!last)
      | Some _ | None -> ())
    pendings;
  Array.iter record_op op_ns;
  ( drain_ns,
    !delivered,
    !rejected,
    [
      ("delivered", string_of_int !delivered);
      ("hops", string_of_int !hops);
      ("membership_events", string_of_int !events);
      ("joins", string_of_int (Churn.joins driver));
      ("leaves", string_of_int (Churn.leaves driver));
      ("pops", string_of_int !pops);
      ("pushes", string_of_int !pushes);
      ("max_depth", string_of_int !max_depth);
      ("horizon_ms", float_bits !last);
    ],
    (!pops, !pushes, !max_depth) )

let churn_live size ~seed ~record_op =
  let n, events, lookups = match size with Full -> (4096, 300, 4000) | Small -> (512, 60, 400) in
  let ts, pop = topology_population ~seed ~n in
  let attach = attach_of pop in
  let lat = warm_oracle ts attach in
  let config =
    {
      Churn.initial_nodes = n * 3 / 4;
      events;
      join_fraction = 0.5;
      probes_per_event = 0;
      mean_interarrival = 10.0;
    }
  in
  (* Lookups span the same simulated interval as the membership events. *)
  let lookup_spacing_ms = config.Churn.mean_interarrival *. Float.of_int events /. Float.of_int lookups in
  (* Each batch runs a fresh membership trajectory and lookup stream. *)
  fun batch ->
    let node_latency = node_latency lat attach in
    let phase chord =
      churn_phase ~chord ~rng:(batch_rng seed batch) ~pop ~config ~lookups ~lookup_spacing_ms
        ~node_latency ~record_op
    in
    let d1, ok1, rej1, sim1, (p1, u1, m1) = phase true in
    let d2, ok2, rej2, sim2, (p2, u2, m2) = phase false in
    let label prefix = List.map (fun (k, v) -> (prefix ^ k, v)) in
    {
      lookups = 2 * lookups;
      lookup_ns = d1 + d2;
      checked = ok1 + ok2;
      rejected = rej1 + rej2;
      sim_ok = ok1 + ok2;
      sim_total = 2 * lookups;
      sim = label "chord." sim1 @ label "crescendo." sim2;
      layer =
        [
          ("event_queue.pops", Float.of_int (p1 + p2));
          ("event_queue.pushes", Float.of_int (u1 + u2));
          ("event_queue.max_depth", Float.of_int (max m1 m2));
        ]
        @ oracle_layer lat;
    }

(* --- kv-faults ---------------------------------------------------------- *)

(* A net-mode replicated store (k = 3, sibling spread) over Crescendo
   with 10 % of nodes crashed and 1 % message loss. One closed-loop
   client writes every key, runs a read-heavy mix, then revives the
   crashed nodes and reads every key again (read-repair and GC). *)
let kv_faults size ~seed ~record_op =
  let n, keys, mix = match size with Full -> (4096, 400, 1200) | Small -> (512, 60, 180) in
  let ts, pop = topology_population ~seed ~n in
  let rings = span s_rings (fun () -> Rings.build pop) in
  let crescendo = span s_crescendo (fun () -> Crescendo.build rings) in
  let attach = attach_of pop in
  let lat = warm_oracle ts attach in
  let root = root_of pop in
  let key_ids =
    let r = rng seed 3 and seen = Hashtbl.create keys in
    Array.init keys (fun _ ->
        let rec fresh () =
          let k = Id.random r in
          if Hashtbl.mem seen k then fresh ()
          else begin
            Hashtbl.replace seen k ();
            k
          end
        in
        fresh ())
  in
  let m_lookups = Metrics.counter "net.lookups" and replicas = 3 in
  (* Each batch draws a fresh crash set, loss pattern and client. *)
  fun batch ->
    let rng = batch_rng seed batch in
    let node_latency = node_latency lat attach in
    let plan = Fault_plan.create ~loss:0.01 ~n () in
    Fault_plan.crash_random plan (rng 21) ~fraction:0.1 ();
    let net =
      span s_net_create (fun () ->
          Net.create ~plan ~rings ~rng:(rng 22) ~node_latency crescendo)
    in
    let store = Replicated_store.create ~net ~k:replicas ~spread:Replica_set.Sibling rings in
    let client = rng 23 in
    let rec live_node () =
      let v = Rng.int_below client n in
      if Replicated_store.live store v then v else live_node ()
    in
    (* The model: every key's acknowledged values, newest first, and how
       many replicas acknowledged the newest. *)
    let acked = Array.make keys [] and latest_acks = Array.make keys 0 in
    let version = Array.make keys 0 in
    let ops = ref 0 and served = ref 0 and checked = ref 0 and rejected = ref 0 in
    let stale = ref 0 in
    let put i =
      version.(i) <- version.(i) + 1;
      let value = Printf.sprintf "%d.%d" i version.(i) in
      let writer = live_node () in
      let acks =
        timed_op ~record_op s_put ~op:!ops (fun () ->
            Replicated_store.put store ~writer ~key:key_ids.(i) ~value ~storage_domain:root)
      in
      incr ops;
      if acks > 0 then begin
        acked.(i) <- value :: acked.(i);
        latest_acks.(i) <- acks;
        incr served
      end
    in
    let get i =
      let querier = live_node () in
      let got =
        timed_op ~record_op s_get ~op:!ops (fun () ->
            Replicated_store.get store ~querier ~key:key_ids.(i))
      in
      incr ops;
      match (got, acked.(i)) with
      | None, _ -> ()
      | Some v, latest :: older ->
          incr checked;
          if v = latest then incr served
          else if latest_acks.(i) < replicas && List.mem v older then
            (* [get] returns the freshest copy the querier can reach: when
               the newest write missed a replica and the querier reaches
               only that one, an older acknowledged value is the
               documented answer. It is served, but not correctly. *)
            incr stale
          else incr rejected
      | Some _, [] ->
          incr checked;
          incr rejected
    in
    let lookups0 = Metrics.value m_lookups in
    let t0 = Tracer.now_ns () in
    for i = 0 to keys - 1 do
      put i
    done;
    for _ = 1 to mix do
      let i = Rng.int_below client keys in
      if Rng.int_below client 10 = 0 then put i else get i
    done;
    Array.iter (Fault_plan.revive plan) (Fault_plan.crashed_nodes plan);
    Net.clear_suspicions net;
    for i = 0 to keys - 1 do
      get i
    done;
    let elapsed = Tracer.now_ns () - t0 in
    let lookups = Metrics.value m_lookups - lookups0 in
    let copies = Array.fold_left (fun acc k -> acc + Array.length (Replicated_store.copies store ~key:k)) 0 key_ids in
    {
      lookups;
      lookup_ns = elapsed;
      checked = !checked;
      rejected = !rejected;
      sim_ok = !served;
      sim_total = !ops;
      sim =
        [
          ("ops", string_of_int !ops);
          ("served", string_of_int !served);
          ("stale", string_of_int !stale);
          ("lookups", string_of_int lookups);
          ("copies", string_of_int copies);
        ];
      layer =
        ("store.lookups_per_op", Float.of_int lookups /. Float.of_int !ops)
        :: ("store.stale_returns", Float.of_int !stale)
        :: oracle_layer lat;
    }

let all =
  [
    { name = "build-prox"; setup = build_prox };
    { name = "route-greedy"; setup = route_greedy };
    { name = "churn-live"; setup = churn_live };
    { name = "kv-faults"; setup = kv_faults };
  ]
