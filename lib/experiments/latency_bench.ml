open Canon_topology
module Rng = Canon_rng.Rng
module Table = Canon_stats.Table

(* Scale the transit-stub generator to approximately [routers] routers
   by widening the stub domains; the transit skeleton (10 x 4 transit
   nodes, 5 stub domains each = 200 stub domains by default) is kept, so
   the latency-class structure stays the paper's. *)
let scaled_params ~routers =
  let p = Transit_stub.default_params in
  let transit = p.Transit_stub.transit_domains * p.Transit_stub.transit_nodes_per_domain in
  let domains = transit * p.Transit_stub.stub_domains_per_transit_node in
  let per_domain = max 1 ((routers - transit + domains - 1) / domains) in
  { p with Transit_stub.stub_routers_per_domain = per_domain }

let time f =
  let t0 = Sys.time () in
  let x = f () in
  (x, Sys.time () -. t0)

let mib_of_rows ~rows ~routers = Float.of_int rows *. Float.of_int routers *. 8.0 /. 1048576.0

(* Eager setup is only measured where it is affordable; past the cutoff
   it is skipped and estimated as routers x the mean per-row Dijkstra
   time observed on the lazy oracle's actual rows. The cutoff sits just
   above the 4096-target instance (4240 routers with the default
   transit skeleton) so the smallest paper-scale row is measured. *)
let eager_cutoff = 4500

let sizes = function
  | `Paper -> [ 4096; 16384; 65536 ]
  | `Quick -> [ 1024; 4096 ]

let lookups = 1000

let run ~scale ~seed =
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Latency oracle: eager all-pairs vs lazy memoized setup (%d random lookups, \
            eager measured up to %d routers)"
           lookups eager_cutoff)
      ~columns:
        [
          "routers";
          "eager create s";
          "lazy create s";
          "lookups s";
          "rows";
          "eager MiB";
          "lazy MiB";
        ]
  in
  List.iter
    (fun routers ->
      let rng = Rng.create (seed + routers) in
      let ts = Transit_stub.generate rng (scaled_params ~routers) in
      let n = Transit_stub.num_routers ts in
      let stubs = Transit_stub.stub_routers ts in
      let lat, create_s = time (fun () -> Latency.create ts) in
      let (), lookups_s =
        time (fun () ->
            for _ = 1 to lookups do
              let a = Rng.pick rng stubs and b = Rng.pick rng stubs in
              ignore (Latency.node_latency lat a b)
            done)
      in
      let st = Latency.stats lat in
      let eager_cell =
        if n <= eager_cutoff then
          (* The eager all-pairs table: a fresh oracle warmed on every source. *)
          let _, eager_s =
            time (fun () ->
                let warm = Latency.create ts in
                for r = 0 to n - 1 do
                  ignore (Latency.router_latency warm r r)
                done)
          in
          Printf.sprintf "%.3f" eager_s
        else
          let per_row = lookups_s /. Float.of_int (max 1 st.Latency.rows_computed) in
          Printf.sprintf "~%.1f (est)" (per_row *. Float.of_int n)
      in
      Table.add_row table
        [
          string_of_int n;
          eager_cell;
          Printf.sprintf "%.6f" create_s;
          Printf.sprintf "%.3f" lookups_s;
          string_of_int st.Latency.rows_computed;
          Printf.sprintf "%.1f" (mib_of_rows ~rows:n ~routers:n);
          Printf.sprintf "%.1f" (mib_of_rows ~rows:st.Latency.rows_resident ~routers:n);
        ])
    (sizes scale);
  table
