(* One benchmark run: one workload at one seed, in this process.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
                   [--small] [--trace-out FILE]

   The workload is set up several times (the median is [setup_s]), then
   batches run until the next one would end past [S] seconds. With
   [--trace 0] every batch is untimed by spans and the end-to-end
   metrics are printed; with [--trace 1] batches alternate untraced and
   traced, the per-layer metrics are printed, and the spans are written
   to [--trace-out]. The last line of standard output is one JSON object
   (see [perfbench/run.py], which checks it against BENCHMARK.json). *)

module Metrics = Canon_telemetry.Metrics

let min_setups = 3

let max_setups = 25

let setup_budget_s = 1.0

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  let k = Array.length a in
  if k = 0 then nan else if k mod 2 = 1 then a.(k / 2) else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.0

(* The wall times of the current batch's client operations. *)
module Op_times = struct
  let data = ref (Array.make 4096 0)

  let count = ref 0

  let add x =
    if !count = Array.length !data then begin
      let bigger = Array.make (2 * !count) 0 in
      Array.blit !data 0 bigger 0 !count;
      data := bigger
    end;
    !data.(!count) <- x;
    incr count

  (* The batch's nearest-rank 50th and 99th percentiles, in us. *)
  let p50_p99 () =
    let a = Array.sub !data 0 !count in
    Array.sort compare a;
    let k = Array.length a in
    let at q =
      let rank = int_of_float (Float.ceil (q *. Float.of_int k)) in
      Float.of_int a.(max 0 (min (k - 1) (rank - 1))) /. 1000.0
    in
    (at 0.50, at 0.99)
end

(* What an untraced batch measured. *)
type timing = {
  run_s : float;
  lookups_per_s : float;
  op_us_p50 : float;
  op_us_p99 : float;
}

let peak_rss_mib () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
            Float.of_int kb /. 1024.0)
    | _ -> find ()
    | exception End_of_file -> nan
  in
  let v = find () in
  close_in ic;
  v

let counters_of (s : Metrics.snapshot) = s.Metrics.counters

let histogram_of (s : Metrics.snapshot) name =
  match List.assoc_opt name s.Metrics.histograms with
  | Some h -> (h.Metrics.h_count, h.Metrics.h_sum)
  | None -> (0, 0.0)

(* Counter deltas between two registry snapshots, by name. *)
let counter_diff before after =
  List.map
    (fun (name, v) ->
      (name, v - Option.value ~default:0 (List.assoc_opt name (counters_of before))))
    (counters_of after)

let json_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let json_obj fields = "{" ^ String.concat "," fields ^ "}"

let json_field k v = Printf.sprintf "%S:%s" k v

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0 and trace = ref (-1) in
  let size = ref Workloads.Full and trace_out = ref "" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed the inputs are generated from (>= 0)");
      ("--seconds", Arg.Set_float seconds, "S how long to run batches (> 0)");
      ("--trace", Arg.Set_int trace, "0|1 1 records spans and prints per-layer metrics");
      ("--small", Arg.Unit (fun () -> size := Workloads.Small), " tiny inputs (self-test)");
      ("--trace-out", Arg.Set_string trace_out, "FILE write the spans of a traced run");
    ]
  in
  let usage = "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let fail msg =
    prerr_endline ("perfbench: " ^ msg);
    exit 2
  in
  let w =
    match List.find_opt (fun w -> w.Workloads.name = !workload) Workloads.all with
    | Some w -> w
    | None ->
        fail
          (Printf.sprintf "--workload must be one of %s"
             (String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all)))
  in
  if !seed < 0 then fail "--seed must be given and >= 0";
  if not (!seconds > 0.0) then fail "--seconds must be given and > 0";
  if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
  let traced_run = !trace = 1 in
  (* Set-up, repeated at least [min_setups] times and until it has taken
     [setup_budget_s] (at most [max_setups] times); the last one's batch
     function is kept. *)
  Tracer.on := traced_run;
  let setup_times = ref [] in
  let batch = ref (fun _ -> assert false) in
  let setup_start = Tracer.now_ns () in
  while
    let reps = List.length !setup_times in
    reps < min_setups
    || (reps < max_setups
       && Float.of_int (Tracer.now_ns () - setup_start) *. 1e-9 < setup_budget_s)
  do
    batch := (fun _ -> assert false);
    Gc.full_major ();
    let t0 = Tracer.now_ns () in
    batch := w.Workloads.setup !size ~seed:!seed ~record_op:Op_times.add;
    setup_times := (Float.of_int (Tracer.now_ns () - t0) *. 1e-9) :: !setup_times
  done;
  let setups = List.length !setup_times in
  let setup_names = Array.length !Tracer.names in
  let setup_self = Array.init setup_names (fun nm -> Tracer.self_s nm /. Float.of_int setups) in
  Tracer.reset_totals ();
  Tracer.on := false;
  let setup_spans = Tracer.spans_recorded () in
  let batch = !batch in
  (* Measured batches. A traced run alternates untraced and traced
     batches, so the tracing overhead is measured in the same process. *)
  Metrics.reset ();
  let s_batch = Tracer.name "bench.batch" in
  let untraced = ref [] and traced = ref [] in
  let first = ref None and reg = ref [] and gc = ref (0.0, 0.0, 0) and join_msgs = ref (0, 0.0) in
  let first_traced_calls = ref [||] and first_traced_spans = ref 0 in
  let checked = ref 0 and rejected = ref 0 in
  let start = Tracer.now_ns () in
  let elapsed () = Float.of_int (Tracer.now_ns () - start) *. 1e-9 in
  let count = ref 0 in
  let continue () =
    let min_batches = if traced_run then 2 else 1 in
    !count < min_batches
    || elapsed () +. (elapsed () /. Float.of_int !count) <= !seconds
  in
  while continue () do
    let tracing = traced_run && !count mod 2 = 1 in
    Tracer.on := tracing;
    (* Every batch starts from a collected heap, so no batch pays for
       the garbage of the one before it. *)
    Gc.full_major ();
    let before = if !count = 0 then Some (Metrics.snapshot (), Gc.quick_stat ()) else None in
    Op_times.count := 0;
    let t0 = Tracer.now_ns () in
    Tracer.enter s_batch;
    let b = batch !count in
    Tracer.leave ();
    let dt = Float.of_int (Tracer.now_ns () - t0) *. 1e-9 in
    Tracer.on := false;
    (match before with
    | Some (snap, g) ->
        let snap' = Metrics.snapshot () and g' = Gc.quick_stat () in
        reg := counter_diff snap snap';
        gc :=
          ( g'.Gc.minor_words -. g.Gc.minor_words,
            g'.Gc.major_words -. g.Gc.major_words,
            g'.Gc.major_collections - g.Gc.major_collections );
        let c0, s0 = histogram_of snap "sim.join_messages"
        and c1, s1 = histogram_of snap' "sim.join_messages" in
        join_msgs := (c1 - c0, s1 -. s0);
        first := Some b
    | None -> ());
    if tracing && !count = 1 then begin
      first_traced_calls := Array.init (Array.length !Tracer.names) Tracer.call_count;
      first_traced_spans := Tracer.spans_recorded () - setup_spans
    end;
    if tracing then traced := dt :: !traced
    else begin
      let op_us_p50, op_us_p99 = Op_times.p50_p99 () in
      let lookups_per_s =
        Float.of_int b.Workloads.lookups /. (Float.of_int b.Workloads.lookup_ns *. 1e-9)
      in
      untraced := { run_s = dt; lookups_per_s; op_us_p50; op_us_p99 } :: !untraced
    end;
    checked := !checked + b.Workloads.checked;
    rejected := !rejected + b.Workloads.rejected;
    incr count
  done;
  let b0 = Option.get !first in
  (* The machine is shared and its memory system slows down in bursts,
     batch to batch, by up to 1.7x: every timing is a median over the
     run's batches. *)
  let untraced = Array.of_list !untraced and traced = Array.of_list !traced in
  let batch_median f = median (Array.map f untraced) in
  let run_s = batch_median (fun t -> t.run_s) in
  let reg_value name = Float.of_int (Option.value ~default:0 (List.assoc_opt name !reg)) in
  let metrics =
    if not traced_run then
      [
        ("setup_s", median (Array.of_list !setup_times), "s");
        ("run_s", run_s, "s");
        ("peak_rss_mib", peak_rss_mib (), "MiB");
        ("lookups_per_s", batch_median (fun t -> t.lookups_per_s), "1/s");
        ("op_us_p50", batch_median (fun t -> t.op_us_p50), "us");
        ("op_us_p99", batch_median (fun t -> t.op_us_p99), "us");
        ( "sim_ok_frac",
          Float.of_int b0.Workloads.sim_ok /. Float.of_int b0.Workloads.sim_total,
          "fraction" );
      ]
    else begin
      let n_traced = Float.of_int (Array.length traced) in
      (* A layer's self time per set-up plus per traced batch: each layer
         appears in one of the two phases of a workload. *)
      let layer_s name =
        let nm = Tracer.name name in
        (if nm < setup_names then setup_self.(nm) else 0.0) +. (Tracer.self_s nm /. n_traced)
      in
      (* Calls in the first traced batch: batches may differ, that one
         is fixed by the seed. *)
      let per_batch name =
        let nm = Tracer.name name in
        if nm < Array.length !first_traced_calls then Float.of_int !first_traced_calls.(nm)
        else 0.0
      in
      let layer name = Option.value ~default:0.0 (List.assoc_opt name b0.Workloads.layer) in
      let ratio a b = if b = 0.0 then 0.0 else a /. b in
      let queries = per_batch "latency.query" in
      let minor, major, collections = !gc in
      let join_count, join_sum = !join_msgs in
      let secs names = List.map (fun (m, span) -> (m, layer_s span, "s")) names in
      let counts names = List.map (fun (m, v) -> (m, v, "count")) names in
      secs
        [
          ("topology.setup_s", "topology.generate");
          ("population.create_s", "population.create");
          ("rings.build_s", "rings.build");
          ("chord.build_s", "chord.build");
          ("crescendo.build_s", "crescendo.build");
          ("prox_chord.build_s", "prox_chord.build");
          ("prox_crescendo.build_s", "prox_crescendo.build");
          ("router.route_s", "router.route");
          ("prox.route_s", "prox.route");
          ("churn.prepare_s", "churn.prepare");
          ("churn.apply_s", "churn.apply");
          ("event_queue.pop_s", "event_queue.pop");
          ("net.create_s", "net.create");
          ("net.launch_s", "net.launch");
          ("net.handle_s", "net.handle");
          ("store.put_s", "store.put");
          ("store.get_s", "store.get");
          ("latency.query_s", "latency.query");
          ("bench.self_s", "bench.batch");
        ]
      @ [
          (let nm = Tracer.name "latency.query" in
           ( "latency.query_ns",
             ratio (Tracer.self_s nm *. 1e9) (Float.of_int (Tracer.call_count nm)),
             "ns" ));
        ]
      @ counts
          [
            ("latency.queries", queries);
            ("latency.rows_computed", layer "latency.rows_computed");
            ("latency.rows_resident", layer "latency.rows_resident");
          ]
      @ [ ("latency.hit_ratio", layer "latency.hit_ratio", "fraction") ]
      @ List.map
          (fun o -> (o ^ ".links_per_node", layer (o ^ ".links_per_node"), "links"))
          [ "chord"; "crescendo"; "prox_chord"; "prox_crescendo" ]
      @ [ ("router.hops_mean", layer "router.hops_mean", "hops") ]
      @ counts
          [
            ("churn.events", per_batch "churn.apply");
            ("event_queue.pops", layer "event_queue.pops");
            ("event_queue.pushes", layer "event_queue.pushes");
            ("event_queue.max_depth", layer "event_queue.max_depth");
          ]
      @ [
          ( "sim.join_messages_mean",
            ratio join_sum (Float.of_int join_count),
            "messages" );
        ]
      @ counts
          [
            ("net.events", per_batch "net.handle");
            ("net.lookups", reg_value "net.lookups");
            ("net.messages", reg_value "net.messages");
            ("net.retries", reg_value "net.retries");
            ("net.timeouts", reg_value "net.timeouts");
            ("net.losses", reg_value "net.losses");
            ("net.rerouted", reg_value "net.rerouted");
            ("net.reanchors", reg_value "net.reanchors");
          ]
      @ [
          ( "net.delivered_ratio",
            ratio (reg_value "net.delivered") (reg_value "net.lookups"),
            "fraction" );
          ( "net.messages_per_lookup",
            ratio (reg_value "net.messages") (reg_value "net.lookups"),
            "messages" );
          ("store.lookups_per_op", layer "store.lookups_per_op", "lookups");
          ("store.stale_returns", layer "store.stale_returns", "count");
        ]
      @ counts
          [
            ("replication.write_acks", reg_value "replication.write_acks");
            ("replication.read_repairs", reg_value "replication.read_repairs");
            ("replication.stale_reads", reg_value "replication.stale_reads");
            ("replication.read_failures", reg_value "replication.read_failures");
            ("replication.gc_copies", reg_value "replication.gc_copies");
          ]
      @ [
          ("gc.minor_words", minor, "words");
          ("gc.major_words", major, "words");
          ("gc.major_collections", Float.of_int collections, "count");
          ( "gc.top_heap_mib",
            Float.of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
            /. 1048576.0,
            "MiB" );
          ("trace.overhead_ratio", median traced /. run_s, "ratio");
          ("trace.spans", Float.of_int !first_traced_spans, "count");
        ]
    end
  in
  if traced_run && !trace_out <> "" then Tracer.write !trace_out;
  let sim =
    b0.Workloads.sim
    @ List.map (fun (k, v) -> ("registry." ^ k, string_of_int v)) !reg
    @ [
        ("sim_ok", string_of_int b0.Workloads.sim_ok);
        ("sim_total", string_of_int b0.Workloads.sim_total);
      ]
  in
  let failed = !rejected in
  print_endline
    (json_obj
       [
         json_field "workload" (Printf.sprintf "%S" w.Workloads.name);
         json_field "seed" (string_of_int !seed);
         json_field "correct" (if failed = 0 then "true" else "false");
         json_field "attempted" (string_of_int !checked);
         json_field "failed" (string_of_int failed);
         json_field "batches" (string_of_int !count);
         json_field "metrics"
           (json_obj
              (List.map
                 (fun (name, v, unit) ->
                   json_field name
                     (json_obj
                        [ json_field "value" (json_float v); json_field "unit" (Printf.sprintf "%S" unit) ]))
                 metrics));
         json_field "sim"
           (json_obj (List.map (fun (k, v) -> json_field k (Printf.sprintf "%S" v)) sim));
       ])
