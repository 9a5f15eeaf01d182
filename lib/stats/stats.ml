type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

let require_non_empty name xs =
  if Array.length xs = 0 then invalid_arg (name ^ ": empty sample")

let mean xs =
  require_non_empty "Stats.mean" xs;
  Array.fold_left ( +. ) 0.0 xs /. Float.of_int (Array.length xs)

let mean_int xs = mean (Array.map Float.of_int xs)

let variance xs =
  require_non_empty "Stats.variance" xs;
  let m = mean xs in
  let acc = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs in
  acc /. Float.of_int (Array.length xs)

let stddev xs = sqrt (variance xs)

(* The one nearest-rank (ceil) index rule, shared by [percentile] and
   [summarize] so their readouts can never disagree. *)
let ceil_rank_index ~n p =
  let rank = int_of_float (ceil (p /. 100.0 *. Float.of_int n)) in
  if rank <= 0 then 0 else min (n - 1) (rank - 1)

let percentile xs p =
  require_non_empty "Stats.percentile" xs;
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p outside [0,100]";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  sorted.(ceil_rank_index ~n:(Array.length sorted) p)

let summarize xs =
  require_non_empty "Stats.summarize" xs;
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  let pick p = sorted.(ceil_rank_index ~n p) in
  {
    count = n;
    mean = mean xs;
    stddev = stddev xs;
    min = sorted.(0);
    max = sorted.(n - 1);
    p50 = pick 50.0;
    p90 = pick 90.0;
    p99 = pick 99.0;
  }

let summarize_int xs = summarize (Array.map Float.of_int xs)
