(* In-memory spans around calls into the library's layers, recorded from
   the benchmark's own code.

   A span has a name, a start, an end, the span open around it (its
   parent) and the operation (lookup, put, get) it belongs to. Spans are
   kept in flat int arrays and written out as JSONL when the run ends.
   A name's self time is its spans' durations minus the part covered by
   their children, accumulated as each span closes.

   Very hot calls (the latency oracle, queried millions of times per
   overlay build) are {!account}ed instead: their time and call count
   are charged to the name and subtracted from the enclosing span's self
   time, but no span record is kept for each call.

   When tracing is off, {!enter}, {!leave} and {!account} only test a
   flag. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let on = ref false

(* Span names, interned. *)
let names : string array ref = ref [||]

let name s =
  let rec find i =
    if i = Array.length !names then begin
      names := Array.append !names [| s |];
      i
    end
    else if String.equal !names.(i) s then i
    else find (i + 1)
  in
  find 0

let name_of i = !names.(i)

(* Per-name aggregates since the last [reset_totals]. *)
let self_ns = ref (Array.make 64 0)

let calls = ref (Array.make 64 0)

let grow a n = if n >= Array.length !a then a := Array.append !a (Array.make (n + 64) 0)

let charge nm ~self =
  grow self_ns nm;
  grow calls nm;
  !self_ns.(nm) <- !self_ns.(nm) + self;
  !calls.(nm) <- !calls.(nm) + 1

let reset_totals () =
  Array.fill !self_ns 0 (Array.length !self_ns) 0;
  Array.fill !calls 0 (Array.length !calls) 0

let self_s nm = if nm < Array.length !self_ns then Float.of_int !self_ns.(nm) *. 1e-9 else 0.0

let call_count nm = if nm < Array.length !calls then !calls.(nm) else 0

(* Open spans. *)
let max_depth = 64

let st_id = Array.make max_depth 0

let st_name = Array.make max_depth 0

let st_op = Array.make max_depth 0

let st_start = Array.make max_depth 0

let st_child = Array.make max_depth 0

let depth = ref 0

(* Closed spans kept for the trace file: id, parent, name, op, start,
   duration — six ints each. Beyond [retain_cap] spans only the
   aggregates grow. *)
let retain_cap = 200_000

let fields = 6

let kept = ref (Array.make (fields * 4096) 0)

let kept_count = ref 0

let dropped = ref 0

let next_id = ref 0

let enter ?(op = -1) nm =
  if !on then begin
    let d = !depth in
    if d = max_depth then failwith "Tracer.enter: spans nested too deeply";
    incr next_id;
    st_id.(d) <- !next_id;
    st_name.(d) <- nm;
    st_op.(d) <- (if op >= 0 || d = 0 then op else st_op.(d - 1));
    st_child.(d) <- 0;
    depth := d + 1;
    st_start.(d) <- now_ns ()
  end

let keep ~id ~parent ~nm ~op ~start ~dur =
  if !kept_count >= retain_cap then incr dropped
  else begin
    let base = fields * !kept_count in
    if base + fields > Array.length !kept then begin
      let bigger = Array.make (2 * Array.length !kept) 0 in
      Array.blit !kept 0 bigger 0 base;
      kept := bigger
    end;
    let a = !kept in
    a.(base) <- id;
    a.(base + 1) <- parent;
    a.(base + 2) <- nm;
    a.(base + 3) <- op;
    a.(base + 4) <- start;
    a.(base + 5) <- dur;
    incr kept_count
  end

let leave () =
  if !on then begin
    let stop = now_ns () in
    let d = !depth - 1 in
    if d < 0 then failwith "Tracer.leave: no open span";
    depth := d;
    let dur = stop - st_start.(d) in
    charge st_name.(d) ~self:(dur - st_child.(d));
    if d > 0 then st_child.(d - 1) <- st_child.(d - 1) + dur;
    keep ~id:st_id.(d)
      ~parent:(if d > 0 then st_id.(d - 1) else 0)
      ~nm:st_name.(d) ~op:st_op.(d) ~start:st_start.(d) ~dur
  end

let account nm dur =
  charge nm ~self:dur;
  let d = !depth - 1 in
  if d >= 0 then st_child.(d) <- st_child.(d) + dur

let spans_recorded () = !kept_count + !dropped

let write path =
  let oc = open_out path in
  for i = 0 to !kept_count - 1 do
    let a = !kept and b = fields * i in
    Printf.fprintf oc
      "{\"id\":%d,\"parent\":%d,\"name\":%S,\"op\":%d,\"start_ns\":%d,\"dur_ns\":%d}\n"
      a.(b) a.(b + 1) (name_of a.(b + 2)) a.(b + 3) a.(b + 4) a.(b + 5)
  done;
  if !dropped > 0 then
    Printf.fprintf oc "{\"dropped_spans\":%d}\n" !dropped;
  close_out oc
