(** Bounded in-memory span collector with sampling and an optional
    JSONL file.

    A trace sits between the instrumented code and the outside world:
    the router hooks call {!record} with the raw material of a span
    (visited nodes, per-edge level and latency functions); the trace
    applies sampling, assigns sequence numbers, keeps the most recent
    4096 spans in memory for in-process inspection, and writes every
    sampled span as one line ({!Span.to_jsonl}) to its file, if it was
    created with one.

    The {e ambient} trace is an optional process-wide current trace.
    Experiment code that is many layers away from the CLI (e.g. the
    shared lookup helpers in [canon_experiments.Common]) reads it once
    per measurement loop and passes it down as the router's [?trace]
    argument; when unset — the default, and the benchmark configuration
    — instrumented code paths take their untraced branch and allocate
    nothing. *)

type t

val create :
  ?sample_every:int ->
  ?latency:(int -> int -> float) ->
  ?file:string ->
  unit ->
  t
(** [sample_every] (default 1 = every lookup) keeps the 1st, (k+1)-th,
    (2k+1)-th … recorded span. [latency] is the default per-edge
    physical latency oracle for spans recorded without an explicit one.
    [file], when given, is opened (truncated) now and receives one JSONL
    line per sampled span until {!flush}. Raises [Invalid_argument] when
    [sample_every < 1] and [Sys_error] when [file] cannot be created. *)

val record :
  t ->
  kind:string ->
  key:int ->
  outcome:Span.outcome ->
  nodes:int array ->
  level:(int -> int -> int) ->
  ?latency:(int -> int -> float) ->
  unit ->
  unit
(** Counts one lookup; when sampling selects it, builds the span,
    retains it, and writes it to the file if one is open. [?latency]
    overrides the trace-level oracle for this span. *)

val set_latency : t -> (int -> int -> float) option -> unit
(** Installs (or clears) the default latency oracle after creation.
    Experiments that build their latency model long after the CLI
    created the trace use this to upgrade subsequent spans from
    hop-only to physical-latency records. *)

val seen : t -> int
(** Total lookups offered via {!record}. *)

val emitted : t -> int
(** Spans that passed sampling (= span ids assigned; = lines written
    while the file is open). *)

val spans : t -> Span.t list
(** Retained spans, oldest first — at most 4096, the most recent ones. *)

val flush : t -> unit
(** Closes the file, flushing it to disk; idempotent. Later spans are
    still counted and retained, but no longer written. *)

val set_ambient : t option -> unit

val ambient : unit -> t option
