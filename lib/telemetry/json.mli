(** Minimal JSON values and printing.

    The repository deliberately has no third-party JSON dependency; this
    module implements exactly what the telemetry layer writes: JSONL
    span lines ({!Trace}) and the metrics object of [BENCH.json]. It
    is write-only — nothing in the repository reads JSON back. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact rendering, no newlines — one value is one JSONL line.
    Floats print via ["%.17g"] so a reader gets back the same float;
    non-finite floats render as [null] (JSON has no representation). *)
