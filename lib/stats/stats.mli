(** Descriptive statistics for experiment measurements. *)

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
(** A standard five-number-plus summary of a sample. *)

val mean : float array -> float
(** Arithmetic mean. Requires a non-empty array. *)

val mean_int : int array -> float

val variance : float array -> float
(** Population variance. Requires a non-empty array. *)

val stddev : float array -> float

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [0, 100]: nearest-rank percentile on a
    copy of [xs] (input is not modified). Requires a non-empty array. *)

val summarize : float array -> summary
(** Full summary of a non-empty sample. *)

val summarize_int : int array -> summary
