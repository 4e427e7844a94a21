(** The arithmetic the benchmark reports with: percentiles and the rule
    for which percentile a sample supports, the failure tally, open-loop
    timing from the due time, and span self time.  Pure, so the tests in
    [test/] can pin it. *)

(** {1 Percentiles} *)

val percentile : float array -> float -> float
(** [percentile sorted p] is the nearest-rank [p]-percentile ([0 < p <= 1])
    of a non-empty array sorted ascending: the smallest sample with at
    least a [p] share of the samples at or below it. *)

val beyond : n:int -> float -> int
(** How many of [n] samples lie strictly beyond the nearest-rank
    [p]-percentile's rank: [n - ceil (p * n)]. *)

val min_beyond : int
(** A percentile is supported by a sample with at least this many
    samples (10) beyond it. *)

val median : float array -> float
(** Median of an unsorted, non-empty array (nearest rank at 0.5); the
    argument is not modified. *)

val central_p50 : float array -> float
(** The mean of the samples between the nearest-rank 45th and 55th
    percentiles (both included): a median that does not jump between
    two groups of samples when it falls in the gap between them, as it
    does when statements of different kinds alternate.  Raises
    [Invalid_argument] on an empty sample. *)

val windowed_p99 : float array -> float * int
(** Splits the sample, in the order it was taken, into [n / 1000]
    consecutive windows (the last one takes the remainder), 1000 being
    the smallest sample whose p99 has {!min_beyond} samples beyond it,
    and returns
    the median of the windows' nearest-rank p99s, with the number of
    windows.  Every window supports its p99; the median over windows
    keeps one burst of stalls from setting the whole run's tail.  Below
    2000 samples this is the plain p99 of the whole sample. *)

type summary = {
  n : int;
  p50 : float;  (** {!central_p50} *)
  p99 : float;  (** {!windowed_p99} *)
  windows : int;
  p99_beyond : int;  (** samples beyond the p99 in each window (at least) *)
}

val summarize : float array -> summary
(** Raises [Invalid_argument] on an empty sample. *)

val window_mean : times:float array -> width:float -> float array -> float
(** The mean over consecutive [width]-second windows, starting at the
    first of [times] (ascending, one per value), of each non-empty
    window's mean value: a per-time average that the rate at which
    values arrive does not weight. *)

(** {1 Failures} *)

type tally
(** Statements attempted and failed.  A statement that returns an error
    and one that returns wrong rows both fail, once each. *)

val tally : unit -> tally
val record : tally -> ok:bool -> unit
val record_failures : tally -> int -> unit
(** Adds failures found after the fact (a lost write found at recovery)
    without adding attempts: the statement that lost it was already
    counted when it ran. *)

val attempted : tally -> int
val failed : tally -> int
val failed_share : tally -> float
(** [failed / attempted], 0 when nothing was attempted. *)

val merge : tally -> tally -> tally

(** {1 Open loop} *)

val due : start:float -> rate:float -> int -> float
(** When statement [i] of a schedule at [rate] per second is due. *)

type open_loop = { latency : float array; late : float array }
(** Per statement: seconds from its due time to its completion, and
    seconds from its due time to when it was actually sent. *)

type stepper
(** An open-loop schedule in progress. *)

val stepper :
  now:(unit -> float) -> rate:float -> n:int -> (int -> unit) -> stepper
(** Statements [0 .. n-1] due at [due ~start ~rate i], where [start] is
    the reading of [now] at creation; the function sends one. *)

val next_due : stepper -> float option
(** When the next unsent statement is due; [None] once all are sent. *)

val step : stepper -> unit
(** Sends, in order, every statement already due.  A late statement is
    sent as soon as the one before it returns, so a stall shows in the
    latency of every statement queued behind it. *)

val finish : sleep_until:(float -> unit) -> stepper -> open_loop
(** Sends the remaining statements on schedule, waiting for each due
    time with [sleep_until], and returns every statement's timing.
    The clock and the wait are parameters so tests can drive a fake
    clock. *)

(** {1 Spans} *)

type span = { parent : int; start : float; stop : float }
(** [parent] indexes the enclosing span in the same array, [-1] for a
    root. *)

val self_times : span array -> float array
(** Per span, its duration minus the part of its interval that its
    direct children cover (overlapping children are counted once;
    children are clipped to the parent). *)
