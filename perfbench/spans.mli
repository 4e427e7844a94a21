(** The traced run's span recorder: one root span per statement, child
    spans around the benchmark's own calls into each layer.

    Spans are kept in memory.  When a statement's root closes, each span's
    duration and self time (its duration minus what its children cover,
    {!Stats.self_times}) are folded into per-name totals; the raw spans
    of the first [keep] statements are retained for {!write}.  A recorder
    belongs to one domain. *)

val now : unit -> float
(** The monotonic clock, in seconds, that spans and the benchmark's
    latencies are read from (nanosecond resolution). *)

type t

val create : keep:int -> unit -> t

val stmt : t -> string -> (unit -> 'a) -> 'a
(** Runs the thunk under a new root span. *)

val span : t -> string -> (unit -> 'a) -> 'a
(** Runs the thunk under a child of the innermost open span. *)

val statements : t -> int
(** Root spans closed so far. *)

val durations : t -> string -> float array
(** Every closed span of that name, in seconds, oldest first. *)

val self_total : t -> string -> float
(** Summed self time of the spans of that name, in seconds. *)

val write : t -> out_channel -> unit
(** The retained spans as tab-separated lines [stmt id parent name
    start_us end_us], times relative to the recorder's creation. *)
