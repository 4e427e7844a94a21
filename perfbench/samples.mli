(** A growable buffer of float samples kept outside the OCaml heap, in
    fixed-size Bigarray chunks, so that recording one sample per
    statement neither grows the heap the benchmark reports as
    [peak_heap_mb] nor copies on growth. *)

type t

val create : unit -> t
val push : t -> float -> unit

val to_array : t -> float array
(** A heap copy of the samples, oldest first. *)
