(** Host-speed reference: a fixed allocating kernel timed between the
    workload's operations. A host time multiplied by {!scale} is the time
    the same work would take at the kernel's nominal speed, which removes
    the drift of the host's speed between runs. *)

val nominal_s : float
(** The kernel's median time on the reference host. *)

type t

val create : unit -> t

val tick : t -> unit
(** Time one run of the kernel. *)

val ticks : t -> int -> unit

val median : t -> float
(** Median kernel time so far.
    @raise Invalid_argument before the first {!tick}. *)

val scale : t -> float
(** [nominal_s / median t]. *)
