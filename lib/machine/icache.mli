(** A direct-mapped instruction-cache model.

    The paper's residual CHBP overhead on real hardware is partly
    microarchitectural: trampolines split a hot region between the original
    text and a far target section, doubling its instruction-cache footprint.
    The simulator's default cost model charges nothing for that; enabling
    this model (the [icache] field of {!Machine.config}) makes it
    measurable. *)

type t

val default_geometry : int * int
(** [(sets, line bytes)] = 512 sets of one 64-byte line (32 KiB), roughly
    an in-order core's L1i. *)

val create : sets:int -> line:int -> t
(** [sets] and [line] must be powers of two. *)

val access : t -> int -> bool
(** [access t addr] is [true] on a hit; a miss fills the line. When tracing
    is enabled, a run of ≥ 8 consecutive misses is reported as one
    {!Obs.Icache_burst} event at the access that ends it. *)

val misses : t -> int
val accesses : t -> int
val flush : t -> unit
