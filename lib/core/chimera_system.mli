(** Chimera: the end-to-end system façade (paper §3, Fig. 3).

    A {!deployment} takes one original binary and the capability sets of the
    machine's heterogeneous cores, and prepares one rewritten binary (with
    its fault-handling runtime) per distinct core class: downgrading where
    the binary uses extensions a class lacks, upgrading (optionally) where a
    class offers extensions the binary does not use, and leaving matching
    classes native. Tasks can then run on any core transparently.

    {[
      let bin = (* any binary, e.g. compiled with RVV *) in
      let dep = Chimera_system.deploy bin ~cores:[ Ext.rv64gc; Ext.rv64gcv ] in
      let stop, machine = Chimera_system.run dep ~isa:Ext.rv64gc ~fuel:1_000_000 in
      ...
    ]}
*)

type t

type prepared =
  | Native  (** the original binary runs as-is on this class *)
  | Rewritten of Chimera_rt.t  (** CHBP-rewritten, with runtime mechanisms *)

val deploy :
  ?costs:Costs.t -> ?config:Machine.config -> ?upgrade:bool -> Binfile.t -> cores:Ext.t list -> t
(** Prepare the binary for every core class. [config] is the engine every
    {!run} and {!Mmview.create} creates its hart with (default
    {!Machine.default_config}).
    [upgrade] (default true) vectorizes recognizable loops for classes with
    extensions the binary does not use. *)

val original : t -> Binfile.t
val costs : t -> Costs.t
val config : t -> Machine.config
val classes : t -> Ext.t list
val prepared_for : t -> Ext.t -> prepared
(** @raise Not_found if the class was not in [cores]. *)

val binary_for : t -> Ext.t -> Binfile.t

val run : t -> isa:Ext.t -> fuel:int -> Machine.stop * Machine.t
(** Load the class's binary into a fresh address space and execute it on a
    hart with the given capabilities, under the class's runtime handlers. *)

val counters : t -> Counters.t
(** Accumulated runtime-mechanism events across all classes. *)

val rewrite_stats : t -> (Ext.t * Chbp.stats) list
(** Static rewriting statistics per rewritten class. *)
