(** Measured single-task executions on the simulator.

    Every duration used by the scheduler experiments comes from actually
    executing the binary (original, rewritten, or regenerated) on the
    simulated machine and reading its cycle counter. *)

(** Every runner takes the engine [config] its machine is created with
    (default {!Machine.default_config}). *)

type run = {
  cycles : int;
  exit_code : int;
  retired : int;
  vector_retired : int;
  indirect_retired : int;
}

val native :
  ?config:Machine.config ->
  ?fuel:int ->
  ?before_run:(Machine.t -> unit) ->
  ?after_run:(Machine.t -> unit) ->
  Binfile.t ->
  isa:Ext.t ->
  run
(** Run to completion. @raise Failure on fault or fuel exhaustion. *)

val native_until_fault :
  ?config:Machine.config -> ?fuel:int -> Binfile.t -> isa:Ext.t -> run
(** Run until the first fault (the FAM migration prefix); [exit_code] is -1.
    @raise Failure if the program completes without faulting. *)

(** [before_run] sees the machine after loading, before execution (the
    bench seeds persisted translation plans there); [after_run] sees it
    after a successful run (plans are exported there). The same hooks exist
    on {!native}, {!safer} and {!armore} so every measured engine cell can
    participate in the translation cache. *)
val chimera :
  ?config:Machine.config ->
  ?fuel:int ->
  ?before_run:(Machine.t -> unit) ->
  ?after_run:(Machine.t -> unit) ->
  Chbp.t ->
  isa:Ext.t ->
  run * Counters.t
val safer :
  ?config:Machine.config ->
  ?fuel:int ->
  ?before_run:(Machine.t -> unit) ->
  ?after_run:(Machine.t -> unit) ->
  Safer.t ->
  isa:Ext.t ->
  run * Counters.t

val armore :
  ?config:Machine.config ->
  ?fuel:int ->
  ?before_run:(Machine.t -> unit) ->
  ?after_run:(Machine.t -> unit) ->
  Armore.t ->
  isa:Ext.t ->
  run * Counters.t

val check_exit : expected:int -> run -> run
(** @raise Failure if the exit code differs (correctness oracle). *)
