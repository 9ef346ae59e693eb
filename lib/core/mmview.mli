(** The MMView process model (paper §4.3, Fig. 9).

    A Chimera process owns one address-space view ("MMView") per core class:
    each view maps that class's rewritten code, while all views alias the
    same physical data pages (and stack). Loading selects the view of the
    loading core; migrating a task to another class switches views.

    Two paper mechanisms are implemented:

    - {b shared data pages}: writes through any view are visible in all
      (verified by page aliasing, not copying);
    - {b migration probes}: target-instruction addresses are not
      semantically equivalent across views, so if a migration request
      arrives while the pc is inside the current view's target sections,
      the switch is deferred until execution reaches the exit (the paper
      plants a uprobe there; here the runtime steps to it);
    - the simulated vector state is carried across class boundaries: on an
      extension→base switch the architectural vector registers are written
      into the [.chimera.vregs] region, and read back on base→extension. *)

type t

val create : Chimera_system.t -> t
(** Build one view per deployed class, executed by one hart with the
    deployment's engine config and cost model. Data sections (and the
    stack) of the first view are aliased into the others. *)

val machine : t -> Machine.t
val current_class : t -> Ext.t

val start : t -> on:Ext.t -> unit
(** Select the class's view and initialize pc/sp/gp at the entry point. *)

val migrate : t -> to_:Ext.t -> int
(** Switch to another class's view (and hart capabilities), deferring while
    the pc sits in the current view's target instructions. Returns the
    number of instructions stepped while deferring. These steps retire
    outside {!Machine.run}, so no process-wide counter sees them.
    @raise Not_found if the class was not deployed. *)

val run : t -> fuel:int -> Machine.stop
(** Execute on the current view under its runtime handlers. *)

val migrations : t -> int
