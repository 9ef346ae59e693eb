(** The heterogeneous computing workload of paper §6.1 (Figs. 11–12).

    1000 mixed tasks: extension tasks (matrix multiplication, RVV-
    accelerable) and base tasks (Fibonacci, not accelerable), with a varying
    extension-task share. Compiled in two versions — the extension version
    (RVV matmul; evaluates downgrading) and the base version (scalar
    matmul in upgradeable shape; evaluates upgrading) — and executed under
    four systems: FAM, Safer, MELF and Chimera.

    Task durations are cycles measured by running each (program, system,
    core-class) combination once on the simulator; every combination's exit
    code is checked against the native run (correctness oracle). *)

type system = Fam | Safer_sys | Melf_sys | Chimera_sys
type version = Vext | Vbase

val systems : system list
val system_name : system -> string
val version_name : version -> string

type cost_table

val costs :
  ?config:Machine.config ->
  ?mm_n:int ->
  ?fib_rounds:int ->
  ?run_all:((unit -> unit) list -> unit) ->
  unit ->
  cost_table
(** Build and measure all combinations. [mm_n] is the matmul dimension
    (default 16), [fib_rounds] sizes the base task to roughly match the
    paper's 2:2:2:1 timing ratio. [run_all] executes a batch of independent
    measurement thunks (default: sequentially, in order); the bench driver
    passes a domain-pool runner. Each thunk builds its own machine, so the
    batches are safe to fan out. Every run uses the engine [config]. *)

val task_ratio : cost_table -> float
(** Measured (extension task on extension core) / (base task) time ratio —
    should be near 0.5 per the paper's setup. *)

val tasks : cost_table -> system -> version -> share_pct:int -> n_tasks:int -> Sched.task list
(** [share_pct]% extension tasks out of [n_tasks], evenly interleaved. *)

val pp_costs : Format.formatter -> cost_table -> unit
