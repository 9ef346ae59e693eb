(** The simulated RV64 hart: fetch/decode/execute with deterministic faults.

    A [Machine.t] is one task's execution context: integer and vector
    register files, program counter, a reference to the memory (address-space
    view) it executes in, and cycle counters. Hart heterogeneity is the
    [isa] capability set: executing an instruction outside it raises an
    illegal-instruction fault, exactly the behaviour FAM scheduling and lazy
    rewriting rely on.

    Control events (faults, [ebreak] traps, syscalls, the Safer check
    instruction) are delivered to caller-supplied {!handlers}; the runtime
    library installs policy-specific ones.

    {b Fault determinism contract.} Given the same memory and register
    state, executing at a pc either retires the same instruction or raises
    the same {!Fault.t} at the same pc — no timing, caching or engine mode
    may change the outcome. Both execution engines honour this: the
    single-step path and the translation-block path are differentially
    tested for bit-identical stop states (test/test_properties.ml), and
    SMILE recovery depends on it (the fault a partially-executed trampoline
    raises is the key into the fault-handling table). The contract holds
    with every fast path on or off: the software TLB ({!Memory}) and direct
    block chaining are caches of successful checks, never of outcomes a
    permission or code change could have altered. Faults are observable as
    [Fault_raised] events, and the block engine emits
    [Tb_compile]/[Tb_hit]/[Tb_invalidate]/[Tb_chain]; see lib/obs and
    OBSERVABILITY.md. *)

type t

type stop =
  | Exited of int  (** The program issued the exit syscall. *)
  | Faulted of Fault.t  (** An unhandled deterministic fault. *)
  | Fuel_exhausted  (** The [fuel] instruction budget ran out. *)

type action =
  | Resume of int  (** Continue executing at the given pc. *)
  | Stop of stop

type handlers = {
  on_fault : t -> Fault.t -> action;
  on_ebreak : t -> pc:int -> size:int -> action;
      (** [ebreak]/[c.ebreak] executed; [size] distinguishes the two. *)
  on_ecall : t -> pc:int -> action;
      (** Syscall other than exit (exit is handled internally: a7 = 93). *)
  on_check : t -> pc:int -> rd:Reg.t -> target:int -> action;
      (** The custom-0 checked indirect jump was executed with the given
          untranslated [target]; the handler performs the translation. *)
}

val default_handlers : handlers
(** Halts on every event (faults become [Faulted], etc.). *)

val create : ?vlen:int -> ?costs:Costs.t -> mem:Memory.t -> isa:Ext.t -> unit -> t
(** [vlen] is the vector register width in bytes (default 32 = 256 bits). *)

(** {1 State access} *)

val mem : t -> Memory.t
val isa : t -> Ext.t
val set_isa : t -> Ext.t -> unit
val costs : t -> Costs.t
val vlen : t -> int

val pc : t -> int
val set_pc : t -> int -> unit

val get_reg : t -> Reg.t -> int64
val set_reg : t -> Reg.t -> int64 -> unit
val get_vreg : t -> Reg.v -> bytes
(** A copy of the 256-bit register contents. *)

val set_vreg : t -> Reg.v -> bytes -> unit
val vl : t -> int
val vsew : t -> Inst.sew

val set_vstate : t -> vl:int -> vsew:Inst.sew -> unit
(** Restore the vector CSR state (used when migrating a task between
    harts/views). *)

val switch_view : t -> Memory.t -> unit
(** Point the hart at a different address-space view (MMView switch). The
    decode and translation-block caches are per-view and switch with it.
    The machine keeps a small LRU of views: a view evicted from it only
    loses its caches (rebuilt on demand), never architectural state. *)

val invalidate_code : t -> addr:int -> len:int -> unit
(** Invalidate cached decodes and translation blocks overlapping a patched
    code range, in every view seen so far (physical pages may be shared
    between views). O(pages patched): bumps page-granular generation
    counters; stale entries fail their stamp check on next use. *)

(** {1 Counters}

    This machine's own counts (retired, cycles, icache misses). The
    engine's other counts — dispatches, chain hits, side exits,
    inline-cache and tiering events, translations, IR pass statistics, TLB
    hits and misses — are kept in per-machine mutables and added to the
    [lib/metrics] registry once per {!run} (see {!section-process}). *)

val enable_icache : ?sets:int -> ?line:int -> t -> unit
(** Attach an {!Icache} model: every fetch checks it and misses charge
    {!Costs.t.icache_miss} cycles. Off by default — the headline numbers in
    EXPERIMENTS.md are produced without it; the ablation harness turns it on
    to show the microarchitectural side of trampoline overhead. *)

val icache_misses : t -> int
(** Misses so far (0 when the model is off). *)

val retired : t -> int
(** Instructions retired. *)

val vector_retired : t -> int

val indirect_retired : t -> int
(** Register-indirect jumps/calls/returns retired — the flows prior binary
    rewriters must check or rebound on every execution. *)

val cycles : t -> int
(** Retired-instruction cycles plus charged penalties. *)

val charge : t -> int -> unit
(** Add penalty cycles (used by runtime handlers for traps, checks, ...). *)

(** {1 Execution} *)

val run : ?handlers:handlers -> fuel:int -> t -> stop
(** Execute until a stop event, at most [fuel] instructions.

    By default this uses the translation-block engine: straight-line runs
    are decoded once into arrays of closures ({!Tblock}) and executed
    whole between handler-visible events. Counters, faults and handler
    interactions are observably identical to the single-step path (the
    differential property tests assert this). *)

val step : ?handlers:handlers -> t -> stop option
(** Execute one instruction; [None] means it retired normally. Always uses
    the single-step path. *)

val set_block_engine : t -> bool -> unit
(** Enable/disable the translation-block fast path in {!run} (on by
    default). The single-step engine is the reference semantics; disabling
    is meant for differential testing and debugging. *)

val block_engine : t -> bool

val set_block_engine_default : bool -> unit
(** Engine used by machines created after this call (the bench harness's
    [--engine] flag sets it before building workloads). *)

val set_block_chaining : t -> bool -> unit
(** Enable/disable direct block chaining inside the block engine (on by
    default). When on, a block that completes normally records its
    successor in a link slot; later transfers along the same edge skip the
    block-table probe. Links are guarded by entry-pc and code-epoch checks,
    so chained execution is observably identical to unchained (differential
    tests assert bit-identical stop states). *)

val block_chaining : t -> bool

val set_superblocks : t -> bool -> unit
(** Enable/disable superblock formation (on by default): inlined direct
    jumps and conditional branches with guarded side exits, and cross-page
    blocks. When off, translation falls back to straight-line blocks that
    end at the first control-flow instruction — the intermediate engine the
    differential tests compare against. Only affects blocks translated
    after the call (cached blocks keep the shape they were compiled with),
    so flip it before running. *)

val superblocks : t -> bool

val set_superblocks_default : bool -> unit
(** Superblock setting for machines created after this call (the bench
    harness's [--engine] flag sets it before building workloads). *)

val set_ir : t -> bool -> unit
(** Enable/disable the IR optimization passes (on by default). Straight-line
    instructions are always lowered to {!Tir} and emitted through the same
    code generator; when on, top-tier runs are first optimized
    block-locally (constant propagation into folded ops, dead-write
    elimination, memory-pattern fusion) and emitted as multi-instruction
    execution units. When off, every instruction becomes its own unit with
    no passes — the bench's [--no-ir] ablation. Unlike
    {!set_superblocks}, flipping this drops cached blocks (both settings
    then see freshly translated code). The icache model skips the passes
    regardless (per-fetch accounting needs per-instruction units). *)

val ir : t -> bool

val set_ir_default : bool -> unit
(** IR-pass setting ({!set_ir}) for machines created after this call (the
    bench harness's [--no-ir] flag clears it before building workloads). *)

val set_tiered : t -> bool -> unit
(** Enable/disable tiered execution (off by default). When on, cold code is
    interpreted through the step path and counted per-pc; a pc crossing the
    warm-up threshold is translated as a straight-line tier-1 block, then
    promoted superblock (tier 2) and IR-optimized (tier 3) as its hotness
    counter climbs. Hot blocks whose observed side-exit profile contradicts
    the static BTFN layout are recompiled with a trace-style layout picked
    from the exit counts. Flipping the setting drops cached blocks and heat
    counters (both settings then see freshly translated code). Tier
    promotion only retranslates — never reinterprets — so the fault
    determinism contract is untouched: every tier retires the same
    instructions and raises the same faults as the step oracle. *)

val tiered : t -> bool

val set_tiered_default : bool -> unit
(** Tiering for machines created after this call (the bench harness's
    [--no-tier] flag clears it before building workloads). *)

val set_inline_caches : t -> bool -> unit
(** Enable/disable per-site inline caches for register-indirect jumps
    ([jalr]/[c.jr]/[c.jalr]; off by default). Each such site gets a cache
    with a monomorphic fast path — the predicted target pc plus a direct
    block link, guarded by the code epoch — falling back through a small
    polymorphic table to the per-view block cache; sites whose table
    overflows go megamorphic and stop caching. Flipping the setting drops
    cached blocks and cache sites (terminator closures embed the choice). *)

val inline_caches : t -> bool

val set_inline_caches_default : bool -> unit
(** Inline-cache setting for machines created after this call (the bench
    harness's [--no-ic] flag clears it before building workloads). *)

(** {1 Instrumentation} *)

val set_profile : t -> Profile.t option -> unit
(** Attach (or detach) a guest profiler. With a profile attached, both
    engines attribute every dispatch to a per-block row: the block engine
    with one table update per block (static mix x dispatch counts, see
    lib/prof), the step engine per instruction through the same rows — the
    totals are bit-identical between engines. Machines pick up
    [Profile.global ()] at creation, so setting the global before building
    a workload profiles it without further plumbing. *)

val profile : t -> Profile.t option
(** The attached profiler, if any. Runtime handlers use it to attribute
    [Fault_recovered]/[Trap_taken] to the enclosing block
    ([Profile.note_recovered]/[note_trap]). *)

(** {1:process Process-wide counters}

    The [lib/metrics] registry is the process's one counting system. Each
    {!run} adds what it retired to [chimera_retired_total] and folds the
    machine's engine counts into [chimera_dispatches_total],
    [chimera_chain_hits_total], [chimera_side_exits_total],
    [chimera_fused_total], [chimera_ic_hits_total],
    [chimera_ic_misses_total], [chimera_ic_mega_dispatches_total],
    [chimera_tier_promotions_total], [chimera_recompiles_total],
    [chimera_translations_total], the seven [chimera_ir_*_total] pass
    counters and the TLB counters. Read them with {!Metrics.Snapshot}, as
    deltas around the work being measured.

    The accessors below are one-snapshot reads of those metrics, kept for
    perfbench. *)

val observed_retired : unit -> int
(** [chimera_retired_total]: instructions retired by completed {!run}
    calls. *)

val observed_chain : unit -> int * int
(** [(chain hits, block dispatches)] — a chain hit is a dispatch that
    followed a direct link instead of probing the block table. *)

val observed_superblock : unit -> int * int
(** [(side exits, fused instructions)] — a side exit is a dispatch that
    left its block through a taken inlined branch; fused instructions count
    instructions beyond the first in multi-instruction execution units
    (Σ (unit width − 1) over translated blocks). *)

val observed_ic : unit -> int * int * int
(** [(hits, misses, megamorphic dispatches)] on machines with inline caches
    on: a hit followed a cached epoch-valid link, a miss fell back to the
    block table and retrained the site, and a megamorphic dispatch went
    through an overflowed site that no longer caches (neither hit nor miss
    — [ic_hit_rate] is hits / (hits + misses)). *)

(** {1 Tier / inline-cache introspection}

    Snapshots of the current view's block table and inline-cache sites, for
    the profile report and the CLI ("why is this block still cold"). *)

type block_info = {
  bi_entry : int;
  bi_tier : int;  (** 1 = block, 2 = superblock, 3 = IR-optimized *)
  bi_relaid : bool;  (** layout came from an observed exit profile *)
  bi_hot : int;  (** dispatches since (re)translation *)
  bi_exits : int;  (** side exits observed since (re)translation *)
}

val block_infos : t -> block_info list
(** One entry per cached block in the current view, unordered. *)

type ic_info = {
  ici_site : int;
  ici_state : [ `Empty | `Mono | `Poly | `Mega ];
  ici_targets : int;  (** distinct targets cached (0 once megamorphic) *)
  ici_hits : int;
  ici_misses : int;
}

val ic_infos : t -> ic_info list
(** One entry per inline-cache site in the current view, unordered. *)

(** {1 Persistent translation plans}

    A recording machine keeps, next to every translated block, the replay
    skeleton of the translation that produced it: the positional sequence
    of lower/compile decisions with the post-optimize IR ops. {!export_plan}
    joins those skeletons with the live decode cache, tier state, heat
    table and inline-cache targets into a closure-free, [Marshal]-safe
    value; {!seed_plan} replays one into a fresh machine so a warm start
    re-emits execution units directly — no decoding, no IR lowering, no
    optimizer passes, no interpreted warm-up.

    Soundness contract: a plan carries no byte checksums of its own. The
    caller (the [lib/cache] content-addressed store) must only offer a plan
    to a machine whose guest code bytes digest to the key the plan was
    stored under — the digest is taken {e after} the exporting run, so
    self-modifying programs produce a key no pristine load ever matches and
    their entries become unreachable rather than wrong. *)

type plan
(** Marshalable translation plan (no closures; contains only decoded
    instructions, IR ops, pcs, tiers and counters). *)

val set_record : t -> bool -> unit
(** Enable or disable skeleton recording on this machine. Only translations
    performed while recording is on are exportable. *)

val record : t -> bool

val set_record_default : bool -> unit
(** Recording setting for machines created after this call (the bench
    harness's [--cache] flag and the CLI's [cache prewarm] set it). *)

val export_plan : t -> plan
(** Snapshot the current view's replayable state: valid decode-cache
    entries, every epoch-valid block that has a recorded skeleton (with its
    current tier, layout and heat), interpreter heat of untranslated
    entries, and non-megamorphic inline-cache targets. *)

val seed_plan : t -> plan -> (int, string) result
(** Replay a plan into this machine: prefab the decode cache, rebuild and
    publish every block at its exported tier and heat, seed interpreter
    heat and retrain inline caches. Returns [Ok n] with the number of
    blocks seeded; [Error "flags"] if the plan was exported under a
    different engine configuration (superblocks / IR / tiering / inline
    caches / icache) — the caller should fall back cold. A block whose
    replay diverges (which the content-digest contract makes unexpected) is
    skipped, not published; execution then translates it on demand. *)

val plan_stats : plan -> int * int
(** [(blocks, decode entries)] in a plan — for cache telemetry. *)

val observed_translate : unit -> float * int
(** [(seconds, translations)] spent on fresh translations: the sum of the
    [chimera_translate_ns] histogram and [chimera_translations_total]. Plan
    replay is deliberately excluded — it is cache-preparation work, charged
    by the caller (the bench's [warm_start_s]) — so a warm/cold
    [translate_s] ratio measures exactly the translation work the cache
    avoided. *)
