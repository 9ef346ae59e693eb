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
    under every {!config}: the software TLB ({!Memory}) and direct block
    chaining are caches of successful checks, never of outcomes a
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

(** {1 Engine configuration}

    How a machine executes is fixed when it is created, by one immutable
    {!config} value. Every engine retires the same instructions and raises
    the same faults as the step oracle (the fault determinism contract);
    the configuration only changes how fast, and which engine counters
    move. *)

type engine =
  | Step  (** the single-step interpreter: the reference semantics *)
  | Block
      (** translation blocks that end at the first control-flow
          instruction, direct-chained to their successors *)
  | Superblock
      (** blocks that inline direct jumps and forward conditional branches
          (guarded side exits) and cross pages *)

type config = {
  engine : engine;
  ir : bool;
      (** optimize top-tier straight-line runs (constant propagation,
          dead-write elimination, memory-pattern fusion) into
          multi-instruction units; off emits one unit per instruction —
          the bench's [--no-ir] ablation *)
  tiered : bool;
      (** interpret cold code, translate an entry once warm as a
          straight-line tier-1 block, promote it to a superblock (tier 2)
          and then IR-optimize it (tier 3) as it gets hotter, and
          recompile hot blocks whose observed side exits contradict the
          static layout. Promotion only retranslates, never reinterprets *)
  inline_caches : bool;
      (** per-site inline caches on register-indirect jumps: a monomorphic
          predicted target with a direct block link, a small polymorphic
          table behind it, and megamorphic sites that stop caching *)
  icache : (int * int) option;
      (** [(sets, line bytes)] of an {!Icache} model every fetch checks,
          misses charging {!Costs.t.icache_miss} cycles; [None] is off.
          Under the model no block gets the IR passes (per-fetch accounting
          needs one unit per instruction) *)
}

val default_config : config
(** Superblocks with the IR passes; tiering, inline caches and the icache
    model off. *)

val config_tag : config -> string
(** A stable rendering of every field, for cache keys: two configurations
    share a tag exactly when they are equal. *)

val create :
  ?config:config -> ?vlen:int -> ?costs:Costs.t -> mem:Memory.t -> isa:Ext.t -> unit -> t
(** [config] defaults to {!default_config}; [vlen] is the vector register
    width in bytes (default 32 = 256 bits).
    @raise Invalid_argument if [config] asks for tiering without the
    superblock engine (a tier-2 promotion would rebuild the tier-1 shape
    forever), or for inline caches on the step engine. *)

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

val icache_misses : t -> int
(** Misses of the {!config} icache model so far (0 when it is off). *)

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
(** Execute until a stop event, at most [fuel] instructions, on the
    {!config} engine. The translating engines decode straight-line runs
    once into arrays of closures ({!Tblock}), execute them whole between
    handler-visible events, and follow direct links between blocks
    (guarded by entry-pc and code-epoch checks). Counters, faults and
    handler interactions are observably identical to the step engine (the
    differential property tests assert this). *)

val step : ?handlers:handlers -> t -> stop option
(** Execute one instruction; [None] means it retired normally. Always uses
    the single-step path. *)

(** {2 Perfbench setters}

    [perfbench/], the repository benchmark (changed only together with
    its recorded baseline), pins its engine per machine through these;
    nothing else should call them — pass a {!config} to {!create}
    instead. Each one replaces one field of
    the machine's configuration (validated as in {!create}) and, when that
    changes it, drops every translated block, heat counter and
    inline-cache site, so the new configuration only ever runs freshly
    translated code. *)

val set_block_engine : t -> bool -> unit
(** {!Superblock} or {!Step}. *)

val set_superblocks : t -> bool -> unit
(** {!Superblock} or {!Block}. *)

val set_ir : t -> bool -> unit
val set_tiered : t -> bool -> unit
val set_inline_caches : t -> bool -> unit

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
(** Enable or disable skeleton recording on this machine (off at
    creation). Only translations performed while recording is on are
    exportable. *)

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
    different {!config} — the caller should fall back cold. A block whose
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
