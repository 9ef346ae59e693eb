(** Content-addressed persistent translation cache.

    Warm starts load two artifacts instead of recomputing them: the CHBP
    rewrite context ({!Chbp.t} — site tables, SMILE layouts, scavenge
    results) and a translation plan ({!Machine.plan} — decoded runs,
    post-optimize TIR ops, superblock shapes, relayout decisions, tier heat
    and inline-cache seeds). Artifacts are addressed by an MD5 digest of
    the guest code bytes, the ISA, a caller-supplied configuration tag and
    {!schema_version}, so stale entries are unreachable by construction:
    self-modified code, a different engine configuration or a schema bump
    all compute a different key.

    Every load is total — corrupt, truncated, version-skewed or missing
    entries return [Error reason] (and emit [Obs.Cache_reject]) so the
    caller can fall back to the cold path; they never raise. *)

type t

val schema_version : int
(** Baked into both the digest and the on-disk container version: bumping
    it orphans every existing entry (loads report ["version"]). *)

val open_dir : string -> t
(** Open (creating if necessary) a cache directory. *)

val dir : t -> string

(** {1 Content digests} *)

val digest_mem : Memory.t -> isa:Ext.t -> extra:string -> string
(** Hex digest of a memory image's executable pages plus the ISA,
    configuration tag and schema version. Data pages are excluded (they
    mutate during a run); executable pages are exactly what translation
    depends on. Taken after a run, the digest only equals a fresh load's
    digest if the program never modified its own code. *)

val digest_bin : Binfile.t -> extra:string -> string
(** Digest of a SELF binary's executable sections and entry point — the
    address for rewrite artifacts, computable before any memory image
    exists. *)

(** {1 Rewrite contexts} *)

val store_rewrite : t -> key:string -> Chbp.t -> unit
val load_rewrite : t -> key:string -> (Chbp.t, string) result

(** {1 Translation plans} *)

val store_plan : t -> key:string -> Machine.t -> unit
(** Export the machine's translation plan ({!Machine.export_plan}) and
    store it under [key] — call after a recording run, with [key] digested
    from the machine's {e current} memory. *)

val seed_plan : t -> key:string -> Machine.t -> (int, string) result
(** Load the plan stored under [key] and seed it into the machine
    ({!Machine.seed_plan}) as one accounted operation: [Ok blocks] counts a
    hit; a load failure or a machine-side refusal counts a miss with that
    reason (["miss"], ["truncated"], ["magic"], ["version"], ["checksum"],
    ["decode"], ["flags"], ["seed"]) and the caller proceeds cold. *)

(** {1 Telemetry and maintenance} *)

val observed : unit -> int * int * int
(** Process-wide [(hits, misses, stores)] since the last {!Metrics.reset}:
    a read of the [chimera_cache_loads_total], [chimera_cache_rejects_total]
    and [chimera_cache_stores_total] metrics, kept for perfbench. Other
    callers read {!Metrics.Snapshot} directly. *)

val observed_dedup : unit -> int
(** Stores skipped because a valid entry already held the digest — the
    concurrent-tenant duplicate-store path. Content addressing makes such
    stores redundant (every writer serializes identical bytes), so the
    cache validates the existing entry and skips the Marshal + tmp +
    rename instead of re-writing it. A read of the
    [chimera_cache_dedup_total] metric, kept for perfbench like
    {!observed}. *)

val stat : t -> int * int
(** [(entries, bytes)] currently in the cache directory. *)

val clear : t -> int
(** Remove every cache entry (and stray temp file); returns the count. *)
