(* Decode-cache entries carry the generation stamp of the bytes they were
   decoded from; a stale entry fails its stamp check and is re-decoded.
   [Cill] also records the last byte actually examined (an illegal decode
   may have fetched only the low parcel), so its stamp covers exactly the
   bytes the verdict depends on. *)
type centry = Cok of Inst.t * int * int | Cill of string * int * int

type engine = Step | Block | Superblock

type config = {
  engine : engine;
  ir : bool;
  tiered : bool;
  inline_caches : bool;
  icache : (int * int) option;
}

type view = {
  vmem : Memory.t;
  cache : (int, centry) Hashtbl.t;
  blocks : (int, t Tblock.t) Hashtbl.t;  (** translation blocks, keyed by entry pc *)
  heat : (int, int ref) Hashtbl.t;
      (** interpreted-dispatch counts of still-untranslated entries (tiered
          machines only): an entry is stepped until its heat crosses the
          first tier threshold, then translated and dropped from here *)
  ics : (int, icsite) Hashtbl.t;
      (** per-site inline caches for indirect terminators
          ([jalr]/[c_jr]/[c_jalr]), keyed by the site pc *)
  skels : (int, skel) Hashtbl.t;
      (** recorded translation skeletons, keyed by entry pc (recording
          machines only): the positional lower/compile decisions of the
          {e latest} translation at that entry, joined with the live block
          at {!export_plan} time to form a persistable replay recipe *)
}

(* One recorded translation-callback decision, in program order. [Slower]
   carries the very op record an optimized translation's closures captured
   — its [k] field holds the post-optimize kind by the time the block is
   exported, so replaying the sequence through the emitter (skipping
   [Tir.optimize]) reconstructs the same execution units. [Scompile] marks
   every other instruction (in an unoptimized block, all of them); replay
   re-derives it from the decoded instruction, which is deterministic. *)
and step = Slower of Tir.op | Scompile

and skel = {
  sk_steps : step array;
  sk_relayout : (int * bool) list;
      (** the recompile plan the translation ran under, so replay drives
          [relayout_of] to the same cut/flip decisions *)
}

and icsite = {
  site_pc : int;
  mutable site_target : int;
      (** predicted target pc of the monomorphic slot; [-1] when unbound *)
  mutable site_tb : t Tblock.t option;
      (** direct block link for [site_target] — the monomorphic fast path.
          Guarded on every use by target equality and the one-compare code
          epoch check, exactly like a chain link, so SMC or a replaced
          block makes the prediction fail-safe (next use re-resolves). *)
  mutable site_poly : (int * t Tblock.t) array;
      (** small polymorphic table behind the monomorphic slot; entries
          carry the same target + epoch guard *)
  mutable site_mega : bool;
      (** megamorphic: more distinct live targets than the polymorphic
          table holds — the site stops caching and every dispatch goes to
          the per-view block table *)
  mutable site_hits : int;  (** cumulative per-site hits (reporting only) *)
  mutable site_misses : int;
}

and t = {
  mutable cur : view;
  mutable views : view list;
      (** recently used views, most recent first, capped at [max_views] *)
  gens : Tblock.Gen.t;
      (** page generations, shared by every view: physical pages may be
          aliased between views, so a patch invalidates everywhere *)
  mutable isa : Ext.t;
  costs : Costs.t;
  vlen : int;
  xregs : bytes;
      (** the integer register file: x[i] is the 64-bit slot at byte
          offset [8 * i], read and written unboxed (see {!rget}) *)
  vregs : bytes;
  mutable vl : int;
  mutable vsew : Inst.sew;
  mutable pc : int;
  mutable retired : int;
  mutable vector_retired : int;
  mutable indirect_retired : int;
  (* cycles are not stored directly: the invariant cycles = retired +
     cycles_extra holds at all times, so the per-instruction fast path only
     bumps [retired] and everything charged beyond one cycle per retired
     instruction (vector ops, icache misses, runtime events) lands here *)
  mutable cycles_extra : int;
  mutable cfg : config;
      (** the engine configuration, validated at {!create}; only
          [reconfigure] (behind the perfbench setters) replaces it *)
  mutable icache : Icache.t option;  (** the model [cfg.icache] asks for *)
  mutable code_epoch : int;
      (** advanced on every {!invalidate_code} and ISA change; blocks whose
          [echeck] equals it are valid with one compare, and chain links are
          implicitly severed when it moves (Tblock.revalidate) *)
  mutable chain_hits : int;  (** dispatches served by a chain link *)
  mutable tb_dispatches : int;  (** total block dispatches (chained or not) *)
  mutable side_exits : int;  (** dispatches that left a block via a taken
                                 inlined branch *)
  mutable fused_pairs : int;
      (** instructions merged into multi-instruction units at translation
          time (Σ (unit width − 1) over translated blocks) *)
  mutable pending_ic : icsite option;
      (** set by an indirect terminator closure as it completes; the next
          dispatch consumes it to predict the successor block through the
          site's inline cache instead of the single [link_taken] slot *)
  mutable ic_hits : int;  (** dispatches predicted by an inline cache *)
  mutable ic_misses : int;  (** IC probes that fell back to the block table *)
  mutable ic_mega_d : int;  (** dispatches through megamorphic sites *)
  mutable tier_promotions : int;
  mutable recompiles : int;  (** profile-guided layout recompilations *)
  (* per-translation IR pass statistics, added to the metrics registry
     once per [run] like the other counters *)
  mutable ir_blocks : int;  (** translations that produced IR units *)
  mutable ir_units : int;  (** execution units emitted from IR runs *)
  mutable ir_folded : int;  (** ops folded to constants *)
  mutable ir_dead : int;  (** ops killed by dead-write elimination *)
  mutable ir_pc_elided : int;  (** ops emitted without a pc write *)
  mutable ir_tlb_elided : int;  (** paired accesses sharing one TLB check *)
  mutable ir_cached : int;  (** operand reads served from known constants *)
  ir_state : Tir.state;
      (** translation-time known-register state, reset per translation and
          threaded across the block's runs (reusable scratch, no per-block
          allocation) *)
  mutable rec_on : bool;
      (** record translation skeletons into the view's [skels] table so the
          machine's translations can be exported as a persistable plan *)
  mutable translations : int;
      (** fresh translations (not plan replay), flushed per run; their
          latency goes to the [chimera_translate_ns] histogram *)
  mutable prof : Profile.t option;
      (** attached guest profiler; both engines account through it when set
          (picked up from [Profile.global] at creation) *)
}

type stop = Exited of int | Faulted of Fault.t | Fuel_exhausted
type action = Resume of int | Stop of stop

type handlers = {
  on_fault : t -> Fault.t -> action;
  on_ebreak : t -> pc:int -> size:int -> action;
  on_ecall : t -> pc:int -> action;
  on_check : t -> pc:int -> rd:Reg.t -> target:int -> action;
}

let default_handlers =
  { on_fault = (fun _ f -> Stop (Faulted f));
    on_ebreak =
      (fun _ ~pc ~size:_ ->
        Stop (Faulted (Fault.Illegal_instruction { pc; reason = "unhandled ebreak" })));
    on_ecall =
      (fun _ ~pc ->
        Stop (Faulted (Fault.Illegal_instruction { pc; reason = "unhandled ecall" })));
    on_check =
      (fun _ ~pc ~rd:_ ~target:_ ->
        Stop
          (Faulted
             (Fault.Illegal_instruction { pc; reason = "unhandled check instruction" })))
  }

(* The process-wide counters (lib/metrics). The hot paths count in plain
   per-machine mutables; [flush_run_stats] adds them here once per [run]
   and zeroes them, so the per-instruction path never touches the
   registry. Only the translate-latency histogram and the fault counter
   record at their (cold) source. *)
let m_retired =
  Metrics.counter "chimera_retired_total"
    ~help:"Guest instructions retired inside Machine.run"

let m_dispatches =
  Metrics.counter "chimera_dispatches_total"
    ~help:"Translation-block dispatches"

let m_chain_hits =
  Metrics.counter "chimera_chain_hits_total"
    ~help:"Dispatches served by a chain link or inline cache"

let m_side_exits =
  Metrics.counter "chimera_side_exits_total"
    ~help:"Superblock dispatches that left through a taken side exit"

let m_fused =
  Metrics.counter "chimera_fused_total"
    ~help:"Instructions merged into multi-instruction execution units"

let m_tier_promotions =
  Metrics.counter "chimera_tier_promotions_total"
    ~help:"Blocks promoted to a higher tier"

let m_recompiles =
  Metrics.counter "chimera_recompiles_total"
    ~help:"Profile-guided recompiles from observed side-exit profiles"

let m_ic_hits =
  Metrics.counter "chimera_ic_hits_total"
    ~help:"Inline-cache hits at indirect-terminator sites"

let m_ic_misses =
  Metrics.counter "chimera_ic_misses_total"
    ~help:"Inline-cache misses at indirect-terminator sites"

let m_ic_mega =
  Metrics.counter "chimera_ic_mega_dispatches_total"
    ~help:"Dispatches through megamorphic indirect sites"

let m_translations =
  Metrics.counter "chimera_translations_total"
    ~help:"Fresh block translations (plan replays excluded)"

let m_translate_ns =
  Metrics.histogram "chimera_translate_ns"
    ~help:"Latency of one block translation in nanoseconds"

let m_faults_raised =
  Metrics.counter "chimera_faults_raised_total"
    ~help:"Deterministic machine faults raised (before any handler)"

let m_ir_blocks =
  Metrics.counter "chimera_ir_blocks_total"
    ~help:"Translations that produced IR units"

let m_ir_units =
  Metrics.counter "chimera_ir_units_total"
    ~help:"Execution units emitted from IR runs"

let m_ir_folded =
  Metrics.counter "chimera_ir_folded_total"
    ~help:"IR ops folded to translation-time constants"

let m_ir_dead =
  Metrics.counter "chimera_ir_dead_total"
    ~help:"IR ops killed by dead-write elimination"

let m_ir_pc_elided =
  Metrics.counter "chimera_ir_pc_elided_total"
    ~help:"IR ops emitted without a pc write"

let m_ir_tlb_elided =
  Metrics.counter "chimera_ir_tlb_elided_total"
    ~help:"Paired memory accesses sharing one TLB check"

let m_ir_cached =
  Metrics.counter "chimera_ir_cached_total"
    ~help:"IR operand reads served from known constants"

let new_view mem =
  { vmem = mem;
    cache = Hashtbl.create 1024;
    blocks = Hashtbl.create 256;
    heat = Hashtbl.create 256;
    ics = Hashtbl.create 64;
    skels = Hashtbl.create 64 }

let default_config =
  { engine = Superblock; ir = true; tiered = false; inline_caches = false; icache = None }

(* Reject a configuration the engine cannot honour before it reaches
   execution. Tiering climbs block -> superblock -> IR, so without
   superblock formation a tier-2 request would re-emit the tier-1 shape
   and promote forever; the step engine translates nothing, so tiering and
   inline caches would be silently ignored there. *)
let validate c =
  if c.tiered && c.engine <> Superblock then
    invalid_arg "Machine: tiering needs the superblock engine";
  if c.inline_caches && c.engine = Step then
    invalid_arg "Machine: inline caches need a translating engine"

let config_tag c =
  Printf.sprintf "eng=%s;ir=%b;tier=%b;ic=%b;icache=%s"
    (match c.engine with Step -> "step" | Block -> "block" | Superblock -> "super")
    c.ir c.tiered c.inline_caches
    (match c.icache with None -> "off" | Some (sets, line) -> Printf.sprintf "%dx%d" sets line)

let icache_model = Option.map (fun (sets, line) -> Icache.create ~sets ~line)

(* Tier thresholds. Heat is counted per interpreted instruction at an
   untranslated entry; hot is counted per dispatch of a translated block.
   Low thresholds keep the warm-up window short (hot loops reach the top
   tier within a few hundred iterations) while cold code never pays for
   translation at all. *)
let tier1_heat = 4  (* interpreted executions before the first translation *)
let tier2_hot = 32  (* block dispatches before superblock promotion *)
let tier3_hot = 128  (* superblock dispatches before IR promotion *)
let recompile_hot = 256  (* top-tier dispatches before the exit-profile check *)

(* Observed-exit-rate policy for profile-guided relayout: a branch whose
   conditional taken rate reaches [relayout_cut_rate] contradicts the BTFN
   assumption and is cut out of the block (compiled as a terminator, which
   chains through both link slots instead of side-exiting); at
   [relayout_flip_rate] the branch is so lopsided that the block is laid
   out through the taken path instead (inverted guard, trace layout). *)
let relayout_cut_rate = 0.25
let relayout_flip_rate = 0.70

(* Minimum dispatches that must have reached a unit before its observed
   exit rate is trusted — below this the rate is noise (a wrapped
   superblock's late units see only the dispatches that survived every
   earlier exit, often just one or two). *)
let relayout_min_sample = 16

(* Polymorphic inline-cache capacity: distinct live targets beyond the
   monomorphic slot plus this many table entries turn the site
   megamorphic. *)
let ic_poly_limit = 8

let create ?(config = default_config) ?(vlen = 32) ?(costs = Costs.default) ~mem
    ~isa () =
  validate config;
  let view = new_view mem in
  { cur = view;
    views = [ view ];
    gens = Tblock.Gen.create ();
    isa;
    costs;
    vlen;
    xregs = Bytes.make 256 '\000';
    vregs = Bytes.make (32 * vlen) '\000';
    vl = 0;
    vsew = Inst.E64;
    pc = 0;
    retired = 0;
    vector_retired = 0;
    indirect_retired = 0;
    cycles_extra = 0;
    cfg = config;
    icache = icache_model config.icache;
    code_epoch = 0;
    chain_hits = 0;
    tb_dispatches = 0;
    side_exits = 0;
    fused_pairs = 0;
    pending_ic = None;
    ic_hits = 0;
    ic_misses = 0;
    ic_mega_d = 0;
    tier_promotions = 0;
    recompiles = 0;
    ir_blocks = 0;
    ir_units = 0;
    ir_folded = 0;
    ir_dead = 0;
    ir_pc_elided = 0;
    ir_tlb_elided = 0;
    ir_cached = 0;
    ir_state = Tir.state_create ();
    rec_on = false;
    translations = 0;
    prof = Profile.global () }

let mem t = t.cur.vmem
let isa t = t.isa

let set_isa t isa =
  if not (Ext.equal t.isa isa) then begin
    t.isa <- isa;
    (* blocks compiled against the old capability set must re-check *)
    t.code_epoch <- t.code_epoch + 1
  end
let costs t = t.costs
let vlen t = t.vlen
let pc t = t.pc
let set_pc t pc = t.pc <- pc
(* Register slots are addressed by byte offset ([roff], resolved at
   translation time by the closure compiler). [Reg.t] is range-checked at
   construction (0..31), so the unchecked 64-bit primitives never leave the
   256-byte file. Through these inlined accessors a register value stays an
   unboxed machine word from read to write: no [Int64] box, and no write
   barrier, since a [bytes] store is not a heap-pointer store. *)
external reg_load : bytes -> int -> int64 = "%caml_bytes_get64u"
external reg_store : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] roff r = Reg.to_int r lsl 3
let[@inline] rget t o = reg_load t.xregs o
let[@inline] rset t o v = if o <> 0 then reg_store t.xregs o v
let[@inline] get_reg t r = rget t (roff r)
let[@inline] set_reg t r v = rset t (roff r) v

let get_vreg t v = Bytes.sub t.vregs (Reg.v_to_int v * t.vlen) t.vlen

let set_vreg t v b =
  if Bytes.length b <> t.vlen then invalid_arg "Machine.set_vreg: wrong width";
  Bytes.blit b 0 t.vregs (Reg.v_to_int v * t.vlen) t.vlen

let vl t = t.vl
let vsew t = t.vsew

let set_vstate t ~vl ~vsew =
  t.vl <- vl;
  t.vsew <- vsew

(* The view list is an LRU of bounded size: a retired view only loses its
   decode/block caches (rebuilt on demand if the view ever returns), never
   correctness — staleness is tracked by the shared generation table, not by
   the list. *)
let max_views = 8

let switch_view t mem =
  if t.cur.vmem != mem then
    match List.find_opt (fun v -> v.vmem == mem) t.views with
    | Some v ->
        t.views <- v :: List.filter (fun w -> w != v) t.views;
        t.cur <- v
    | None ->
        let v = new_view mem in
        t.views <- v :: List.filteri (fun i _ -> i < max_views - 1) t.views;
        t.cur <- v

(* O(pages patched): bump the page generations; every cached decode entry
   and translation block overlapping a bumped page fails its stamp check on
   next use, in every view (stamps are taken from the shared table). *)
let invalidate_code t ~addr ~len =
  if !Obs.enabled then Obs.emit (Obs.Tb_invalidate { addr; len });
  Tblock.Gen.bump t.gens ~addr ~len;
  (* the epoch moves with every bump: stale blocks fail the one-compare
     fast check and fall back to the full stamp check (or re-translation),
     and every chain link established before the patch stops matching *)
  t.code_epoch <- t.code_epoch + 1

let icache_misses t =
  match t.icache with None -> 0 | Some ic -> Icache.misses ic

let set_profile t p = t.prof <- p
let profile t = t.prof
let retired t = t.retired
let vector_retired t = t.vector_retired
let indirect_retired t = t.indirect_retired
let cycles t = t.retired + t.cycles_extra
let charge t n = t.cycles_extra <- t.cycles_extra + n

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

exception Efault of Fault.t

(* Raised (without a backtrace) by an inlined branch closure whose guard
   was taken: the closure has already set pc to the taken target and
   retired, so the catch site in [run_blocks] treats it as a normal block
   completion through the side exit. Payload-free so raising allocates
   nothing on the loop back edge. *)
exception Side_exit

(* ALU semantics live in {!Tir} now, shared between the interpreter, the
   closure compiler and the IR constant folder — a folded result is
   bit-identical to the step engine by construction. *)
let sext32 = Tir.sext32
let alu = Tir.alu
let alui = Tir.alui

(* Comparisons at type [int64] compile to machine compares of unboxed
   words; the [Int64] module's [equal]/[compare]/[unsigned_compare] are
   calls that box their arguments. *)
let[@inline] ult (a : int64) b =
  Int64.sub a Int64.min_int < Int64.sub b Int64.min_int

let[@inline] branch_taken c (a : int64) b =
  match c with
  | Inst.Beq -> a = b
  | Inst.Bne -> a <> b
  | Inst.Blt -> a < b
  | Inst.Bge -> a >= b
  | Inst.Bltu -> ult a b
  | Inst.Bgeu -> not (ult a b)

let[@inline] addr_of v = Int64.to_int v
let page_mask = Memory.page_size - 1

(* 32-bit sign extension of a [0, 2^32) int — the load_u32 result — in
   native arithmetic, with no Int64 intermediate. *)
let sext32_int v = (v lxor 0x8000_0000) - 0x8000_0000

(* 8-byte data accesses. The in-page case reads or writes the page payload
   that {!Memory.read_data}/{!Memory.write_data} return, so the value stays
   unboxed when these are inlined; a page-straddling access goes through
   {!Memory}'s byte-wise path. Either way the TLB accounting and the fault
   equal those of [Memory.load_u64]/[Memory.store_u64]. A load writes its
   register slot in each arm: a value chosen by an [if] whose other arm is
   a call would be boxed. *)
let[@inline] rload64 t d m a =
  let off = a land page_mask in
  if off <= Memory.page_size - 8 then
    rset t d (Bytes.get_int64_le (Memory.read_data m a) off)
  else rset t d (Memory.load_u64 m a)

let[@inline] store64 m a v =
  let off = a land page_mask in
  if off <= Memory.page_size - 8 then
    Bytes.set_int64_le (Memory.write_data m a) off v
  else Memory.store_u64 m a v

let load_value mem width unsigned addr =
  match (width, unsigned) with
  | Inst.B, false -> Int64.of_int (Encode.sext (Memory.load_u8 mem addr) 8)
  | Inst.B, true -> Int64.of_int (Memory.load_u8 mem addr)
  | Inst.H, false -> Int64.of_int (Encode.sext (Memory.load_u16 mem addr) 16)
  | Inst.H, true -> Int64.of_int (Memory.load_u16 mem addr)
  | Inst.W, false -> sext32 (Int64.of_int (Memory.load_u32 mem addr))
  | Inst.W, true -> Int64.of_int (Memory.load_u32 mem addr)
  | Inst.D, _ -> Memory.load_u64 mem addr

let store_value mem width addr v =
  match width with
  | Inst.B -> Memory.store_u8 mem addr (Int64.to_int v land 0xFF)
  | Inst.H -> Memory.store_u16 mem addr (Int64.to_int v land 0xFFFF)
  | Inst.W -> Memory.store_u32 mem addr (Int64.to_int (Int64.logand v 0xFFFFFFFFL))
  | Inst.D -> Memory.store_u64 mem addr v

(* Vector element accessors at the current sew. *)

let[@inline] vget t vr i =
  let base = (Reg.v_to_int vr * t.vlen) in
  match t.vsew with
  | Inst.E64 -> Bytes.get_int64_le t.vregs (base + (i * 8))
  | Inst.E32 -> Int64.of_int32 (Bytes.get_int32_le t.vregs (base + (i * 4)))
  | Inst.E16 -> Int64.of_int (Encode.sext (Bytes.get_uint16_le t.vregs (base + (i * 2))) 16)
  | Inst.E8 -> Int64.of_int (Encode.sext (Bytes.get_uint8 t.vregs (base + i)) 8)

let[@inline] vset t vr i v =
  let base = (Reg.v_to_int vr * t.vlen) in
  match t.vsew with
  | Inst.E64 -> Bytes.set_int64_le t.vregs (base + (i * 8)) v
  | Inst.E32 -> Bytes.set_int32_le t.vregs (base + (i * 4)) (Int64.to_int32 v)
  | Inst.E16 -> Bytes.set_uint16_le t.vregs (base + (i * 2)) (Int64.to_int v land 0xFFFF)
  | Inst.E8 -> Bytes.set_uint8 t.vregs (base + i) (Int64.to_int v land 0xFF)

let[@inline] vop_apply op acc a b =
  match op with
  | Inst.Vadd -> Int64.add a b
  | Inst.Vsub -> Int64.sub a b
  | Inst.Vmul -> Int64.mul a b
  | Inst.Vmacc -> Int64.add acc (Int64.mul a b)

let vlmax t sew = t.vlen / Inst.sew_bytes sew

(* Decode at [pc] through the current view's cache. Entries are validated
   against the page generations of the bytes they cover, so a patched range
   is simply re-decoded — [invalidate_code] never walks the cache. *)
let decode_fresh t pc =
  let lo = Memory.fetch_u16 t.cur.vmem pc in
  let needs_hi = lo land 0b11 = 0b11 && lo land 0b11111 <> 0b11111 in
  let hi = if needs_hi then Memory.fetch_u16 t.cur.vmem (pc + 2) else 0 in
  match Decode.decode ~lo ~hi with
  | Decode.Ok (i, n) ->
      Hashtbl.replace t.cur.cache pc
        (Cok (i, n, Tblock.Gen.stamp t.gens ~lo:pc ~hi:(pc + n - 1)));
      (i, n)
  | Decode.Illegal reason ->
      (* stamp only the bytes the verdict was computed from: the high
         parcel was fetched (and so depends on memory) only when the low
         parcel asked for it — stamping a fixed pc+3 would reach into a
         page that was never examined (possibly unmapped) *)
      let hi = if needs_hi then pc + 3 else pc + 1 in
      Hashtbl.replace t.cur.cache pc
        (Cill (reason, hi, Tblock.Gen.stamp t.gens ~lo:pc ~hi));
      raise (Efault (Fault.Illegal_instruction { pc; reason }))

let decode_at t pc =
  match Hashtbl.find_opt t.cur.cache pc with
  | Some (Cok (i, n, st)) when Tblock.Gen.stamp t.gens ~lo:pc ~hi:(pc + n - 1) = st ->
      (i, n)
  | Some (Cill (reason, hi, st)) when Tblock.Gen.stamp t.gens ~lo:pc ~hi = st ->
      raise (Efault (Fault.Illegal_instruction { pc; reason }))
  | Some _ | None -> decode_fresh t pc

let fetch_decode t = decode_at t t.pc

(* Execute one decoded instruction; updates pc; may raise Efault.
   Returns the [stop] if the instruction is a control event the caller's
   handlers must see. *)
type event = Enone | Eebreak of int | Eecall | Echeck of Reg.t * Reg.t * int

let jump_aligned t target =
  if target land 1 <> 0 || (target land 3 <> 0 && not (Ext.mem Ext.C t.isa)) then
    raise (Efault (Fault.Misaligned_fetch { pc = t.pc; target }));
  t.pc <- target

let exec t inst size =
  let next = t.pc + size in
  match inst with
  | Inst.Lui (rd, imm20) ->
      set_reg t rd (Int64.of_int (imm20 lsl 12));
      t.pc <- next;
      Enone
  | Inst.Auipc (rd, imm20) ->
      set_reg t rd (Int64.of_int (t.pc + (imm20 lsl 12)));
      t.pc <- next;
      Enone
  | Inst.Jal (rd, off) ->
      set_reg t rd (Int64.of_int next);
      jump_aligned t (t.pc + off);
      Enone
  | Inst.Jalr (rd, rs1, imm) ->
      let target = addr_of (Int64.add (get_reg t rs1) (Int64.of_int imm)) land lnot 1 in
      set_reg t rd (Int64.of_int next);
      t.indirect_retired <- t.indirect_retired + 1;
      jump_aligned t target;
      Enone
  | Inst.Branch (c, rs1, rs2, off) ->
      if branch_taken c (get_reg t rs1) (get_reg t rs2) then jump_aligned t (t.pc + off)
      else t.pc <- next;
      Enone
  | Inst.Load { width; unsigned; rd; rs1; imm } ->
      let addr = addr_of (Int64.add (get_reg t rs1) (Int64.of_int imm)) in
      if width = Inst.D then rload64 t (roff rd) t.cur.vmem addr
      else set_reg t rd (load_value t.cur.vmem width unsigned addr);
      t.pc <- next;
      Enone
  | Inst.Store { width; rs2; rs1; imm } ->
      let addr = addr_of (Int64.add (get_reg t rs1) (Int64.of_int imm)) in
      if width = Inst.D then store64 t.cur.vmem addr (get_reg t rs2)
      else store_value t.cur.vmem width addr (get_reg t rs2);
      t.pc <- next;
      Enone
  | Inst.Op (op, rd, rs1, rs2) ->
      set_reg t rd (alu op (get_reg t rs1) (get_reg t rs2));
      t.pc <- next;
      Enone
  | Inst.Opi (op, rd, rs1, imm) ->
      set_reg t rd (alui op (get_reg t rs1) imm);
      t.pc <- next;
      Enone
  | Inst.Ecall -> Eecall
  | Inst.Ebreak -> Eebreak 4
  | Inst.C_nop ->
      t.pc <- next;
      Enone
  | Inst.C_ebreak -> Eebreak 2
  | Inst.C_addi (rd, imm) ->
      set_reg t rd (Int64.add (get_reg t rd) (Int64.of_int imm));
      t.pc <- next;
      Enone
  | Inst.C_li (rd, imm) ->
      set_reg t rd (Int64.of_int imm);
      t.pc <- next;
      Enone
  | Inst.C_mv (rd, rs2) ->
      set_reg t rd (get_reg t rs2);
      t.pc <- next;
      Enone
  | Inst.C_add (rd, rs2) ->
      set_reg t rd (Int64.add (get_reg t rd) (get_reg t rs2));
      t.pc <- next;
      Enone
  | Inst.C_j off ->
      jump_aligned t (t.pc + off);
      Enone
  | Inst.C_jr rs1 ->
      t.indirect_retired <- t.indirect_retired + 1;
      jump_aligned t (addr_of (get_reg t rs1) land lnot 1);
      Enone
  | Inst.C_jalr rs1 ->
      let target = addr_of (get_reg t rs1) land lnot 1 in
      t.indirect_retired <- t.indirect_retired + 1;
      set_reg t Reg.ra (Int64.of_int next);
      jump_aligned t target;
      Enone
  | Inst.C_beqz (rs1, off) ->
      if get_reg t rs1 = 0L then jump_aligned t (t.pc + off) else t.pc <- next;
      Enone
  | Inst.C_bnez (rs1, off) ->
      if get_reg t rs1 = 0L then t.pc <- next else jump_aligned t (t.pc + off);
      Enone
  | Inst.C_ld (rd, rs1, uimm) ->
      let addr = addr_of (Int64.add (get_reg t rs1) (Int64.of_int uimm)) in
      rload64 t (roff rd) t.cur.vmem addr;
      t.pc <- next;
      Enone
  | Inst.C_sd (rs2, rs1, uimm) ->
      let addr = addr_of (Int64.add (get_reg t rs1) (Int64.of_int uimm)) in
      store64 t.cur.vmem addr (get_reg t rs2);
      t.pc <- next;
      Enone
  | Inst.C_slli (rd, sh) ->
      set_reg t rd (Int64.shift_left (get_reg t rd) sh);
      t.pc <- next;
      Enone
  | Inst.C_lw (rd, rs1, uimm) ->
      let addr = addr_of (Int64.add (get_reg t rs1) (Int64.of_int uimm)) in
      set_reg t rd (sext32 (Int64.of_int (Memory.load_u32 t.cur.vmem addr)));
      t.pc <- next;
      Enone
  | Inst.C_sw (rs2, rs1, uimm) ->
      let addr = addr_of (Int64.add (get_reg t rs1) (Int64.of_int uimm)) in
      Memory.store_u32 t.cur.vmem addr
        (Int64.to_int (Int64.logand (get_reg t rs2) 0xFFFFFFFFL));
      t.pc <- next;
      Enone
  | Inst.C_lui (rd, imm) ->
      set_reg t rd (Int64.of_int (imm lsl 12));
      t.pc <- next;
      Enone
  | Inst.C_addiw (rd, imm) ->
      set_reg t rd (sext32 (Int64.add (get_reg t rd) (Int64.of_int imm)));
      t.pc <- next;
      Enone
  | Inst.C_andi (rd, imm) ->
      set_reg t rd (Int64.logand (get_reg t rd) (Int64.of_int imm));
      t.pc <- next;
      Enone
  | Inst.C_alu (op, rd, rs2) ->
      let a = get_reg t rd and b = get_reg t rs2 in
      set_reg t rd
        (match op with
        | Inst.Csub -> Int64.sub a b
        | Inst.Cxor -> Int64.logxor a b
        | Inst.Cor -> Int64.logor a b
        | Inst.Cand -> Int64.logand a b
        | Inst.Csubw -> sext32 (Int64.sub a b)
        | Inst.Caddw -> sext32 (Int64.add a b));
      t.pc <- next;
      Enone
  | Inst.Vsetvli (rd, rs1, sew) ->
      let vlmax = vlmax t sew in
      let avl =
        if Reg.equal rs1 Reg.x0 then
          if Reg.equal rd Reg.x0 then t.vl else vlmax
        else
          let v = get_reg t rs1 in
          if Int64.unsigned_compare v (Int64.of_int vlmax) > 0 then vlmax
          else Int64.to_int v
      in
      t.vsew <- sew;
      t.vl <- min avl vlmax;
      set_reg t rd (Int64.of_int t.vl);
      t.pc <- next;
      Enone
  | Inst.Vle (sew, vd, rs1) ->
      if sew <> t.vsew then
        raise
          (Efault
             (Fault.Illegal_instruction { pc = t.pc; reason = "vle sew/vtype mismatch" }));
      let base = addr_of (get_reg t rs1) in
      let sz = Inst.sew_bytes sew in
      for i = 0 to t.vl - 1 do
        vset t vd i (load_value t.cur.vmem
                       (match sew with
                        | Inst.E8 -> Inst.B | Inst.E16 -> Inst.H
                        | Inst.E32 -> Inst.W | Inst.E64 -> Inst.D)
                       false (base + (i * sz)))
      done;
      t.pc <- next;
      Enone
  | Inst.Vlse (sew, vd, rs1, rs2) ->
      if sew <> t.vsew then
        raise
          (Efault
             (Fault.Illegal_instruction { pc = t.pc; reason = "vlse sew/vtype mismatch" }));
      let base = addr_of (get_reg t rs1) in
      let stride = Int64.to_int (get_reg t rs2) in
      for i = 0 to t.vl - 1 do
        vset t vd i
          (load_value t.cur.vmem
             (match sew with
              | Inst.E8 -> Inst.B | Inst.E16 -> Inst.H
              | Inst.E32 -> Inst.W | Inst.E64 -> Inst.D)
             false (base + (i * stride)))
      done;
      t.pc <- next;
      Enone
  | Inst.Vse (sew, vs3, rs1) ->
      if sew <> t.vsew then
        raise
          (Efault
             (Fault.Illegal_instruction { pc = t.pc; reason = "vse sew/vtype mismatch" }));
      let base = addr_of (get_reg t rs1) in
      let sz = Inst.sew_bytes sew in
      for i = 0 to t.vl - 1 do
        store_value t.cur.vmem
          (match sew with
           | Inst.E8 -> Inst.B | Inst.E16 -> Inst.H
           | Inst.E32 -> Inst.W | Inst.E64 -> Inst.D)
          (base + (i * sz)) (vget t vs3 i)
      done;
      t.pc <- next;
      Enone
  | Inst.Vsse (sew, vs3, rs1, rs2) ->
      if sew <> t.vsew then
        raise
          (Efault
             (Fault.Illegal_instruction { pc = t.pc; reason = "vsse sew/vtype mismatch" }));
      let base = addr_of (get_reg t rs1) in
      let stride = Int64.to_int (get_reg t rs2) in
      for i = 0 to t.vl - 1 do
        store_value t.cur.vmem
          (match sew with
           | Inst.E8 -> Inst.B | Inst.E16 -> Inst.H
           | Inst.E32 -> Inst.W | Inst.E64 -> Inst.D)
          (base + (i * stride)) (vget t vs3 i)
      done;
      t.pc <- next;
      Enone
  | Inst.Vop_vv (op, vd, vs2, vs1) ->
      for i = 0 to t.vl - 1 do
        vset t vd i (vop_apply op (vget t vd i) (vget t vs2 i) (vget t vs1 i))
      done;
      t.pc <- next;
      Enone
  | Inst.Vop_vx (op, vd, vs2, rs1) ->
      let x = get_reg t rs1 in
      for i = 0 to t.vl - 1 do
        vset t vd i (vop_apply op (vget t vd i) (vget t vs2 i) x)
      done;
      t.pc <- next;
      Enone
  | Inst.Vmv_v_x (vd, rs1) ->
      let x = get_reg t rs1 in
      for i = 0 to t.vl - 1 do
        vset t vd i x
      done;
      t.pc <- next;
      Enone
  | Inst.Vmv_x_s (rd, vs2) ->
      set_reg t rd (vget t vs2 0);
      t.pc <- next;
      Enone
  | Inst.Vredsum (vd, vs2, vs1) ->
      let acc = ref (vget t vs1 0) in
      for i = 0 to t.vl - 1 do
        acc := Int64.add !acc (vget t vs2 i)
      done;
      vset t vd 0 !acc;
      t.pc <- next;
      Enone
  | Inst.Xcheck_jalr (rd, rs1, imm) ->
      let target = addr_of (Int64.add (get_reg t rs1) (Int64.of_int imm)) land lnot 1 in
      Echeck (rd, rs1, target)
  | Inst.P_add16 (rd, rs1, rs2) ->
      let a = get_reg t rs1 and b = get_reg t rs2 in
      let lane i =
        let sh = 16 * i in
        let sum =
          Int64.add
            (Int64.logand (Int64.shift_right_logical a sh) 0xFFFFL)
            (Int64.logand (Int64.shift_right_logical b sh) 0xFFFFL)
        in
        Int64.shift_left (Int64.logand sum 0xFFFFL) sh
      in
      set_reg t rd
        (Int64.logor (Int64.logor (lane 0) (lane 1)) (Int64.logor (lane 2) (lane 3)));
      t.pc <- next;
      Enone
  | Inst.P_smaqa (rd, rs1, rs2) ->
      let a = get_reg t rs1 and b = get_reg t rs2 in
      let byte v i =
        (* sign-extended byte lane i *)
        Int64.shift_right (Int64.shift_left v (56 - (8 * i))) 56
      in
      let acc = ref (get_reg t rd) in
      for i = 0 to 7 do
        acc := Int64.add !acc (Int64.mul (byte a i) (byte b i))
      done;
      set_reg t rd !acc;
      t.pc <- next;
      Enone

(* Fetch accounting + capability check + execution + retirement for one
   instruction. Shared by the slow path ([step], after a cache-backed
   decode) and the block engine (for decoded terminators). *)
let exec_retire t inst size =
  (match t.icache with
  | None -> ()
  | Some ic ->
      if not (Icache.access ic t.pc) then
        t.cycles_extra <- t.cycles_extra + t.costs.Costs.icache_miss;
      (* a fetch spanning two lines touches both *)
      if not (Icache.access ic (t.pc + size - 1)) then
        t.cycles_extra <- t.cycles_extra + t.costs.Costs.icache_miss);
  if not (Ext.supports t.isa inst) then
    raise
      (Efault
         (Fault.Illegal_instruction
            { pc = t.pc;
              reason =
                Printf.sprintf "extension %s not supported by this hart"
                  (match Ext.required inst with
                   | Some e -> Ext.ext_name e
                   | None -> "?") }));
  let ev = exec t inst size in
  t.retired <- t.retired + 1;
  (match Ext.required inst with
   | Some Ext.V ->
       t.vector_retired <- t.vector_retired + 1;
       t.cycles_extra <- t.cycles_extra + t.costs.Costs.vector_op - 1
   | Some _ | None -> ());
  (ev, size)

(* Deliver the outcome of one instruction to the handlers. *)
let dispatch ~handlers t thunk =
  let apply_action = function
    | Resume pc ->
        t.pc <- pc;
        None
    | Stop s -> Some s
  in
  match thunk () with
  | Enone, _ -> None
  | Eebreak sz, _ -> apply_action (handlers.on_ebreak t ~pc:t.pc ~size:sz)
  | Eecall, size ->
      let a7 = get_reg t (Reg.of_int 17) in
      if Int64.equal a7 93L then Some (Exited (Int64.to_int (get_reg t Reg.a0)))
      else
        let pc0 = t.pc in
        (* advance past the ecall by default; handler may override. *)
        t.pc <- t.pc + size;
        apply_action (handlers.on_ecall t ~pc:pc0)
  | Echeck (rd, _, target), size ->
      let pc0 = t.pc in
      set_reg t rd (Int64.of_int (pc0 + size));
      apply_action (handlers.on_check t ~pc:pc0 ~rd ~target)
  | exception Efault f ->
      Metrics.incr m_faults_raised;
      if !Obs.enabled then
        Obs.emit (Obs.Fault_raised { pc = Fault.pc f; cause = Fault.cause_name f });
      apply_action (handlers.on_fault t f)
  | exception Memory.Violation { addr; access } ->
      let f = Fault.Segfault { pc = t.pc; addr; access } in
      Metrics.incr m_faults_raised;
      if !Obs.enabled then
        Obs.emit (Obs.Fault_raised { pc = t.pc; cause = Fault.cause_name f });
      apply_action (handlers.on_fault t f)

let step_dispatch ~handlers t =
  dispatch ~handlers t (fun () ->
      let inst, size = fetch_decode t in
      exec_retire t inst size)

let step ?(handlers = default_handlers) t =
  match t.prof with
  | None -> step_dispatch ~handlers t
  | Some p ->
      (* Profiled single step: classify the instruction up front (a decode
         cache hit on the non-fault path, since the dispatch re-decodes the
         same pc), bracket the dispatch with counter reads, and attribute
         the deltas — the same window the block engine accounts per block,
         here per instruction. *)
      let pc0 = t.pc in
      let cls =
        match decode_at t pc0 with
        | inst, _ -> Profile.class_code inst
        | exception Efault _ -> -1
        | exception Memory.Violation _ -> -1
      in
      Profile.step_begin p ~pc:pc0 ~cls;
      let r0 = t.retired and c0 = cycles t in
      let mem0 = t.cur.vmem in
      let tlb0 = Memory.tlb_misses_live mem0 in
      let ic0 = icache_misses t in
      let res = step_dispatch ~handlers t in
      Profile.step_end p ~retired:(t.retired - r0) ~cycles:(cycles t - c0)
        ~tlb:(Memory.tlb_misses_live mem0 - tlb0)
        ~icache:(icache_misses t - ic0)
        ~target:t.pc;
      res

(* Execute a block terminator without touching the decode cache. *)
let step_decoded ~handlers t inst size =
  dispatch ~handlers t (fun () -> exec_retire t inst size)

(* ------------------------------------------------------------------ *)
(* Translation-block engine                                            *)
(* ------------------------------------------------------------------ *)

let retire_scalar t = t.retired <- t.retired + 1

let retire_vector t =
  t.retired <- t.retired + 1;
  t.vector_retired <- t.vector_retired + 1;
  t.cycles_extra <- t.cycles_extra + t.costs.Costs.vector_op - 1

(* Superblock inlining only covers direct transfers whose (static) target
   passes the alignment check [exec] would perform — a misaligned target
   stays a terminator so the slow path raises the precise fault. *)
let target_aligned t target =
  target land 1 = 0 && (target land 3 = 0 || Ext.mem Ext.C t.isa)

(* Find-or-create the inline-cache site record for an indirect terminator
   at [pc] in the current view. The record is captured by the terminator
   closure at translation time and shared by every translation of the site
   (re-translation after invalidation, tier promotion), so the learned
   targets survive block churn; only the per-target block links are
   re-validated, through the usual epoch guard. *)
let ic_for t pc =
  match Hashtbl.find_opt t.cur.ics pc with
  | Some s -> s
  | None ->
      let s =
        { site_pc = pc;
          site_target = -1;
          site_tb = None;
          site_poly = [||];
          site_mega = false;
          site_hits = 0;
          site_misses = 0 }
      in
      Hashtbl.add t.cur.ics pc s;
      s

(* Recompile-plan lookup for a branch at [pc]; a plan holds at most the
   branches of one block, so a list scan is fine at translation time. *)
let rec relayout_of relayout pc =
  match relayout with
  | [] -> None
  | (p, flip) :: tl -> if p = pc then Some flip else relayout_of tl pc

(* Compile one instruction the IR does not lower: control flow, block
   terminators and the interpreter fallback. Straight-line instructions
   never reach here unless the IR declined them ({!lower_op}); they are
   emitted through {!emit_effect} at every tier. Event instructions and
   indirect/linking control flow terminate the block (they stay decoded and
   run through {!step_decoded}, so handler delivery and fault pcs are
   identical to the slow path). Direct jumps that do not link ra and
   conditional branches are inlined when the translation's block shape has
   superblock formation ([sb]), laid out by its recompile plan
   ([relayout], empty outside recompilation): the jump closure transfers
   to its static target, the branch closure either falls through or
   leaves the block through {!Side_exit} — in both cases pc is exact at
   every block exit, so faults and chaining see the same machine states as
   the step engine. Anything the current capability set
   cannot execute stops the block so the slow path raises the precise
   illegal-instruction fault. Every compiled closure replicates [exec]
   exactly and then retires.

   pc is maintained lazily: straight-line units that cannot fault do not
   write [t.pc] at all; fault-capable ones (memory accesses, the
   interpreter fallback) set their own pc first so a raised fault reports
   the exact faulting instruction; control transfers write their target.
   [run_blocks] re-synchronizes pc at every dispatch end (terminator pc,
   fall-through, or the fuel-limited resume point), so pc is exact at
   every point the machine state is observable. *)
let compile_op t ~sb ~relayout ~pc inst size =
  match inst with
  | Inst.Ecall | Inst.Ebreak | Inst.C_ebreak | Inst.Xcheck_jalr _ ->
      Tblock.Term
  | Inst.Jalr (rd, rs1, imm) ->
      let o1 = roff rs1 and od = roff rd in
      (* with C in the capability set a jalr target (bit 0 cleared by the
         ISA) can never misalign, so the whole instruction is event-free:
         compile it to a direct terminator closure and skip the
         interpreter's decode-exec-dispatch path. Without C it can raise
         the misaligned-target fault and must stay on the event path. *)
      if not (Ext.mem Ext.C t.isa) then Tblock.Term
      else
        let im = Int64.of_int imm in
        let link = Int64.of_int (pc + size) in
        if t.cfg.inline_caches then
          (* the closure publishes its inline-cache site as it completes;
             the dispatch loop consumes it to predict the successor block
             (monomorphic slot → polymorphic table → block table). The
             [Some] cell is allocated once here, not per execution. *)
          let pic = Some (ic_for t pc) in
          Tblock.Term_fn
            (fun t ->
              (* target before link write: rd may alias rs1 *)
              let target =
                addr_of (Int64.add (rget t o1) im) land lnot 1
              in
              rset t od link;
              t.indirect_retired <- t.indirect_retired + 1;
              t.pc <- target;
              retire_scalar t;
              t.pending_ic <- pic)
        else
          Tblock.Term_fn
            (fun t ->
              (* target before link write: rd may alias rs1 *)
              let target =
                addr_of (Int64.add (rget t o1) im) land lnot 1
              in
              rset t od link;
              t.indirect_retired <- t.indirect_retired + 1;
              t.pc <- target;
              retire_scalar t)
  | Inst.C_jr rs1 ->
      let o1 = roff rs1 in
      if not (Ext.mem Ext.C t.isa) then Tblock.Term
      else if t.cfg.inline_caches then
        let pic = Some (ic_for t pc) in
        Tblock.Term_fn
          (fun t ->
            t.indirect_retired <- t.indirect_retired + 1;
            t.pc <- addr_of (rget t o1) land lnot 1;
            retire_scalar t;
            t.pending_ic <- pic)
      else
        Tblock.Term_fn
          (fun t ->
            t.indirect_retired <- t.indirect_retired + 1;
            t.pc <- addr_of (rget t o1) land lnot 1;
            retire_scalar t)
  | Inst.C_jalr rs1 ->
      let o1 = roff rs1 and ora = roff Reg.ra in
      if not (Ext.mem Ext.C t.isa) then Tblock.Term
      else
        let link = Int64.of_int (pc + size) in
        if t.cfg.inline_caches then
          let pic = Some (ic_for t pc) in
          Tblock.Term_fn
            (fun t ->
              (* target before the ra write: rs1 may be ra *)
              let target = addr_of (rget t o1) land lnot 1 in
              t.indirect_retired <- t.indirect_retired + 1;
              rset t ora link;
              t.pc <- target;
              retire_scalar t;
              t.pending_ic <- pic)
        else
          Tblock.Term_fn
            (fun t ->
              (* target before the ra write: rs1 may be ra *)
              let target = addr_of (rget t o1) land lnot 1 in
              t.indirect_retired <- t.indirect_retired + 1;
              rset t ora link;
              t.pc <- target;
              retire_scalar t)
  | Inst.Jal (rd, off) ->
      (* jal linking ra is a call: kept as a terminator so the profiler's
         shadow call stack sees it; any other link register is inlined *)
      let target = pc + off and od = roff rd in
      if not (target_aligned t target) then Tblock.Term
      else if (not sb) || Reg.equal rd Reg.ra then
        (* calls (and the block engine's jumps) end the block, but the
           aligned direct transfer itself is event-free: run it as a
           terminator closure *)
        let link = Int64.of_int (pc + size) in
        Tblock.Term_fn
          (fun t ->
            rset t od link;
            t.pc <- target;
            retire_scalar t)
      else
        let link = Int64.of_int (pc + size) in
        Tblock.Jump
          ( (fun t ->
              rset t od link;
              t.pc <- target;
              retire_scalar t),
            target )
  | Inst.C_j off ->
      let target = pc + off in
      if not (Ext.supports t.isa inst) || not (target_aligned t target) then
        Tblock.Term
      else if not sb then
        Tblock.Term_fn
          (fun t ->
            t.pc <- target;
            retire_scalar t)
      else
        Tblock.Jump
          ( (fun t ->
              t.pc <- target;
              retire_scalar t),
            target )
  | Inst.Branch (c, rs1, rs2, off) ->
      (* backward-taken/forward-not-taken: a backward conditional branch is
         almost always a loop backedge and taken on nearly every iteration —
         inlining it would side-exit every time, so it stays a terminator
         (and chains through the link slots like any other block end); only
         forward branches, usually not taken, are worth inlining *)
      let target = pc + off in
      if not (target_aligned t target) then Tblock.Term
      else begin
        let fall = pc + size in
        let o1 = roff rs1 and o2 = roff rs2 in
        let as_term () =
          (* loop backedge, block engine, or a profile-guided cut:
             terminator, but both targets are static and aligned so it
             cannot fault — direct closure (chains through both link
             slots, never side-exits) *)
          Tblock.Term_fn
            (fun t ->
              if branch_taken c (rget t o1) (rget t o2) then
                t.pc <- target
              else t.pc <- fall;
              retire_scalar t)
        in
        match relayout_of relayout pc with
        | Some true when sb && off > 0 ->
            (* observed mostly-taken: trace layout — invert the guard so
               the hot taken path falls through into the rest of the block
               (decoding continues at the target); the now-cold
               fall-through leaves via the side exit *)
            Tblock.Jump
              ( (fun t ->
                  if branch_taken c (rget t o1) (rget t o2) then begin
                    t.pc <- target;
                    retire_scalar t
                  end
                  else begin
                    t.pc <- fall;
                    retire_scalar t;
                    raise_notrace Side_exit
                  end),
                target )
        | Some _ -> as_term ()
        | None ->
            if (not sb) || off <= 0 then as_term ()
            else
              Tblock.Brcond
                (fun t ->
                  if branch_taken c (rget t o1) (rget t o2) then begin
                    t.pc <- target;
                    retire_scalar t;
                    raise_notrace Side_exit
                  end
                  else retire_scalar t)
      end
  | Inst.C_beqz (rs1, off) ->
      let target = pc + off in
      if not (Ext.supports t.isa inst) || not (target_aligned t target) then
        Tblock.Term
      else begin
        let fall = pc + size in
        let o1 = roff rs1 in
        let as_term () =
          Tblock.Term_fn
            (fun t ->
              if rget t o1 = 0L then t.pc <- target
              else t.pc <- fall;
              retire_scalar t)
        in
        match relayout_of relayout pc with
        | Some true when sb && off > 0 ->
            Tblock.Jump
              ( (fun t ->
                  if rget t o1 = 0L then begin
                    t.pc <- target;
                    retire_scalar t
                  end
                  else begin
                    t.pc <- fall;
                    retire_scalar t;
                    raise_notrace Side_exit
                  end),
                target )
        | Some _ -> as_term ()
        | None ->
            if (not sb) || off <= 0 then as_term ()
            else
              Tblock.Brcond
                (fun t ->
                  if rget t o1 = 0L then begin
                    t.pc <- target;
                    retire_scalar t;
                    raise_notrace Side_exit
                  end
                  else retire_scalar t)
      end
  | Inst.C_bnez (rs1, off) ->
      let target = pc + off in
      if not (Ext.supports t.isa inst) || not (target_aligned t target) then
        Tblock.Term
      else begin
        let fall = pc + size in
        let o1 = roff rs1 in
        let as_term () =
          Tblock.Term_fn
            (fun t ->
              if rget t o1 = 0L then t.pc <- fall
              else t.pc <- target;
              retire_scalar t)
        in
        match relayout_of relayout pc with
        | Some true when sb && off > 0 ->
            Tblock.Jump
              ( (fun t ->
                  if rget t o1 = 0L then begin
                    t.pc <- fall;
                    retire_scalar t;
                    raise_notrace Side_exit
                  end
                  else begin
                    t.pc <- target;
                    retire_scalar t
                  end),
                target )
        | Some _ -> as_term ()
        | None ->
            if (not sb) || off <= 0 then as_term ()
            else
              Tblock.Brcond
                (fun t ->
                  if rget t o1 = 0L then retire_scalar t
                  else begin
                    t.pc <- target;
                    retire_scalar t;
                    raise_notrace Side_exit
                  end)
      end
  | _ ->
      (* IR-declined straight-line instructions (vector / packed-SIMD)
         reuse the interpreter dispatch; they can only produce [Enone] —
         events all terminate blocks *)
      if not (Ext.supports t.isa inst) then Tblock.Stop
      else
        let retire =
          if Ext.required inst = Some Ext.V then retire_vector else retire_scalar
        in
        Tblock.Op_self
          (fun t ->
            t.pc <- pc;
            (match exec t inst size with
            | Enone -> ()
            | Eebreak _ | Eecall | Echeck _ -> assert false);
            retire t)

(* ------------------------------------------------------------------ *)
(* IR emission                                                         *)
(* ------------------------------------------------------------------ *)

(* Compile one IR op to its effect closure — the only code generator for
   straight-line instructions, optimized or not. Width, signedness, the ALU
   op and the register byte offsets are all resolved here, so the closure
   runs no per-execution dispatch and keeps register values unboxed from
   read to write (the cases that still call {!Tir.alu} are the rare
   multiply-high, divide and bit-manipulation ops). Effective addresses are
   computed as [Int64.to_int base + off], equal to the Int64 sum modulo
   2^63, which is all an address is. Fault-capable ops write their own pc
   first so a fault reports the exact instruction; pure ops never touch
   pc. *)
let emit_effect (o : Tir.op) : t -> unit =
  let pc = o.Tir.opc in
  match o.Tir.k with
  | Tir.Kdead -> fun _ -> ()
  | Tir.Kconst (rd, v) ->
      let d = roff rd in
      fun t -> rset t d v
  | Tir.Kmv (rd, rs) ->
      let d = roff rd and s = roff rs in
      fun t -> rset t d (rget t s)
  | Tir.Kalu (op, rd, r1, r2) -> (
      (* W-type ops are exact in native [int]: the 32-bit truncated result
         only depends on the operands' low 32 bits, which [Int64.to_int]
         (mod 2^63) preserves *)
      let d = roff rd and a = roff r1 and b = roff r2 in
      match op with
      | Inst.Add -> fun t -> rset t d (Int64.add (rget t a) (rget t b))
      | Inst.Sub -> fun t -> rset t d (Int64.sub (rget t a) (rget t b))
      | Inst.And -> fun t -> rset t d (Int64.logand (rget t a) (rget t b))
      | Inst.Or -> fun t -> rset t d (Int64.logor (rget t a) (rget t b))
      | Inst.Xor -> fun t -> rset t d (Int64.logxor (rget t a) (rget t b))
      | Inst.Sll ->
          fun t ->
            rset t d (Int64.shift_left (rget t a) (Int64.to_int (rget t b) land 63))
      | Inst.Srl ->
          fun t ->
            rset t d
              (Int64.shift_right_logical (rget t a) (Int64.to_int (rget t b) land 63))
      | Inst.Sra ->
          fun t ->
            rset t d (Int64.shift_right (rget t a) (Int64.to_int (rget t b) land 63))
      | Inst.Slt -> fun t -> rset t d (if rget t a < rget t b then 1L else 0L)
      | Inst.Sltu -> fun t -> rset t d (if ult (rget t a) (rget t b) then 1L else 0L)
      | Inst.Addw ->
          fun t ->
            let v = (Int64.to_int (rget t a) + Int64.to_int (rget t b)) land 0xFFFFFFFF in
            rset t d (Int64.of_int (sext32_int v))
      | Inst.Subw ->
          fun t ->
            let v = (Int64.to_int (rget t a) - Int64.to_int (rget t b)) land 0xFFFFFFFF in
            rset t d (Int64.of_int (sext32_int v))
      | Inst.Mulw ->
          fun t ->
            let v = Int64.to_int (rget t a) * Int64.to_int (rget t b) land 0xFFFFFFFF in
            rset t d (Int64.of_int (sext32_int v))
      | Inst.Sllw ->
          fun t ->
            let sh = Int64.to_int (rget t b) land 31 in
            let v = (Int64.to_int (rget t a) lsl sh) land 0xFFFFFFFF in
            rset t d (Int64.of_int (sext32_int v))
      | Inst.Srlw ->
          fun t ->
            let sh = Int64.to_int (rget t b) land 31 in
            let v = (Int64.to_int (rget t a) land 0xFFFFFFFF) lsr sh in
            rset t d (Int64.of_int (sext32_int v))
      | Inst.Sraw ->
          fun t ->
            let sh = Int64.to_int (rget t b) land 31 in
            let v = sext32_int (Int64.to_int (rget t a) land 0xFFFFFFFF) in
            rset t d (Int64.of_int (v asr sh))
      | Inst.Mul -> fun t -> rset t d (Int64.mul (rget t a) (rget t b))
      | _ -> fun t -> rset t d (Tir.alu op (rget t a) (rget t b)))
  | Tir.Kaluc (op, rd, r1, c) -> (
      let d = roff rd and a = roff r1 in
      match op with
      | Inst.Add -> fun t -> rset t d (Int64.add (rget t a) c)
      | Inst.And -> fun t -> rset t d (Int64.logand (rget t a) c)
      | Inst.Or -> fun t -> rset t d (Int64.logor (rget t a) c)
      | Inst.Xor -> fun t -> rset t d (Int64.logxor (rget t a) c)
      | Inst.Addw ->
          let ci = Int64.to_int c in
          fun t ->
            let v = (Int64.to_int (rget t a) + ci) land 0xFFFFFFFF in
            rset t d (Int64.of_int (sext32_int v))
      | Inst.Subw ->
          let ci = Int64.to_int c in
          fun t ->
            let v = (Int64.to_int (rget t a) - ci) land 0xFFFFFFFF in
            rset t d (Int64.of_int (sext32_int v))
      | Inst.Mulw ->
          let ci = Int64.to_int c in
          fun t ->
            let v = Int64.to_int (rget t a) * ci land 0xFFFFFFFF in
            rset t d (Int64.of_int (sext32_int v))
      | _ -> fun t -> rset t d (Tir.alu op (rget t a) c))
  | Tir.Kalui (op, rd, r1, imm) -> (
      let d = roff rd and a = roff r1 in
      let c = Int64.of_int imm in
      match op with
      | Inst.Addi -> fun t -> rset t d (Int64.add (rget t a) c)
      | Inst.Andi -> fun t -> rset t d (Int64.logand (rget t a) c)
      | Inst.Ori -> fun t -> rset t d (Int64.logor (rget t a) c)
      | Inst.Xori -> fun t -> rset t d (Int64.logxor (rget t a) c)
      | Inst.Slti -> fun t -> rset t d (if rget t a < c then 1L else 0L)
      | Inst.Sltiu -> fun t -> rset t d (if ult (rget t a) c then 1L else 0L)
      | Inst.Slli ->
          let sh = imm land 63 in
          fun t -> rset t d (Int64.shift_left (rget t a) sh)
      | Inst.Srli ->
          let sh = imm land 63 in
          fun t -> rset t d (Int64.shift_right_logical (rget t a) sh)
      | Inst.Srai ->
          let sh = imm land 63 in
          fun t -> rset t d (Int64.shift_right (rget t a) sh)
      | Inst.Addiw ->
          fun t ->
            let v = (Int64.to_int (rget t a) + imm) land 0xFFFFFFFF in
            rset t d (Int64.of_int (sext32_int v))
      | Inst.Slliw ->
          let sh = imm land 31 in
          fun t ->
            let v = (Int64.to_int (rget t a) lsl sh) land 0xFFFFFFFF in
            rset t d (Int64.of_int (sext32_int v))
      | Inst.Srliw ->
          let sh = imm land 31 in
          fun t ->
            let v = (Int64.to_int (rget t a) land 0xFFFFFFFF) lsr sh in
            rset t d (Int64.of_int (sext32_int v))
      | Inst.Sraiw ->
          let sh = imm land 31 in
          fun t ->
            let v = sext32_int (Int64.to_int (rget t a) land 0xFFFFFFFF) in
            rset t d (Int64.of_int (v asr sh)))
  | Tir.Kload { width; unsigned; rd; base; off } -> (
      let d = roff rd and b = roff base in
      match (width, unsigned) with
      | Inst.D, _ ->
          fun t ->
            t.pc <- pc;
            rload64 t d t.cur.vmem (Int64.to_int (rget t b) + off)
      | Inst.W, false ->
          fun t ->
            t.pc <- pc;
            let addr = Int64.to_int (rget t b) + off in
            rset t d (Int64.of_int (sext32_int (Memory.load_u32 t.cur.vmem addr)))
      | Inst.W, true ->
          fun t ->
            t.pc <- pc;
            let addr = Int64.to_int (rget t b) + off in
            rset t d (Int64.of_int (Memory.load_u32 t.cur.vmem addr))
      | Inst.H, false ->
          fun t ->
            t.pc <- pc;
            let addr = Int64.to_int (rget t b) + off in
            rset t d (Int64.of_int (Encode.sext (Memory.load_u16 t.cur.vmem addr) 16))
      | Inst.H, true ->
          fun t ->
            t.pc <- pc;
            let addr = Int64.to_int (rget t b) + off in
            rset t d (Int64.of_int (Memory.load_u16 t.cur.vmem addr))
      | Inst.B, false ->
          fun t ->
            t.pc <- pc;
            let addr = Int64.to_int (rget t b) + off in
            rset t d (Int64.of_int (Encode.sext (Memory.load_u8 t.cur.vmem addr) 8))
      | Inst.B, true ->
          fun t ->
            t.pc <- pc;
            let addr = Int64.to_int (rget t b) + off in
            rset t d (Int64.of_int (Memory.load_u8 t.cur.vmem addr)))
  | Tir.Kloadc { width; unsigned; rd; addr } -> (
      let d = roff rd in
      match (width, unsigned) with
      | Inst.D, _ ->
          fun t ->
            t.pc <- pc;
            rload64 t d t.cur.vmem addr
      | Inst.W, false ->
          fun t ->
            t.pc <- pc;
            rset t d (Int64.of_int (sext32_int (Memory.load_u32 t.cur.vmem addr)))
      | Inst.W, true ->
          fun t ->
            t.pc <- pc;
            rset t d (Int64.of_int (Memory.load_u32 t.cur.vmem addr))
      | Inst.H, false ->
          fun t ->
            t.pc <- pc;
            rset t d (Int64.of_int (Encode.sext (Memory.load_u16 t.cur.vmem addr) 16))
      | Inst.H, true ->
          fun t ->
            t.pc <- pc;
            rset t d (Int64.of_int (Memory.load_u16 t.cur.vmem addr))
      | Inst.B, false ->
          fun t ->
            t.pc <- pc;
            rset t d (Int64.of_int (Encode.sext (Memory.load_u8 t.cur.vmem addr) 8))
      | Inst.B, true ->
          fun t ->
            t.pc <- pc;
            rset t d (Int64.of_int (Memory.load_u8 t.cur.vmem addr)))
  | Tir.Kstore { width; rs2; base; off } -> (
      let s = roff rs2 and b = roff base in
      match width with
      | Inst.D ->
          fun t ->
            t.pc <- pc;
            store64 t.cur.vmem (Int64.to_int (rget t b) + off) (rget t s)
      | Inst.W ->
          fun t ->
            t.pc <- pc;
            let addr = Int64.to_int (rget t b) + off in
            Memory.store_u32 t.cur.vmem addr (Int64.to_int (rget t s) land 0xFFFFFFFF)
      | Inst.H ->
          fun t ->
            t.pc <- pc;
            let addr = Int64.to_int (rget t b) + off in
            Memory.store_u16 t.cur.vmem addr (Int64.to_int (rget t s) land 0xFFFF)
      | Inst.B ->
          fun t ->
            t.pc <- pc;
            let addr = Int64.to_int (rget t b) + off in
            Memory.store_u8 t.cur.vmem addr (Int64.to_int (rget t s) land 0xFF))
  | Tir.Kstorec { width; rs2; addr } -> (
      let s = roff rs2 in
      match width with
      | Inst.D ->
          fun t ->
            t.pc <- pc;
            store64 t.cur.vmem addr (rget t s)
      | Inst.W ->
          fun t ->
            t.pc <- pc;
            Memory.store_u32 t.cur.vmem addr (Int64.to_int (rget t s) land 0xFFFFFFFF)
      | Inst.H ->
          fun t ->
            t.pc <- pc;
            Memory.store_u16 t.cur.vmem addr (Int64.to_int (rget t s) land 0xFFFF)
      | Inst.B ->
          fun t ->
            t.pc <- pc;
            Memory.store_u8 t.cur.vmem addr (Int64.to_int (rget t s) land 0xFF))
  | Tir.Kstorev { width; v; base; off } -> (
      let b = roff base in
      match width with
      | Inst.D ->
          fun t ->
            t.pc <- pc;
            store64 t.cur.vmem (Int64.to_int (rget t b) + off) v
      | Inst.W ->
          let vi = Int64.to_int v land 0xFFFFFFFF in
          fun t ->
            t.pc <- pc;
            Memory.store_u32 t.cur.vmem (Int64.to_int (rget t b) + off) vi
      | Inst.H ->
          let vi = Int64.to_int v land 0xFFFF in
          fun t ->
            t.pc <- pc;
            Memory.store_u16 t.cur.vmem (Int64.to_int (rget t b) + off) vi
      | Inst.B ->
          let vi = Int64.to_int v land 0xFF in
          fun t ->
            t.pc <- pc;
            Memory.store_u8 t.cur.vmem (Int64.to_int (rget t b) + off) vi)
  | Tir.Kstorecv { width; v; addr } -> (
      match width with
      | Inst.D ->
          fun t ->
            t.pc <- pc;
            store64 t.cur.vmem addr v
      | Inst.W ->
          let vi = Int64.to_int v land 0xFFFFFFFF in
          fun t ->
            t.pc <- pc;
            Memory.store_u32 t.cur.vmem addr vi
      | Inst.H ->
          let vi = Int64.to_int v land 0xFFFF in
          fun t ->
            t.pc <- pc;
            Memory.store_u16 t.cur.vmem addr vi
      | Inst.B ->
          let vi = Int64.to_int v land 0xFF in
          fun t ->
            t.pc <- pc;
            Memory.store_u8 t.cur.vmem addr vi)

(* Whether an op is the middle of a read-modify-write triple: a pure ALU of
   the form [x <- x op _]. The fused unit runs the op's own effect closure
   between the load and the store, through the register file. *)
let rmw_middle (k : Tir.kind) x =
  match k with
  | Tir.Kalu (_, rd, r1, r2) -> Reg.equal rd x && (Reg.equal r1 x || Reg.equal r2 x)
  | Tir.Kaluc (_, rd, r1, _) | Tir.Kalui (_, rd, r1, _) ->
      Reg.equal rd x && Reg.equal r1 x
  | _ -> false

(* Emit one optimized straight-line run as execution units:

   - a maximal run of pure (non-fault-capable) ops becomes ONE unit —
     sound because nothing inside it is observable (no faults, no side
     exits; a fuel split lands on unit boundaries or replays the whole
     unit through the interpreter), which is also what makes the
     dead-write kills inside it invisible. Dead ops cost nothing at run
     time (no closure at all), and runs of folded constants collapse into
     single multi-register writes;
   - [load; alu; store] to one address (the classic in-memory
     read-modify-write) becomes one self-retiring unit computing the
     address once in native arithmetic;
   - adjacent 8-byte loads (or stores) off the same base register become
     one unit performing a single TLB check when both land on one page —
     the second access reuses the first one's page bytes (see
     Memory.read_data), with a guarded fallback for page-crossing pairs.

   Retirement: pure-segment units leave crediting to the dispatch loop
   ([eself = false]); memory-pattern units retire internally at the same
   points the step engine would, so partial progress at a fault is
   bit-identical. *)
(* The unit builder below is deliberately split from the optimizer pass: a
   fresh translation runs [Tir.optimize] first ({!emit_run}), while plan
   replay ({!seed_plan}) feeds persisted post-optimize ops straight into
   [emit_units] — the builder reads only the op kinds, so re-emitting a
   recorded run reconstructs the original execution units without paying
   for the passes again. *)
let emit_units ir_units tlb_elided (ops : Tir.op array) =
  let n = Array.length ops in
  let out = ref [] and nout = ref 0 in
  let push ?fuse efn ewidth eself =
    out := { Tblock.efn; ewidth; eself } :: !out;
    incr nout;
    match fuse with
    | Some (pc, kind) when !Obs.enabled ->
        Obs.emit (Obs.Tb_fuse { pc; kind })
    | _ -> ()
  in
  let i = ref 0 in
  while !i < n do
    let o = ops.(!i) in
    if not (Tir.faultable o.Tir.k) then begin
      (* maximal pure segment [i, j) *)
      let j = ref (!i + 1) in
      while !j < n && not (Tir.faultable ops.(!j).Tir.k) do incr j done;
      let width = !j - !i in
      (* build the effect list, skipping dead ops and merging constant
         runs into single multi-register writes *)
      let effs = ref [] and neffs = ref 0 in
      let k = ref !i in
      while !k < !j do
        (match ops.(!k).Tir.k with
        | Tir.Kdead -> incr k
        | Tir.Kconst _ ->
            let c0 = !k in
            let c = ref !k in
            while
              !c < !j
              && match ops.(!c).Tir.k with Tir.Kconst _ | Tir.Kdead -> true | _ -> false
            do
              incr c
            done;
            (* collect the constants in the [c0, c) stretch, as register
               byte offsets (a [Kconst] never targets x0: {!Tir.lower}
               turns x0 writes into [Kdead]) *)
            let rds = ref [] and vals = ref [] and nc = ref 0 in
            for x = c0 to !c - 1 do
              match ops.(x).Tir.k with
              | Tir.Kconst (rd, v) ->
                  rds := roff rd :: !rds;
                  vals := v :: !vals;
                  incr nc
              | _ -> ()
            done;
            (match (!rds, !vals) with
            | [ r1 ], [ v1 ] ->
                effs := (fun t -> reg_store t.xregs r1 v1) :: !effs
            | [ r2; r1 ], [ v2; v1 ] ->
                effs :=
                  (fun t ->
                    reg_store t.xregs r1 v1;
                    reg_store t.xregs r2 v2)
                  :: !effs
            | _ ->
                let rds = Array.of_list (List.rev !rds) in
                let vals = Array.of_list (List.rev !vals) in
                let m = Array.length rds in
                effs :=
                  (fun t ->
                    for x = 0 to m - 1 do
                      reg_store t.xregs (Array.unsafe_get rds x)
                        (Array.unsafe_get vals x)
                    done)
                  :: !effs);
            if !nc > 0 then incr neffs;
            k := !c
        | _ ->
            effs := emit_effect ops.(!k) :: !effs;
            incr neffs;
            incr k)
      done;
      let efn =
        match !effs with
        | [] -> fun _ -> ()
        | [ f ] -> f
        | [ f2; f1 ] ->
            fun t ->
              f1 t;
              f2 t
        | l ->
            let fs = Array.of_list (List.rev l) in
            let m = Array.length fs in
            fun t ->
              for x = 0 to m - 1 do
                (Array.unsafe_get fs x) t
              done
      in
      push ?fuse:(if width > 1 then Some (o.Tir.opc, "pure_run") else None) efn width false;
      i := !j
    end
    else begin
      (* fault-capable op: try the memory patterns *)
      let consumed = ref 0 in
      (match o.Tir.k with
      | Tir.Kload { width = (Inst.D | Inst.W) as w; unsigned = false; rd = x; base = b; off }
        when !i + 2 < n && Reg.to_int x <> 0 && not (Reg.equal x b) -> (
          (* load; alu; store back to the same slot *)
          match ops.(!i + 2).Tir.k with
          | Tir.Kstore { width = w2; rs2; base = b2; off = off2 }
            when rmw_middle ops.(!i + 1).Tir.k x
                 && w2 = w && Reg.equal rs2 x && Reg.equal b2 b && off2 = off ->
              let pc1 = o.Tir.opc and pc3 = ops.(!i + 2).Tir.opc in
              let mid = emit_effect ops.(!i + 1) in
              let xo = roff x and bo = roff b in
              let efn =
                match w with
                | Inst.D ->
                    fun t ->
                      t.pc <- pc1;
                      let m = t.cur.vmem in
                      let a = Int64.to_int (rget t bo) + off in
                      rload64 t xo m a;
                      mid t;
                      t.retired <- t.retired + 2;
                      t.pc <- pc3;
                      store64 m a (rget t xo);
                      t.retired <- t.retired + 1
                | _ ->
                    fun t ->
                      t.pc <- pc1;
                      let m = t.cur.vmem in
                      let a = Int64.to_int (rget t bo) + off in
                      rset t xo (Int64.of_int (sext32_int (Memory.load_u32 m a)));
                      mid t;
                      t.retired <- t.retired + 2;
                      t.pc <- pc3;
                      Memory.store_u32 m a (Int64.to_int (rget t xo) land 0xFFFFFFFF);
                      t.retired <- t.retired + 1
              in
              push ~fuse:(pc1, "rmw") efn 3 true;
              consumed := 3
          | _ -> ())
      | _ -> ());
      if !consumed = 0 then begin
        match (o.Tir.k, if !i + 1 < n then Some ops.(!i + 1).Tir.k else None) with
        | ( Tir.Kload { width = Inst.D; rd = r1; base = b; off = o1; _ },
            Some (Tir.Kload { width = Inst.D; rd = r2; base = b2; off = o2; _ }) )
          when Reg.equal b b2 && not (Reg.equal r1 b) ->
            (* paired 8-byte loads off one base: one TLB check when both
               land on the same page *)
            let pc1 = o.Tir.opc and pc2 = ops.(!i + 1).Tir.opc in
            let d = o2 - o1 in
            let r1 = roff r1 and r2 = roff r2 and b = roff b in
            let efn t =
              t.pc <- pc1;
              let m = t.cur.vmem in
              let a1 = Int64.to_int (rget t b) + o1 in
              let off1 = a1 land page_mask in
              let off2 = off1 + d in
              if off1 + 8 <= Memory.page_size && off2 >= 0 && off2 + 8 <= Memory.page_size
              then begin
                let pg = Memory.read_data m a1 in
                rset t r1 (Bytes.get_int64_le pg off1);
                rset t r2 (Bytes.get_int64_le pg off2);
                t.retired <- t.retired + 2
              end
              else begin
                rload64 t r1 m a1;
                t.retired <- t.retired + 1;
                t.pc <- pc2;
                rload64 t r2 m (Int64.to_int (rget t b) + o2);
                t.retired <- t.retired + 1
              end
            in
            push ~fuse:(pc1, "ld_pair") efn 2 true;
            incr tlb_elided;
            consumed := 2
        | ( Tir.Kstore { width = Inst.D; rs2 = r1; base = b; off = o1 },
            Some (Tir.Kstore { width = Inst.D; rs2 = r2; base = b2; off = o2 }) )
          when Reg.equal b b2 ->
            let pc1 = o.Tir.opc and pc2 = ops.(!i + 1).Tir.opc in
            let d = o2 - o1 in
            let r1 = roff r1 and r2 = roff r2 and b = roff b in
            let efn t =
              t.pc <- pc1;
              let m = t.cur.vmem in
              let a1 = Int64.to_int (rget t b) + o1 in
              let off1 = a1 land page_mask in
              let off2 = off1 + d in
              if off1 + 8 <= Memory.page_size && off2 >= 0 && off2 + 8 <= Memory.page_size
              then begin
                let pg = Memory.write_data m a1 in
                Bytes.set_int64_le pg off1 (rget t r1);
                Bytes.set_int64_le pg off2 (rget t r2);
                t.retired <- t.retired + 2
              end
              else begin
                store64 m a1 (rget t r1);
                t.retired <- t.retired + 1;
                t.pc <- pc2;
                store64 m (Int64.to_int (rget t b) + o2) (rget t r2);
                t.retired <- t.retired + 1
              end
            in
            push ~fuse:(pc1, "st_pair") efn 2 true;
            incr tlb_elided;
            consumed := 2
        | _ ->
            push (emit_effect o) 1 false;
            consumed := 1
      end;
      i := !i + !consumed
    end
  done;
  ir_units := !ir_units + !nout;
  List.rev !out

let emit_run t stats ir_units tlb_elided (ops : Tir.op array) =
  Tir.optimize t.ir_state stats ops;
  emit_units ir_units tlb_elided ops

(* The unoptimized emitter: one auto-retired unit per op — no passes, no
   constant merging, no fusion — so fuel splits never cut a unit and the
   icache loop can charge each unit's fetch before running it. *)
let emit_plain (ops : Tir.op array) =
  Array.fold_right
    (fun o acc -> { Tblock.efn = emit_effect o; ewidth = 1; eself = false } :: acc)
    ops []

(* An instruction this hart cannot execute falls through to [compile_op],
   which stops the block so the slow path raises the precise fault. *)
let lower_op t ~pc inst size =
  if Ext.supports t.isa inst then Tir.lower ~pc inst size else None

(* The block shape a translation at [tier] compiles under config [c]:
   [sb], superblock formation, from tier 2 on a superblock engine; [opt],
   the IR passes ({!emit_run} rather than {!emit_plain}), at tier 3 with
   the IR on and no icache model (per-fetch accounting needs one unit per
   instruction). [tier_of] labels the shape actually compiled, so an
   untiered --engine block machine records its IR-optimized straight-line
   blocks as tier 3. *)
let shape c tier =
  (tier >= 2 && c.engine = Superblock, tier >= 3 && c.ir && c.icache = None)

let tier_of (sb, opt) = if opt then 3 else if sb then 2 else 1

(* The highest tier a block can climb to. [validate] guarantees that a
   tiered machine forms superblocks, so each promotion below the cap
   changes the compiled shape (tier 1 -> 2 adds superblocks, 2 -> 3 the
   IR passes) and never retranslates into the shape it already has. *)
let tier_cap c = tier_of (shape c 3)

let translate_block ?(tier = 3) ?(relayout = []) t entry =
  let t0 = Unix.gettimeofday () in
  let stats = Tir.stats_create () in
  let ir_units = ref 0 and tlb_elided = ref 0 in
  let steps = ref [] in
  Tir.state_reset t.ir_state;
  let ((sb, optimized) as sh) = shape t.cfg tier in
  let b =
    Tblock.translate ~gens:t.gens ~epoch:t.code_epoch ~isa:t.isa
      ~decode:(fun pc ->
        match decode_at t pc with
        | d -> Some d
        | exception Efault _ -> None
        | exception Memory.Violation _ -> None)
      ~lower:(fun ~pc inst size ->
        let r = lower_op t ~pc inst size in
        (* record the lower/compile decision positionally: the op records
           pushed here are the very ones the closures capture, so by
           export time their [k] fields hold the post-optimize kinds;
           unoptimized ops are re-lowered at replay instead *)
        if t.rec_on then
          steps :=
            (match r with
            | Some op when optimized -> Slower op
            | Some _ | None -> Scompile)
            :: !steps;
        r)
      ~compile:(fun ~pc inst size ->
        let c = compile_op t ~sb ~relayout ~pc inst size in
        (* maintain the translation-time register state across non-IR
           units: an inlined jal writes a known link value, interpreter
           and vector units have unknown register effects, inlined
           branches and jumps write nothing *)
        (match c with
        | Tblock.Jump _ -> (
            match inst with
            | Inst.Jal (rd, _) ->
                Tir.state_learn t.ir_state rd (Int64.of_int (pc + size))
            | _ -> ())
        | Tblock.Op_self _ -> Tir.state_clobber t.ir_state
        | Tblock.Brcond _ | Tblock.Term | Tblock.Term_fn _ | Tblock.Stop -> ());
        c)
      ~emit:
        (if optimized then emit_run t stats ir_units tlb_elided else emit_plain)
      entry
  in
  Tblock.set_tier b ~tier:(tier_of sh) ~relaid:(relayout <> []);
  if t.rec_on then
    Hashtbl.replace t.cur.skels entry
      { sk_steps = Array.of_list (List.rev !steps); sk_relayout = relayout };
  t.fused_pairs <- t.fused_pairs + b.Tblock.n_fused;
  if !ir_units > 0 then begin
    t.ir_blocks <- t.ir_blocks + 1;
    t.ir_units <- t.ir_units + !ir_units;
    t.ir_folded <- t.ir_folded + stats.Tir.s_folded;
    t.ir_dead <- t.ir_dead + stats.Tir.s_dead;
    t.ir_pc_elided <- t.ir_pc_elided + stats.Tir.s_pc_elided;
    t.ir_tlb_elided <- t.ir_tlb_elided + !tlb_elided;
    t.ir_cached <- t.ir_cached + stats.Tir.s_cached;
    if !Obs.enabled then
      Obs.emit
        (Obs.Tb_ir
           { entry;
             units = !ir_units;
             folded = stats.Tir.s_folded;
             dead = stats.Tir.s_dead;
             pc_elided = stats.Tir.s_pc_elided;
             tlb_elided = !tlb_elided;
             cached = stats.Tir.s_cached })
  end;
  t.translations <- t.translations + 1;
  Metrics.observe m_translate_ns
    (int_of_float ((Unix.gettimeofday () -. t0) *. 1e9));
  b

let publish_block t entry b =
  Hashtbl.replace t.cur.blocks entry b;
  if !Obs.enabled then begin
    Obs.emit (Obs.Tb_compile { entry; body = Tblock.body_length b });
    Obs.emit
      (Obs.Tb_superblock
         { entry;
           insts = Tblock.body_length b;
           pages = Array.length b.Tblock.pages;
           jumps = b.Tblock.n_jumps;
           exits = b.Tblock.n_branches;
           fused = b.Tblock.n_fused })
  end

(* Block-table probe at the current pc. [None] means the entry is still
   below the first tier threshold on a tiered machine: the caller must
   interpret one instruction instead of dispatching a block. Untiered
   machines translate on first touch at the top tier their config allows,
   exactly the PR6 behavior. [tiered] is the caller's hoisted
   [t.cfg.tiered]. *)
let block_or_cold ~tiered t =
  match Hashtbl.find_opt t.cur.blocks t.pc with
  | Some b as hit when Tblock.revalidate t.gens ~isa:t.isa ~epoch:t.code_epoch b ->
      if !Obs.enabled then
        Obs.emit (Obs.Tb_hit { entry = t.pc; body = Tblock.body_length b });
      hit
  | Some _ | None ->
      if not tiered then begin
        let b = translate_block t t.pc in
        publish_block t t.pc b;
        Some b
      end
      else begin
        let h =
          match Hashtbl.find_opt t.cur.heat t.pc with
          | Some r ->
              incr r;
              !r
          | None ->
              Hashtbl.add t.cur.heat t.pc (ref 1);
              1
        in
        if h < tier1_heat then None
        else begin
          Hashtbl.remove t.cur.heat t.pc;
          let b = translate_block ~tier:1 t t.pc in
          publish_block t t.pc b;
          Some b
        end
      end

(* Derive the recompile plan from a block's observed exit profile: for
   each inlined branch, the conditional taken rate is its side-exit count
   over the dispatches that actually reached it (dispatches minus the
   exits taken earlier in the block). Branches that contradict BTFN get
   cut (terminator) or, when lopsided enough, flipped (trace layout). *)
let relayout_plan b =
  let x = b.Tblock.xexits in
  if b.Tblock.hot <= 0 || Array.length x = 0 then []
  else begin
    let plan = ref [] in
    let reached = ref b.Tblock.hot in
    for u = 0 to Array.length x - 1 do
      let e = Array.unsafe_get x u in
      (* a superblock can wrap a loop and decode the same branch several
         times; late occurrences see only the few dispatches that survived
         every earlier exit, so their rates are noise. Keep the first
         (best-sampled) occurrence of each pc and ignore units whose
         sample is below the floor. *)
      if e > 0 && !reached >= relayout_min_sample then begin
        let rate = float_of_int e /. float_of_int !reached in
        if rate >= relayout_cut_rate then begin
          let ipc = b.Tblock.pcs.(b.Tblock.starts.(u)) in
          if not (List.mem_assoc ipc !plan) then
            plan := (ipc, rate >= relayout_flip_rate) :: !plan
        end
      end;
      reached := !reached - e
    done;
    List.rev !plan
  end

(* Replace a block with a higher-tier (or profile-relaid) translation of
   the same entry. The old block is retired — its epoch check can never
   pass again — and dropped from the table, so every chain link and
   inline-cache entry into it fails its guard on the next follow and
   re-resolves to the replacement. No global epoch bump: unrelated links
   stay intact. *)
let replace_block t b ~tier ~relayout =
  let entry = b.Tblock.entry in
  Tblock.retire b;
  Hashtbl.remove t.cur.blocks entry;
  let nb = translate_block ~tier ~relayout t entry in
  publish_block t entry nb;
  nb

(* Hotness driver, run once per dispatch on tiered machines. A block below
   the machine's tier cap climbs one tier when its dispatch count crosses
   the next threshold (a tier-2 block's observed exit profile rides along
   into the tier-3 translation); a top-tier block that keeps side-exiting
   gets one profile-guided recompile. Both paths replace the block, so
   the counter restarts and the next check measures the new layout.
   [cap] is the caller's hoisted [tier_cap t.cfg]. *)
let maybe_promote t ~cap b =
  let hot = Tblock.tick_hot b in
  let tier = b.Tblock.tier in
  if tier < cap && hot >= (if tier = 1 then tier2_hot else tier3_hot) then begin
    let relayout = if tier >= 2 then relayout_plan b else [] in
    let exits = Tblock.exits_total b in
    let nb = replace_block t b ~tier:(tier + 1) ~relayout in
    t.tier_promotions <- t.tier_promotions + 1;
    if relayout <> [] then t.recompiles <- t.recompiles + 1;
    if !Obs.enabled then begin
      Obs.emit
        (Obs.Tier_promote
           { entry = nb.Tblock.entry; tier = nb.Tblock.tier; hot });
      if relayout <> [] then
        Obs.emit
          (Obs.Tb_recompile
             { entry = nb.Tblock.entry;
               hot;
               exits;
               relaid = List.length relayout })
    end;
    nb
  end
  else if
    tier >= 2 && (not b.Tblock.relaid)
    && hot >= recompile_hot
    && b.Tblock.n_branches > 0
  then begin
    match relayout_plan b with
    | [] ->
        (* the observed profile agrees with the static layout: mark the
           block checked so the scan never runs again *)
        Tblock.set_tier b ~tier ~relaid:true;
        b
    | plan ->
        let exits = Tblock.exits_total b in
        let nb = replace_block t b ~tier ~relayout:plan in
        t.recompiles <- t.recompiles + 1;
        if !Obs.enabled then
          Obs.emit
            (Obs.Tb_recompile
               { entry = nb.Tblock.entry;
                 hot;
                 exits;
                 relaid = List.length plan });
        nb
  end
  else b

(* Train an inline-cache site after a miss resolved [pc] to [nb]. A miss
   on the predicted target (stale block: SMC, tier promotion) re-binds the
   monomorphic slot in place; a genuinely new target demotes the old
   binding into the polymorphic table (shedding entries that died under
   it) until the table overflows and the site goes megamorphic. *)
let ic_train t s pc nb =
  match s.site_tb with
  | None ->
      s.site_tb <- Some nb;
      s.site_target <- pc
  | Some _ when s.site_target = pc -> s.site_tb <- Some nb
  | Some ob ->
      let keep = ref [] and nkeep = ref 0 in
      Array.iter
        (fun ((p, b) as e) ->
          if
            p <> pc
            && p <> s.site_target
            && Tblock.epoch_current b t.code_epoch
          then begin
            keep := e :: !keep;
            incr nkeep
          end)
        s.site_poly;
      if Tblock.epoch_current ob t.code_epoch then begin
        keep := (s.site_target, ob) :: !keep;
        incr nkeep
      end;
      if !nkeep >= ic_poly_limit then begin
        s.site_mega <- true;
        s.site_tb <- None;
        s.site_target <- -1;
        s.site_poly <- [||];
        if !Obs.enabled then
          Obs.emit (Obs.Ic_mega { site = s.site_pc; targets = !nkeep + 1 })
      end
      else begin
        s.site_poly <- Array.of_list !keep;
        s.site_tb <- Some nb;
        s.site_target <- pc
      end

(* Inline-cache dispatch: the previous dispatch completed through an
   indirect terminator that published its site. Counting discipline: a
   prediction served by the monomorphic slot or the polymorphic table is
   an IC hit and a chain hit (the dispatch skipped the block table exactly
   like a link follow); a fall-through to the block table is an IC miss
   and trains the site; a dispatch through a megamorphic site is counted
   separately — the site has stopped predicting, so it is neither. *)
let ic_dispatch ~tiered t s pc =
  match s.site_tb with
  | Some nb as hit when s.site_target = pc && Tblock.epoch_current nb t.code_epoch ->
      s.site_hits <- s.site_hits + 1;
      t.ic_hits <- t.ic_hits + 1;
      t.chain_hits <- t.chain_hits + 1;
      if !Obs.enabled then
        Obs.emit (Obs.Ic_hit { site = s.site_pc; target = pc });
      hit
  | _ -> (
      let poly =
        if s.site_mega then None
        else begin
          let a = s.site_poly in
          let n = Array.length a in
          let rec go i =
            if i >= n then None
            else
              let p, b = Array.unsafe_get a i in
              if p = pc && Tblock.epoch_current b t.code_epoch then Some b
              else go (i + 1)
          in
          go 0
        end
      in
      match poly with
      | Some nb ->
          s.site_hits <- s.site_hits + 1;
          t.ic_hits <- t.ic_hits + 1;
          t.chain_hits <- t.chain_hits + 1;
          if !Obs.enabled then
            Obs.emit (Obs.Ic_hit { site = s.site_pc; target = pc });
          Some nb
      | None ->
          if s.site_mega then begin
            t.ic_mega_d <- t.ic_mega_d + 1;
            block_or_cold ~tiered t
          end
          else (
            match block_or_cold ~tiered t with
            | None -> None  (* entry still interpreted: nothing to cache *)
            | Some nb ->
                s.site_misses <- s.site_misses + 1;
                t.ic_misses <- t.ic_misses + 1;
                if !Obs.enabled then
                  Obs.emit (Obs.Ic_miss { site = s.site_pc; target = pc });
                ic_train t s pc nb;
                Some nb))

(* ------------------------------------------------------------------ *)
(* Run loops                                                           *)
(* ------------------------------------------------------------------ *)

let run_step ~handlers ~fuel t =
  let remaining = ref fuel in
  let result = ref None in
  while !result = None && !remaining > 0 do
    (match step ~handlers t with Some s -> result := Some s | None -> ());
    decr remaining
  done;
  match !result with Some s -> s | None -> Fuel_exhausted

(* Block-cached fast path: execute whole straight-line bodies between
   handler-visible events. Accounting (retired, cycles, icache) is done per
   instruction with the same ordering as [step], so both engines are
   observably identical — including mid-block faults, where the faulting
   instruction has consumed its fuel but not retired, and fuel exhaustion
   mid-block.

   Hot transfers are direct-chained: when a block completes normally, the
   next dispatch first tries the finished block's successor link (fall
   slot when the new pc is the fall-through, taken slot otherwise) and only
   falls back to the block-table probe — overwriting the link — when the
   guard fails. The guard is entry-pc equality, the one-compare epoch check,
   and same-view identity (a handler may have switched views mid-run, and
   links never cross views), so a chain hit proves exactly what a
   revalidated table hit proves. *)
let run_blocks ~handlers ~fuel t =
  let remaining = ref fuel in
  let result = ref None in
  let apply = function Resume pc -> t.pc <- pc | Stop s -> result := Some s in
  (* block that just completed normally, and the view it ran in; cleared on
     any other path so faults/handler redirects re-enter through the table.
     The option is the one the lookup returned, so chaining allocates
     nothing per dispatch. *)
  let prev = ref None and prev_v = ref t.cur in
  (* the configuration is fixed for the run: read it once, not per
     dispatch *)
  let tiered = t.cfg.tiered and cap = tier_cap t.cfg and icache = t.icache in
  while !result = None && !remaining > 0 do
    (* an indirect terminator publishes its inline-cache site as it
       completes; consume it here (or drop it, if this dispatch is not a
       straight continuation — faults and handler redirects must not
       train a site with a pc it did not produce) *)
    let pic = t.pending_ic in
    if pic != None then t.pending_ic <- None;
    let bo =
      match !prev with
      | Some pb when !prev_v == t.cur -> (
          let pc = t.pc in
          match pic with
          | Some s -> ic_dispatch ~tiered t s pc
          | None -> (
              let to_fall = pc = pb.Tblock.fall in
              match
                (if to_fall then pb.Tblock.link_fall else pb.Tblock.link_taken)
              with
              | Some nb as link
                when nb.Tblock.entry = pc
                     && Tblock.epoch_current nb t.code_epoch ->
                  t.chain_hits <- t.chain_hits + 1;
                  if !Obs.enabled then
                    Obs.emit
                      (Obs.Tb_hit { entry = pc; body = Tblock.body_length nb });
                  link
              | _ -> (
                  match block_or_cold ~tiered t with
                  | Some nb ->
                      if to_fall then Tblock.set_link_fall pb nb
                      else Tblock.set_link_taken pb nb;
                      if !Obs.enabled then
                        Obs.emit
                          (Obs.Tb_chain { src = pb.Tblock.entry; dst = pc });
                      Some nb
                  | None -> None)))
      | _ -> block_or_cold ~tiered t
    in
    let v0 = t.cur in
    prev := None;
    match bo with
    | None ->
        (* tier 0: the entry is still below the first tier threshold —
           interpret one instruction. Not a block dispatch (the
           translated-code rates keep honest denominators) and no chain
           links are formed across the interpreted gap. *)
        (match step ~handlers t with Some s -> result := Some s | None -> ());
        decr remaining
    | Some b0 ->
    let b = if tiered then maybe_promote t ~cap b0 else b0 in
    let bo = if b == b0 then bo else Some b in
    t.tb_dispatches <- t.tb_dispatches + 1;
    if Tblock.degenerate b then begin
      (* illegal, unsupported, or unmapped entry: the slow path raises the
         precise fault and routes it to the handlers *)
      (match step ~handlers t with Some s -> result := Some s | None -> ());
      decr remaining
    end
    else begin
      (* Profiling bracket: bind (or reuse) the block's cached row, mark it
         as the enclosing block for runtime-event attribution, and snapshot
         the counters the dispatch window will be charged against. All of
         it is skipped with one match when no profile is attached. *)
      let prow =
        match t.prof with
        | None -> None
        | Some p ->
            (* Reuse the option cached on the block: the steady-state
               profiled dispatch allocates nothing. *)
            let o =
              match b.Tblock.prow with
              | Some r as o
                when Profile.row_live p r
                     && Profile.row_describes r ~classes:b.Tblock.classes
                          ~term:b.Tblock.term_class ->
                  o
              | _ ->
                  let o =
                    Some
                      (Profile.bind p ~entry:b.Tblock.entry
                         ~classes:b.Tblock.classes ~term:b.Tblock.term_class)
                  in
                  Tblock.set_prow b o;
                  o
            in
            Profile.begin_dispatch p o;
            o
      in
      (* Body instructions retired are recovered from the retired-counter
         delta (every unit closure retires per covered instruction), so r0
         is snapshotted even without a profile — it is the fuel
         accountant. *)
      let r0 = t.retired in
      let c0 = if prow == None then 0 else cycles t in
      let mem0 = t.cur.vmem in
      let tlb0 = if prow == None then 0 else Memory.tlb_misses_live mem0 in
      let ic0 = if prow == None then 0 else icache_misses t in
      let ops = b.Tblock.ops in
      let nunits = Array.length ops in
      let starts = b.Tblock.starts in
      let ninsts = Array.unsafe_get starts nunits in
      let full = ninsts <= !remaining in
      let ulimit =
        if full then nunits
        else begin
          (* largest unit prefix whose instruction count fits the fuel; a
             fused unit cut in half by the limit is finished below via the
             slow path *)
          let m = ref 0 in
          while !m < nunits && Array.unsafe_get starts (!m + 1) <= !remaining do
            incr m
          done;
          !m
        end
      in
      let side = ref false in
      (* [u] survives the exception handlers: on a raise it holds the
         raising unit's index, on normal completion it equals [ulimit] —
         exactly the units whose auto-retired instructions must be
         credited below *)
      let u = ref 0 in
      let fault =
        try
          (match icache with
          | None ->
              while !u < ulimit do
                (Array.unsafe_get ops !u) t;
                incr u
              done
          | Some ic ->
              let pcs = b.Tblock.pcs and sizes = b.Tblock.sizes in
              let miss = t.costs.Costs.icache_miss in
              while !u < ulimit do
                let i = !u in
                (* no unit wider than one instruction runs under the model
                   (it caps translation below the optimizing tier), so each
                   unit's fetch is touched here, in step-engine order *)
                let s = Array.unsafe_get starts i in
                let ipc = Array.unsafe_get pcs s
                and sz = Array.unsafe_get sizes s in
                if not (Icache.access ic ipc) then t.cycles_extra <- t.cycles_extra + miss;
                if not (Icache.access ic (ipc + sz - 1)) then
                  t.cycles_extra <- t.cycles_extra + miss;
                (Array.unsafe_get ops i) t;
                incr u
              done);
          None
        with
        | Side_exit ->
            side := true;
            None
        | Efault f -> Some f
        | Memory.Violation { addr; access } ->
            Some (Fault.Segfault { pc = t.pc; addr; access })
      in
      (* bulk-credit the completed units' auto-retired instructions: a
         raising unit (fault or side exit) is not in [0, u) and so only
         contributes whatever its closure retired itself *)
      t.retired <- t.retired + Array.unsafe_get b.Tblock.auto !u;
      let body_retired = t.retired - r0 in
      let term_tried = ref false in
      (match fault with
      | Some f ->
          (* the faulting instruction consumed fuel but did not retire *)
          remaining := !remaining - body_retired - 1;
          Metrics.incr m_faults_raised;
          if !Obs.enabled then
            Obs.emit
              (Obs.Fault_raised { pc = Fault.pc f; cause = Fault.cause_name f });
          apply (handlers.on_fault t f)
      | None ->
          remaining := !remaining - body_retired;
          if !side then begin
            (* taken inlined branch: a normal completion — pc is already at
               the taken target, so the next iteration chains through the
               taken slot *)
            t.side_exits <- t.side_exits + 1;
            (* the raising unit's index is the observed exit profile that
               profile-guided recompilation reads *)
            if tiered then Tblock.note_exit b !u;
            if !Obs.enabled then
              Obs.emit
                (Obs.Tb_side_exit { entry = b.Tblock.entry; target = t.pc });
            prev := bo;
            prev_v := v0
          end
          else if full then (
            (* closures write pc lazily (only fault-capable ones set their
               own); re-synchronize here — the terminator's pc, or the
               block's fall-through when there is none *)
            match b.Tblock.term with
            | Some (inst, size) when !remaining > 0 -> (
                match b.Tblock.term_fn with
                | Some f when icache = None ->
                    (* event-free terminator: the closure sets the final pc
                       and retires — no interpreter round trip (with the
                       icache on, fall through so fetch charges apply) *)
                    f t;
                    decr remaining;
                    prev := bo;
                    prev_v := v0
                | _ ->
                    t.pc <- b.Tblock.fall - size;
                    term_tried := true;
                    (match step_decoded ~handlers t inst size with
                    | Some s -> result := Some s
                    | None ->
                        prev := bo;
                        prev_v := v0);
                    decr remaining)
            | Some (_, size) -> t.pc <- b.Tblock.fall - size
            | None ->
                t.pc <- b.Tblock.fall;
                prev := bo;
                prev_v := v0)
          else
            (* fuel-limited prefix: resume at the first unexecuted
               instruction *)
            t.pc <-
              Array.unsafe_get b.Tblock.pcs (Array.unsafe_get starts ulimit));
      (* Account the dispatch after the handlers ran: their cycle charges
         and runtime events belong to this block's window. *)
      (match (t.prof, prow) with
      | Some p, Some row ->
          let dretired = t.retired - r0 in
          (* an attempted terminator that did not retire can only have
             faulted — count it like the step engine does *)
          let faulted =
            Option.is_some fault || (!term_tried && dretired = body_retired)
          in
          Profile.block_dispatch p row ~executed:body_retired ~retired:dretired
            ~cycles:(cycles t - c0)
            ~tlb:(Memory.tlb_misses_live mem0 - tlb0)
            ~icache:(icache_misses t - ic0) ~fault:faulted ~target:t.pc
      | _ -> ());
      (* A multi-instruction unit split by the fuel limit leaves up to
         [width - 1] units of fuel unspent on this block; burn them through
         the slow path so fuel semantics stay bit-identical to the step
         engine. (Accounted after the block window: [step] attributes
         itself.) *)
      if fault = None && (not !side) && not full then
        while !result = None && !remaining > 0 && t.retired - r0 < ninsts do
          (match step ~handlers t with Some s -> result := Some s | None -> ());
          decr remaining
        done
    end
  done;
  match !result with Some s -> s | None -> Fuel_exhausted

(* Fold the per-machine counters into the registry and zero them. Called
   once per [run] and after a plan replay. *)
let flush_run_stats t =
  Metrics.add m_dispatches t.tb_dispatches;
  Metrics.add m_chain_hits t.chain_hits;
  Metrics.add m_side_exits t.side_exits;
  Metrics.add m_fused t.fused_pairs;
  Metrics.add m_ic_hits t.ic_hits;
  Metrics.add m_ic_misses t.ic_misses;
  Metrics.add m_ic_mega t.ic_mega_d;
  Metrics.add m_tier_promotions t.tier_promotions;
  Metrics.add m_recompiles t.recompiles;
  Metrics.add m_translations t.translations;
  Metrics.add m_ir_blocks t.ir_blocks;
  Metrics.add m_ir_units t.ir_units;
  Metrics.add m_ir_folded t.ir_folded;
  Metrics.add m_ir_dead t.ir_dead;
  Metrics.add m_ir_pc_elided t.ir_pc_elided;
  Metrics.add m_ir_tlb_elided t.ir_tlb_elided;
  Metrics.add m_ir_cached t.ir_cached;
  t.tb_dispatches <- 0;
  t.chain_hits <- 0;
  t.side_exits <- 0;
  t.fused_pairs <- 0;
  t.ic_hits <- 0;
  t.ic_misses <- 0;
  t.ic_mega_d <- 0;
  t.tier_promotions <- 0;
  t.recompiles <- 0;
  t.translations <- 0;
  t.ir_blocks <- 0;
  t.ir_units <- 0;
  t.ir_folded <- 0;
  t.ir_dead <- 0;
  t.ir_pc_elided <- 0;
  t.ir_tlb_elided <- 0;
  t.ir_cached <- 0;
  List.iter (fun v -> Memory.flush_tlb_stats v.vmem) t.views

let run ?(handlers = default_handlers) ~fuel t =
  let r0 = t.retired in
  let s =
    match t.cfg.engine with
    | Step -> run_step ~handlers ~fuel t
    | Block | Superblock -> run_blocks ~handlers ~fuel t
  in
  Metrics.add m_retired (t.retired - r0);
  flush_run_stats t;
  s

(* Registry views kept for perfbench, which reads them once per pass. *)
let observed_retired () =
  Metrics.Snapshot.(counter_value (take ())) "chimera_retired_total"

let observed_chain () =
  let v = Metrics.Snapshot.(counter_value (take ())) in
  (v "chimera_chain_hits_total", v "chimera_dispatches_total")

let observed_superblock () =
  let v = Metrics.Snapshot.(counter_value (take ())) in
  (v "chimera_side_exits_total", v "chimera_fused_total")

let observed_ic () =
  let v = Metrics.Snapshot.(counter_value (take ())) in
  ( v "chimera_ic_hits_total",
    v "chimera_ic_misses_total",
    v "chimera_ic_mega_dispatches_total" )

let observed_translate () =
  let snap = Metrics.Snapshot.take () in
  let ns =
    match Metrics.Snapshot.histogram_value snap "chimera_translate_ns" with
    | Some h -> h.Metrics.Snapshot.h_sum
    | None -> 0
  in
  ( float_of_int ns *. 1e-9,
    Metrics.Snapshot.counter_value snap "chimera_translations_total" )

(* Replace the configuration of a live machine (the perfbench setters
   below). Translated blocks, heat counters and inline-cache sites embed
   the old configuration, so a change drops them all and bumps the code
   epoch: every later dispatch sees freshly translated code. *)
let reconfigure t c =
  if c <> t.cfg then begin
    validate c;
    if c.icache <> t.cfg.icache then t.icache <- icache_model c.icache;
    t.cfg <- c;
    List.iter
      (fun v ->
        Hashtbl.reset v.blocks;
        Hashtbl.reset v.heat;
        Hashtbl.reset v.ics)
      t.views;
    t.pending_ic <- None;
    t.code_epoch <- t.code_epoch + 1
  end

let set_block_engine t on =
  reconfigure t { t.cfg with engine = (if on then Superblock else Step) }

let set_superblocks t on =
  reconfigure t { t.cfg with engine = (if on then Superblock else Block) }

let set_ir t on = reconfigure t { t.cfg with ir = on }
let set_tiered t on = reconfigure t { t.cfg with tiered = on }
let set_inline_caches t on = reconfigure t { t.cfg with inline_caches = on }

(* ------------------------------------------------------------------ *)
(* Tier / inline-cache introspection (profile report, CLI)             *)
(* ------------------------------------------------------------------ *)

type block_info = {
  bi_entry : int;
  bi_tier : int;
  bi_relaid : bool;
  bi_hot : int;
  bi_exits : int;
}

let block_infos t =
  Hashtbl.fold
    (fun entry b acc ->
      { bi_entry = entry;
        bi_tier = b.Tblock.tier;
        bi_relaid = b.Tblock.relaid;
        bi_hot = b.Tblock.hot;
        bi_exits = Tblock.exits_total b }
      :: acc)
    t.cur.blocks []

type ic_info = {
  ici_site : int;
  ici_state : [ `Empty | `Mono | `Poly | `Mega ];
  ici_targets : int;
  ici_hits : int;
  ici_misses : int;
}

let ic_infos t =
  Hashtbl.fold
    (fun site s acc ->
      let state, targets =
        if s.site_mega then (`Mega, 0)
        else
          match (s.site_tb, Array.length s.site_poly) with
          | None, 0 -> (`Empty, 0)
          | Some _, 0 -> (`Mono, 1)
          | mono, n -> (`Poly, n + if mono = None then 0 else 1)
      in
      { ici_site = site;
        ici_state = state;
        ici_targets = targets;
        ici_hits = s.site_hits;
        ici_misses = s.site_misses }
      :: acc)
    t.cur.ics []

(* ------------------------------------------------------------------ *)
(* Persistent translation plans                                        *)
(* ------------------------------------------------------------------ *)

(* A plan is the marshalable residue of a recording machine's current view:
   the decode cache in pre-closure form, every live block's replay skeleton
   with its tier/layout/heat, the interpreter heat of still-untranslated
   entries, and the live inline-cache targets. It deliberately contains no
   closures and no stamps — stamps are recomputed against the seeding
   machine's generation table, which is sound because the cache layer only
   offers a plan to a machine whose guest code bytes hash to the digest the
   plan was stored under. *)
type plan = {
  pl_config : config;
  pl_insts : (int * Inst.t * int) array;
  pl_blocks : plan_block array;
  pl_heat : (int * int) array;
  pl_ics : (int * int list) array;
}

and plan_block = {
  pb_entry : int;
  pb_tier : int;
  pb_relaid : bool;
  pb_hot : int;
  pb_skel : skel;
}

let set_record t on = t.rec_on <- on

let export_plan t =
  let insts =
    Hashtbl.fold
      (fun pc e acc ->
        match e with
        | Cok (inst, n, st)
          when Tblock.Gen.stamp t.gens ~lo:pc ~hi:(pc + n - 1) = st ->
            (pc, inst, n) :: acc
        | _ -> acc)
      t.cur.cache []
  in
  let blocks =
    Hashtbl.fold
      (fun entry b acc ->
        match Hashtbl.find_opt t.cur.skels entry with
        | Some sk when Tblock.revalidate t.gens ~isa:t.isa ~epoch:t.code_epoch b ->
            { pb_entry = entry;
              pb_tier = b.Tblock.tier;
              pb_relaid = b.Tblock.relaid;
              pb_hot = b.Tblock.hot;
              pb_skel = sk }
            :: acc
        | _ -> acc)
      t.cur.blocks []
  in
  let heat = Hashtbl.fold (fun pc r acc -> (pc, !r) :: acc) t.cur.heat [] in
  let ics =
    Hashtbl.fold
      (fun site s acc ->
        if s.site_mega then acc
        else
          let targets =
            (if s.site_target >= 0 then [ s.site_target ] else [])
            @ (Array.to_list s.site_poly |> List.map fst)
          in
          if targets = [] then acc else (site, targets) :: acc)
      t.cur.ics []
  in
  { pl_config = t.cfg;
    pl_insts = Array.of_list insts;
    pl_blocks = Array.of_list blocks;
    pl_heat = Array.of_list heat;
    pl_ics = Array.of_list ics }

let plan_stats p = (Array.length p.pl_blocks, Array.length p.pl_insts)

(* Replay one skeleton through [Tblock.translate]: decode comes from the
   (prefabbed) decode cache, the lower callback plays back the recorded
   decisions positionally — persisted post-optimize ops for IR runs, a
   deterministic recompile via [compile_op] for everything else — and the
   emitter skips [Tir.optimize]. In an unoptimized block a [Scompile] step
   is re-lowered first, as the recording translation lowered it. Any
   divergence (a consumed-out skeleton, an unexpected fault) raises and
   the caller skips the entry, leaving it to the normal cold path. *)
let rebuild_block t (pb : plan_block) =
  let sk = pb.pb_skel in
  let cursor = ref 0 in
  let ir_units = ref 0 and tlb_elided = ref 0 in
  let sb, optimized = shape t.cfg pb.pb_tier in
  let b =
    Tblock.translate ~gens:t.gens ~epoch:t.code_epoch ~isa:t.isa
      ~decode:(fun pc ->
        match decode_at t pc with
        | d -> Some d
        | exception Efault _ -> None
        | exception Memory.Violation _ -> None)
      ~lower:(fun ~pc inst size ->
        if !cursor >= Array.length sk.sk_steps then raise Exit;
        let s = sk.sk_steps.(!cursor) in
        incr cursor;
        match s with
        | Slower op -> Some op
        | Scompile -> if optimized then None else lower_op t ~pc inst size)
      ~compile:(fun ~pc inst size ->
        compile_op t ~sb ~relayout:sk.sk_relayout ~pc inst size)
      ~emit:(if optimized then emit_units ir_units tlb_elided else emit_plain)
      pb.pb_entry
  in
  Tblock.set_tier b ~tier:pb.pb_tier ~relaid:pb.pb_relaid;
  Tblock.set_hot b pb.pb_hot;
  t.fused_pairs <- t.fused_pairs + b.Tblock.n_fused;
  b

let seed_plan t (p : plan) =
  if p.pl_config <> t.cfg then Error "flags"
  else begin
    (* Decode-cache prefab. Entries are stamped against the seeding
       machine's current generations: the caller's content-digest check
       proved the guest bytes equal the exporting run's, so the persisted
       decodes are decodes of the current bytes. *)
    Array.iter
      (fun (pc, inst, n) ->
        Hashtbl.replace t.cur.cache pc
          (Cok (inst, n, Tblock.Gen.stamp t.gens ~lo:pc ~hi:(pc + n - 1))))
      p.pl_insts;
    let seeded = ref 0 in
    Array.iter
      (fun pb ->
        match rebuild_block t pb with
        | b ->
            publish_block t pb.pb_entry b;
            (* keep the skeleton so this machine's own export re-offers the
               seeded entries (warm runs stay warm across generations) *)
            Hashtbl.replace t.cur.skels pb.pb_entry pb.pb_skel;
            incr seeded
        | exception _ -> ())
      p.pl_blocks;
    (* Interpreter heat for entries that never reached the first tier,
       skipping anything just seeded as a block. *)
    Array.iter
      (fun (pc, h) ->
        if not (Hashtbl.mem t.cur.blocks pc) then
          Hashtbl.replace t.cur.heat pc (ref h))
      p.pl_heat;
    if t.cfg.inline_caches then
      Array.iter
        (fun (site, targets) ->
          let s = ic_for t site in
          List.iter
            (fun pc ->
              match Hashtbl.find_opt t.cur.blocks pc with
              | Some b when Tblock.epoch_current b t.code_epoch ->
                  ic_train t s pc b
              | _ -> ())
            targets)
        p.pl_ics;
    (* Replay time is deliberately NOT recorded in [chimera_translate_ns]:
       that histogram measures translation the cache failed to serve, so a
       warm start's
       cost lands in the caller's cache-preparation accounting instead
       (bench: warm_start_s) and the cold/warm translate_s ratio measures
       exactly the work the cache avoided. *)
    flush_run_stats t;
    Ok !seeded
  end
