let m_rw_sites =
  Metrics.counter ~help:"Extension sites rewritten (any style)"
    "chimera_rw_sites_total"

type mode = Downgrade | Upgrade | Empty

type options = {
  mode : mode;
  batch : bool;
  static_sew : bool;
  style : [ `Smile | `Trap ];
  spill_all : bool;
  use_gp : bool;
}

let default_options mode =
  { mode; batch = true; static_sew = true; style = `Smile; spill_all = false;
    use_gp = true }

type stats = {
  mutable source_insts : int;
  mutable sites : int;
  mutable trap_entries : int;
  mutable odd_entry_traps : int;
  mutable batches : int;
  mutable exits : int;
  mutable exit_liveness : int;
  mutable exit_shift : int;
  mutable exit_terminator : int;
  mutable exit_trap : int;
  mutable table_entries : int;
  mutable target_bytes : int;
  mutable lazy_sites : int;
}

let pp_stats fmt s =
  Format.fprintf fmt
    "@[<v>sources %d, sites %d (%d trap entries, %d odd-entry traps), batches %d@,\
     exits %d: liveness %d, shift %d, terminator %d, trap %d@,\
     table entries %d, target bytes %d, lazy sites %d@]"
    s.source_insts s.sites s.trap_entries s.odd_entry_traps s.batches s.exits
    s.exit_liveness s.exit_shift s.exit_terminator s.exit_trap s.table_entries
    s.target_bytes s.lazy_sites

type patch =
  | Patch_code of { addr : int; bytes : bytes }
  | Patch_section of { addr : int; bytes : bytes }

type t = {
  orig : Binfile.t;
  opts : options;
  compressed : bool;
  table : Fault_table.t;
  trap_tbl : Fault_table.t;
  st : stats;
  sec_copies : (string * int * bytes) list;
  processed : (int, unit) Hashtbl.t;  (* source addresses already handled *)
  overwritten : (int, unit) Hashtbl.t;  (* non-site-start overwritten insts *)
  mutable cursor : int;
  mutable chunks : (int * bytes) list;  (* ascending target-code chunks *)
  mutable pending : patch list;
  mutable recording : bool;
  mutable gregs : (int * Reg.t) list;  (* jalr addr, link register *)
}

let original t = t.orig
let greg_sites t = t.gregs
let fault_table t = t.table
let trap_table t = t.trap_tbl
let stats t = t.st
let gp_value t = t.orig.Binfile.gp_value

(* ------------------------------------------------------------------ *)
(* Code-copy bookkeeping                                               *)
(* ------------------------------------------------------------------ *)

let write_code t addr src len =
  let sec =
    List.find_opt
      (fun (_, a, b) -> addr >= a && addr + len <= a + Bytes.length b)
      t.sec_copies
  in
  match sec with
  | None -> invalid_arg (Printf.sprintf "Chbp.write_code: 0x%x outside code" addr)
  | Some (_, base, buf) ->
      Bytes.blit src 0 buf (addr - base) len;
      if t.recording then
        t.pending <- Patch_code { addr; bytes = Bytes.sub src 0 len } :: t.pending

(* ------------------------------------------------------------------ *)
(* Source classification                                               *)
(* ------------------------------------------------------------------ *)

let is_source t (i : Disasm.insn) =
  match t.opts.mode with
  | Downgrade -> (
      match Ext.required i.inst with
      | Some Ext.V | Some Ext.B | Some Ext.P -> true
      | Some Ext.C | Some Ext.X | None -> false)
  | Empty -> (
      match Ext.required i.inst with
      | Some Ext.V -> true
      | Some Ext.C | Some Ext.B | Some Ext.P | Some Ext.X | None -> false)
  | Upgrade -> false

(* ------------------------------------------------------------------ *)
(* Emission helpers                                                    *)
(* ------------------------------------------------------------------ *)

let site_label addr = Printf.sprintf "a%x" addr
let pad_label addr = Printf.sprintf "p%x" addr
let stub_label addr = Printf.sprintf "s%x" addr

let restore_gp t cb = Codebuf.la_abs cb Reg.gp t.orig.Binfile.gp_value

let copy_straight cb (i : Disasm.insn) =
  match i.inst with
  | Inst.Auipc (rd, imm) ->
      (* pc-relative: materialize the value it had at its original address *)
      Codebuf.la_abs cb rd (i.addr + (imm lsl 12))
  | inst -> Codebuf.inst cb inst

(* Exit resolution (paper §4.2 challenge 2 + Fig. 8): find a way back from
   the target block into original code at [start]. *)
type exit_kind = Eliveness | Eshift | Eterminator | Etrapped

let resolve_exit t cb dis live ~chunk_base ~start =
  let max_shift = match t.opts.style with `Smile -> 24 | `Trap -> 0 in
  let used_shift = ref false and used_trap = ref false and used_term = ref false in
  let first_liveness = ref false in
  let emit_trap resume =
    used_trap := true;
    (match Fault_table.find t.trap_tbl (chunk_base + Codebuf.size cb) with
    | Some _ -> ()
    | None ->
        Fault_table.add t.trap_tbl ~key:(chunk_base + Codebuf.size cb) ~redirect:resume);
    Codebuf.inst cb Inst.Ebreak
  in
  let overwritten addr = Hashtbl.mem t.overwritten addr in
  let jump_or_trap ?(avoid = []) target =
    if not (overwritten target) then
      match Liveness.dead_at live ~avoid target with
      | Some r -> Codebuf.vanilla_jump_abs cb r target
      | None -> emit_trap target
    else
      (* jumping onto an overwritten instruction would fault on every
         execution; still correct, and the fault-handling table recovers
         it, but prefer it only when there is no alternative. *)
      match Liveness.dead_at live ~avoid target with
      | Some r -> Codebuf.vanilla_jump_abs cb r target
      | None -> emit_trap target
  in
  let rec go addr budget ~first =
    let dead =
      if t.opts.style = `Trap || overwritten addr then None
      else Liveness.dead_at live addr
    in
    match dead with
    | Some r ->
        if first then first_liveness := true else used_shift := true;
        Codebuf.vanilla_jump_abs cb r addr
    | None -> (
        match Disasm.find dis addr with
        | None -> emit_trap addr
        | Some i ->
            if is_source t i then
              (* never inline another rewriting site; fall back to the
                 original address, where its own trampoline lives *)
              emit_trap addr
            else if t.opts.style = `Trap && not (overwritten addr) then emit_trap addr
            else if budget = 0 && not (overwritten addr) then emit_trap addr
            else (
              match Disasm.flow_of i with
              | Disasm.Fallthrough | Disasm.Syscall ->
                  copy_straight cb i;
                  used_shift := true;
                  go (addr + i.size) (max 0 (budget - 1)) ~first:false
              | Disasm.Ret ->
                  used_term := true;
                  Codebuf.inst cb (Inst.Jalr (Reg.x0, Reg.ra, 0))
              | Disasm.Indirect_jump -> (
                  used_term := true;
                  match i.inst with
                  | Inst.Jalr (_, rs1, imm) -> Codebuf.inst cb (Inst.Jalr (Reg.x0, rs1, imm))
                  | Inst.C_jr rs1 -> Codebuf.inst cb (Inst.Jalr (Reg.x0, rs1, 0))
                  | Inst.Xcheck_jalr (_, rs1, imm) ->
                      Codebuf.inst cb (Inst.Xcheck_jalr (Reg.x0, rs1, imm))
                  | _ -> emit_trap addr)
              | Disasm.Indirect_call -> (
                  used_term := true;
                  let fall = addr + i.size in
                  match i.inst with
                  | Inst.Jalr (rd, rs1, imm) when not (Reg.equal rd rs1) ->
                      Codebuf.la_abs cb rd fall;
                      Codebuf.inst cb (Inst.Jalr (Reg.x0, rs1, imm))
                  | Inst.C_jalr rs1 when not (Reg.equal rs1 Reg.ra) ->
                      Codebuf.la_abs cb Reg.ra fall;
                      Codebuf.inst cb (Inst.Jalr (Reg.x0, rs1, 0))
                  | _ -> emit_trap addr)
              | Disasm.Jump target ->
                  used_term := true;
                  jump_or_trap target
              | Disasm.Call target -> (
                  used_term := true;
                  let rd =
                    match i.inst with Inst.Jal (rd, _) -> rd | _ -> Reg.ra
                  in
                  let fall = addr + i.size in
                  match
                    if overwritten target then None
                    else Liveness.dead_at live ~avoid:[ rd ] target
                  with
                  | Some r ->
                      Codebuf.la_abs cb rd fall;
                      Codebuf.vanilla_jump_abs cb r target
                  | None ->
                      (* trap-based call: set the link inline, trap to the
                         callee. Never trap back to [addr]: if this copy is
                         itself the redirect target of an overwritten call,
                         that would loop through the fault handler forever. *)
                      Codebuf.la_abs cb rd fall;
                      emit_trap target)
              | Disasm.Branch target -> (
                  used_term := true;
                  let cond, rs1, rs2 =
                    match i.inst with
                    | Inst.Branch (c, rs1, rs2, _) -> (c, rs1, rs2)
                    | Inst.C_beqz (rs1, _) -> (Inst.Beq, rs1, Reg.x0)
                    | Inst.C_bnez (rs1, _) -> (Inst.Bne, rs1, Reg.x0)
                    | _ -> assert false
                  in
                  let taken = site_label (addr + 0x4000_0000 + Codebuf.size cb) in
                  Codebuf.branch_l cb cond rs1 rs2 taken;
                  (* fallthrough edge *)
                  go (addr + i.size) (max 0 (budget - 1)) ~first:false;
                  Codebuf.label cb taken;
                  jump_or_trap target)
              | Disasm.Halt ->
                  used_term := true;
                  copy_straight cb i))
  in
  go start max_shift ~first:true;
  t.st.exits <- t.st.exits + 1;
  let kind =
    if !first_liveness then Eliveness
    else if !used_trap then Etrapped
    else if !used_term then Eterminator
    else if !used_shift then Eshift
    else Etrapped
  in
  (match kind with
  | Eliveness -> t.st.exit_liveness <- t.st.exit_liveness + 1
  | Eshift -> t.st.exit_shift <- t.st.exit_shift + 1
  | Eterminator -> t.st.exit_terminator <- t.st.exit_terminator + 1
  | Etrapped -> t.st.exit_trap <- t.st.exit_trap + 1);
  if !Obs.enabled then begin
    let name =
      match kind with
      | Eliveness -> "liveness"
      | Eshift -> "shift"
      | Eterminator -> "terminator"
      | Etrapped -> "trap"
    in
    Obs.emit (Obs.Rw_exit { site = start; kind = name })
  end;
  kind

(* ------------------------------------------------------------------ *)
(* Batch processing (downgrade / empty)                                *)
(* ------------------------------------------------------------------ *)

type entry_kind =
  | Esmile of { space_end : int; nop : bool }
  | Etrap_entry
  | Econsumed  (** inside a previous site's space; no trampoline possible *)

(* An indirect call whose link register doubles as the target base cannot
   be reproduced in a copy (no scratch register is architecturally
   available), so it must never be overwritten by a trampoline space. *)
let uncopyable (i : Disasm.insn) =
  match i.inst with
  | Inst.Jalr (rd, rs1, _) -> Reg.equal rd rs1 && not (Reg.equal rd Reg.x0)
  | Inst.C_jalr rs1 -> Reg.equal rs1 Reg.ra
  | _ -> false

let space_of dis (si : Disasm.insn) =
  let rec go addr acc =
    if acc >= 8 then Some (addr, acc > 8)
    else
      match Disasm.find dis addr with
      | None -> None
      | Some i -> if uncopyable i then None else go (addr + i.size) (acc + i.size)
  in
  go (si.Disasm.addr + si.Disasm.size) si.Disasm.size

(* Pass 1 for a batch: decide each site's entry kind. [covered] is shared
   across batches: a site consumed by an earlier site's space (even from a
   preceding batch whose space overflowed a block boundary) cannot host a
   trampoline of its own. *)
let plan_entries ~style dis covered (sources : Disasm.insn list) =
  List.map
    (fun (si : Disasm.insn) ->
      if si.addr < !covered then (si, Econsumed)
      else if style = `Trap then begin
        covered := max !covered (si.addr + si.size);
        (si, Etrap_entry)
      end
      else
        match space_of dis si with
        | Some (space_end, nop) ->
            covered := max !covered space_end;
            (si, Esmile { space_end; nop })
        | None ->
            covered := max !covered (si.addr + si.size);
            (si, Etrap_entry))
    sources

let entry_end (si : Disasm.insn) = function
  | Esmile { space_end; _ } -> space_end
  | Etrap_entry | Econsumed -> si.Disasm.addr + si.Disasm.size

(* Record the overwritten (non-site-start) instruction addresses of a
   batch plan, so exit resolution avoids landing on them. *)
let note_overwritten t dis plan =
  List.iter
    (fun ((si : Disasm.insn), kind) ->
      match kind with
      | Esmile { space_end; _ } ->
          let rec go addr =
            if addr < space_end then
              match Disasm.find dis addr with
              | None -> ()
              | Some i ->
                  Hashtbl.replace t.overwritten addr ();
                  go (addr + i.size)
          in
          go (si.addr + si.size)
      | Etrap_entry | Econsumed -> ())
    plan

(* Batch context (setup sharing): for every maximal run of adjacent source
   instructions, reserve two registers dead across the run to carry the
   simulated-state base address and the current vl, loaded once at the run
   head. Returns the per-run-head and per-run-member context tables. *)
let compute_run_ctx t live (region_insns : Disasm.insn list) =
  let run_ctx = Hashtbl.create 8 in
  let member_ctx = Hashtbl.create 8 in
  (if t.opts.mode = Downgrade then
     let rec runs acc cur = function
       | [] -> List.rev (match cur with [] -> acc | _ -> List.rev cur :: acc)
       | (i : Disasm.insn) :: rest ->
           if is_source t i && not (Inst.is_bitmanip i.inst) then runs acc (i :: cur) rest
           else
             runs (match cur with [] -> acc | _ -> List.rev cur :: acc) [] rest
     in
     runs [] [] region_insns
     |> List.filter (fun r -> List.length r >= 2)
     |> List.iter (fun run ->
            match run with
            | [] -> ()
            | (head : Disasm.insn) :: rest ->
                let used =
                  List.fold_left
                    (fun acc (i : Disasm.insn) ->
                      Regmask.union acc
                        (Regmask.union
                           (Regmask.of_list (Inst.uses i.inst))
                           (Regmask.of_list (Inst.defs i.inst))))
                    Regmask.empty run
                in
                let candidates =
                  List.filter
                    (fun r -> not (Regmask.mem r used))
                    (Liveness.dead_regs_at live head.addr)
                in
                (match candidates with
                | rb :: rv :: _ ->
                    Hashtbl.replace run_ctx head.addr (rb, rv);
                    List.iter
                      (fun (m : Disasm.insn) ->
                        Hashtbl.replace member_ctx m.addr (rb, rv))
                      rest
                | _ -> ())));
  (run_ctx, member_ctx)

let process_batch t dis live plan =
  match plan with
  | [] -> ()
  | ((s1 : Disasm.insn), _) :: _ ->
      t.st.batches <- t.st.batches + 1;
      let region_end =
        List.fold_left (fun acc (si, k) -> max acc (entry_end si k)) 0 plan
      in
      let b = Smile.next_target ~pc:s1.addr ~min:t.cursor ~compressed:t.compressed in
      let cb = Codebuf.create () in
      let sew = ref None and sew_in_region = ref false in
      (* Fault-table redirects into the middle of a context run go through
         fixup stubs that re-establish the shared registers. *)
      let region_insns =
        let rec go addr acc =
          if addr >= region_end then List.rev acc
          else
            match Disasm.find dis addr with
            | None -> List.rev acc
            | Some i -> go (addr + i.size) (i :: acc)
        in
        go s1.addr []
      in
      let run_ctx, member_ctx = compute_run_ctx t live region_insns in
      let ctx_of addr =
        match Hashtbl.find_opt run_ctx addr with
        | Some c -> Some c
        | None -> Hashtbl.find_opt member_ctx addr
      in
      restore_gp t cb;
      (* Region emission. [open_tail] tracks whether the last emitted code
         can fall through to the next position (a straight copy or a
         translation); the tail after a terminator resolution is reachable
         again as soon as another instruction is labeled (it is a
         fault-table redirect target). *)
      let open_tail = ref true in
      let rec emit_region addr =
        if addr >= region_end then begin
          if !open_tail then
            ignore (resolve_exit t cb dis live ~chunk_base:b ~start:region_end)
        end
        else
          match Disasm.find dis addr with
          | None ->
              if !open_tail then begin
                ignore (resolve_exit t cb dis live ~chunk_base:b ~start:addr);
                open_tail := false
              end
          | Some i ->
              Codebuf.label cb (site_label addr);
              if is_source t i then begin
                (match i.inst with
                | Inst.Vsetvli (_, _, s) ->
                    sew := Some s;
                    sew_in_region := true
                | _ -> ());
                (match t.opts.mode with
                | Empty -> Codebuf.inst cb i.inst
                | Downgrade ->
                    let static_sew =
                      match i.inst with
                      | Inst.Vsetvli _ -> None
                      | _ -> if t.opts.static_sew && !sew_in_region then !sew else None
                    in
                    (match Hashtbl.find_opt run_ctx addr with
                    | Some (rb, rv) ->
                        Codebuf.la_abs cb rb Vregs.base;
                        Codebuf.inst cb
                          (Inst.Load
                             { width = Inst.D; unsigned = false; rd = rv; rs1 = rb;
                               imm = Vregs.vl_off })
                    | None -> ());
                    (* context registers must survive the whole run: keep
                       them out of the spill-free set, so a context-unaware
                       template that picks one saves and restores it *)
                    let ctx = ctx_of addr in
                    let free =
                      if t.opts.spill_all then []
                      else
                        let banned =
                          match ctx with
                          | Some (rb, rv) -> Regmask.of_list [ rb; rv ]
                          | None -> Regmask.empty
                        in
                        List.filter
                          (fun r -> not (Regmask.mem r banned))
                          (Liveness.dead_regs_at live addr)
                    in
                    (match ctx with
                    | Some vctx -> Translate.downgrade cb ~static_sew ~free ~vctx i.inst
                    | None -> Translate.downgrade cb ~static_sew ~free i.inst)
                | Upgrade -> assert false);
                open_tail := true;
                emit_region (addr + i.size)
              end
              else (
                match Disasm.flow_of i with
                | Disasm.Fallthrough | Disasm.Syscall ->
                    copy_straight cb i;
                    open_tail := true;
                    emit_region (addr + i.size)
                | Disasm.Branch _ | Disasm.Jump _ | Disasm.Call _
                | Disasm.Indirect_jump | Disasm.Indirect_call | Disasm.Ret
                | Disasm.Halt ->
                    (* a control transfer inside the overwritten region:
                       resolve it in place (it is itself a redirect target) *)
                    ignore (resolve_exit t cb dis live ~chunk_base:b ~start:addr);
                    open_tail := false;
                    emit_region (addr + i.size))
      in
      emit_region s1.addr;
      (* fixup stubs: redirecting into the middle of a context run must
         first re-establish the shared registers *)
      Hashtbl.iter
        (fun maddr (rb, rv) ->
          if Codebuf.has_label cb (site_label maddr) then begin
            Codebuf.label cb (stub_label maddr);
            Codebuf.la_abs cb rb Vregs.base;
            Codebuf.inst cb
              (Inst.Load
                 { width = Inst.D; unsigned = false; rd = rv; rs1 = rb;
                   imm = Vregs.vl_off });
            Codebuf.j_l cb (site_label maddr)
          end)
        member_ctx;
      let entry_label addr =
        if Codebuf.has_label cb (stub_label addr) then stub_label addr
        else site_label addr
      in
      (* landing pads for the later sites of the batch *)
      let pad_targets =
        List.filter_map
          (fun ((si : Disasm.insn), kind) ->
            match kind with
            | Esmile _ when si.addr <> s1.addr -> (
                let min = b + Codebuf.size cb in
                match Smile.next_target ~pc:si.addr ~min ~compressed:t.compressed with
                | a when a - b <= Codebuf.size cb + 65536 ->
                    Codebuf.pad_to cb (a - b);
                    Codebuf.label cb (pad_label si.addr);
                    restore_gp t cb;
                    Codebuf.j_l cb (entry_label si.addr);
                    Some (si.addr, a)
                | _ | (exception Invalid_argument _) -> None)
            | Esmile _ -> Some (si.addr, b)
            | Etrap_entry | Econsumed -> None)
          plan
      in
      let bytes = Codebuf.link cb ~base:b ~resolve:(fun _ -> None) in
      t.chunks <- t.chunks @ [ (b, bytes) ];
      t.cursor <- b + Bytes.length bytes;
      t.st.target_bytes <- t.st.target_bytes + Bytes.length bytes;
      (* write entry trampolines *)
      let scratch = Bytes.make 10 '\000' in
      List.iter
        (fun ((si : Disasm.insn), kind) ->
          Hashtbl.replace t.processed si.addr ();
          t.st.source_insts <- t.st.source_insts + 1;
          match kind with
          | Esmile { space_end; nop } -> (
              match List.assoc_opt si.addr pad_targets with
              | Some target ->
                  Smile.write scratch ~off:0 ~pc:si.addr ~target ~compressed:t.compressed;
                  if nop then ignore (Encode.write scratch 8 Inst.C_nop);
                  write_code t si.addr scratch (space_end - si.addr);
                  t.st.sites <- t.st.sites + 1;
                  Metrics.incr m_rw_sites;
                  if !Obs.enabled then
                    Obs.emit (Obs.Rw_site { site = si.addr; style = "smile" })
              | None ->
                  (* pad placement failed: trap entry *)
                  ignore (Encode.write scratch 0 Inst.Ebreak);
                  write_code t si.addr scratch 4;
                  Fault_table.add t.trap_tbl ~key:si.addr
                    ~redirect:(b + Codebuf.label_offset cb (entry_label si.addr));
                  t.st.trap_entries <- t.st.trap_entries + 1;
                  Metrics.incr m_rw_sites;
                  if !Obs.enabled then
                    Obs.emit (Obs.Rw_site { site = si.addr; style = "trap" }))
          | Etrap_entry ->
              ignore (Encode.write scratch 0 Inst.Ebreak);
              write_code t si.addr scratch 4;
              Fault_table.add t.trap_tbl ~key:si.addr
                ~redirect:(b + Codebuf.label_offset cb (entry_label si.addr));
              t.st.trap_entries <- t.st.trap_entries + 1;
              Metrics.incr m_rw_sites;
              if !Obs.enabled then
                Obs.emit (Obs.Rw_site { site = si.addr; style = "trap" })
          | Econsumed -> ())
        plan;
      (* fault-handling table entries for overwritten instructions *)
      List.iter
        (fun ((si : Disasm.insn), kind) ->
          match kind with
          | Esmile { space_end; _ } ->
              let rec go addr =
                if addr < space_end then
                  match Disasm.find dis addr with
                  | None -> ()
                  | Some i ->
                      (match Fault_table.find t.table addr with
                      | Some _ -> ()
                      | None ->
                          (match Codebuf.label_offset cb (entry_label addr) with
                          | off ->
                              Fault_table.add t.table ~key:addr ~redirect:(b + off);
                              t.st.table_entries <- t.st.table_entries + 1
                          | exception Not_found -> ()));
                      go (addr + i.size)
              in
              go (si.addr + si.size)
          | Etrap_entry | Econsumed -> ())
        plan

(* ------------------------------------------------------------------ *)
(* General-register SMILE (paper Fig. 5)                               *)
(* ------------------------------------------------------------------ *)

(* For an ISA without a gp-like register: find an adjacent
   [lui rd, hi; load rd2, lo(rd)] static-data access before the source in
   the same basic block. Overwriting that pair with [auipc rd; jalr rd]
   keeps partial executions deterministic, because any original-valid jump
   to the pair's second instruction arrives with rd pointing at readable
   (non-executable) data. *)
let pair_target_non_exec t ~hi ~imm =
  let target = (hi lsl 12) + imm in
  List.exists
    (fun (s : Binfile.section) ->
      Binfile.in_section s target && not s.Binfile.sec_perm.Memory.x)
    t.orig.Binfile.sections

let admissible_pair_reg rd =
  (not (Reg.equal rd Reg.x0)) && (not (Reg.equal rd Reg.sp))
  && not (Reg.equal rd Reg.gp)

(* Decode a 4-byte slot of the working text copy (patches included), for
   peeking behind a lazily discovered site in an uncompressed binary. *)
let raw_inst t addr =
  match
    List.find_opt
      (fun (_, a, b) -> addr >= a && addr + 4 <= a + Bytes.length b)
      t.sec_copies
  with
  | None -> None
  | Some (_, base, buf) ->
      let off = addr - base in
      let lo = Bytes.get_uint16_le buf off
      and hi = Bytes.get_uint16_le buf (off + 2) in
      (match Decode.decode ~lo ~hi with
      | Decode.Ok (inst, 4) -> Some { Disasm.addr; inst; size = 4 }
      | Decode.Ok _ | Decode.Illegal _ -> None)

(* Walk backwards from [si] through straight-line code we can replay in the
   target section, looking for an idiom pair the containing block (possibly
   truncated by lazy disassembly) did not expose. *)
let backward_pair t (si : Disasm.insn) =
  let rec back addr between budget =
    if budget = 0 then None
    else
      match (raw_inst t (addr - 8), raw_inst t (addr - 4)) with
      | ( Some ({ Disasm.inst = Inst.Lui (rd, hi); _ } as lui),
          Some ({ Disasm.inst = Inst.Load { rs1; imm; _ }; _ } as ld) )
        when Reg.equal rs1 rd && admissible_pair_reg rd
             && (not (Hashtbl.mem t.overwritten lui.Disasm.addr))
             && (not (Hashtbl.mem t.overwritten ld.Disasm.addr))
             && pair_target_non_exec t ~hi ~imm ->
          Some (lui, ld, rd, between)
      | _, Some i
        when Disasm.flow_of i = Disasm.Fallthrough
             && (not (is_source t i))
             && not (Hashtbl.mem t.overwritten i.Disasm.addr) ->
          back (addr - 4) (i :: between) (budget - 1)
      | _, (Some _ | None) -> None
  in
  back si.Disasm.addr [] 16

let find_greg_pair t cfg (si : Disasm.insn) =
  let in_block =
    match Cfg.block_containing cfg si.Disasm.addr with
    | None -> None
    | Some b ->
        let rec scan = function
          | ({ Disasm.inst = Inst.Lui (rd, hi); _ } as lui)
            :: ({ Disasm.inst = Inst.Load { rs1; imm; _ }; _ } as ld)
            :: rest
            when Reg.equal rs1 rd && admissible_pair_reg rd
                 && ld.Disasm.addr + ld.Disasm.size <= si.Disasm.addr
                 && not (Hashtbl.mem t.overwritten ld.Disasm.addr) ->
              if pair_target_non_exec t ~hi ~imm then
                let between =
                  List.filter
                    (fun (i : Disasm.insn) ->
                      i.addr > ld.Disasm.addr && i.addr < si.Disasm.addr)
                    b.Cfg.b_insns
                in
                Some (lui, ld, rd, between)
              else scan (ld :: rest)
          | _ :: rest -> scan rest
          | [] -> None
        in
        scan b.Cfg.b_insns
  in
  match in_block with Some _ -> in_block | None -> backward_pair t si

let process_greg_site t dis cfg live (sources : Disasm.insn list) =
  match sources with
  | [] -> ()
  | (si : Disasm.insn) :: _ ->
      t.st.batches <- t.st.batches + 1;
      let last = List.nth sources (List.length sources - 1) in
      let region_end = last.Disasm.addr + last.Disasm.size in
      List.iter
        (fun (s : Disasm.insn) ->
          t.st.source_insts <- t.st.source_insts + 1;
          Hashtbl.replace t.processed s.addr ())
        sources;
      let scratch = Bytes.make 8 '\000' in
      let is_src (i : Disasm.insn) = List.exists (fun s -> s.Disasm.addr = i.addr) sources in
      (* shared emission: translate sources, copy everything else, from
         [start] to [region_end], then resolve the exit *)
      let emit_body cb b start =
        let sew = ref None and sew_in_region = ref false in
        let region_insns =
          let rec collect addr acc =
            if addr >= region_end then List.rev acc
            else
              match Disasm.find dis addr with
              | None -> List.rev acc
              | Some i -> collect (addr + i.size) (i :: acc)
          in
          collect start []
        in
        let run_ctx, member_ctx = compute_run_ctx t live region_insns in
        let ctx_of addr =
          match Hashtbl.find_opt run_ctx addr with
          | Some c -> Some c
          | None -> Hashtbl.find_opt member_ctx addr
        in
        let rec go addr =
          if addr >= region_end then
            ignore (resolve_exit t cb dis live ~chunk_base:b ~start:region_end)
          else
            match Disasm.find dis addr with
            | None -> ignore (resolve_exit t cb dis live ~chunk_base:b ~start:addr)
            | Some i ->
                Codebuf.label cb (site_label addr);
                if is_src i then begin
                  (match i.inst with
                  | Inst.Vsetvli (_, _, s) ->
                      sew := Some s;
                      sew_in_region := true
                  | _ -> ());
                  (match t.opts.mode with
                  | Empty -> Codebuf.inst cb i.inst
                  | Downgrade ->
                      let static_sew =
                        match i.inst with
                        | Inst.Vsetvli _ -> None
                        | _ -> if t.opts.static_sew && !sew_in_region then !sew else None
                      in
                      (match Hashtbl.find_opt run_ctx addr with
                      | Some (rb, rv) ->
                          Codebuf.la_abs cb rb Vregs.base;
                          Codebuf.inst cb
                            (Inst.Load
                               { width = Inst.D; unsigned = false; rd = rv;
                                 rs1 = rb; imm = Vregs.vl_off })
                      | None -> ());
                      let ctx = ctx_of addr in
                      let free =
                        if t.opts.spill_all then []
                        else
                          let banned =
                            match ctx with
                            | Some (rb, rv) -> Regmask.of_list [ rb; rv ]
                            | None -> Regmask.empty
                          in
                          List.filter
                            (fun r -> not (Regmask.mem r banned))
                            (Liveness.dead_regs_at live addr)
                      in
                      (match ctx with
                      | Some vctx -> Translate.downgrade cb ~static_sew ~free ~vctx i.inst
                      | None -> Translate.downgrade cb ~static_sew ~free i.inst)
                  | Upgrade -> assert false);
                  go (addr + i.size)
                end
                else (
                  match Disasm.flow_of i with
                  | Disasm.Fallthrough | Disasm.Syscall ->
                      copy_straight cb i;
                      go (addr + i.size)
                  | _ ->
                      ignore (resolve_exit t cb dis live ~chunk_base:b ~start:addr))
        in
        go start;
        (* redirecting into the middle of a context run must first
           re-establish the shared registers *)
        Hashtbl.iter
          (fun maddr (rb, rv) ->
            if Codebuf.has_label cb (site_label maddr) then begin
              Codebuf.label cb (stub_label maddr);
              Codebuf.la_abs cb rb Vregs.base;
              Codebuf.inst cb
                (Inst.Load
                   { width = Inst.D; unsigned = false; rd = rv; rs1 = rb;
                     imm = Vregs.vl_off });
              Codebuf.j_l cb (site_label maddr)
            end)
          member_ctx
      in
      let add_table cb b addr =
        match Fault_table.find t.table addr with
        | Some _ -> ()
        | None -> (
            let lbl =
              if Codebuf.has_label cb (stub_label addr) then stub_label addr
              else site_label addr
            in
            match Codebuf.label_offset cb lbl with
            | off ->
                Fault_table.add t.table ~key:addr ~redirect:(b + off);
                t.st.table_entries <- t.st.table_entries + 1
            | exception Not_found -> ())
      in
      (* Normal flow reaches the translation through the entry trampoline,
         so the in-place sources behind it are dead code; only hidden
         indirect entries (invisible to recursive descent) can still land
         on them. Put a resident trap over each, turning every such entry
         into a cheap trap-table redirect instead of a per-visit SIGILL
         attribution. *)
      let trap_over_source cb b (s : Disasm.insn) =
        let lbl =
          if Codebuf.has_label cb (stub_label s.addr) then stub_label s.addr
          else site_label s.addr
        in
        match Codebuf.label_offset cb lbl with
        | off ->
            ignore (Encode.write scratch 0 Inst.Ebreak);
            write_code t s.addr scratch 4;
            Fault_table.add t.trap_tbl ~key:s.addr ~redirect:(b + off);
            t.st.odd_entry_traps <- t.st.odd_entry_traps + 1;
            Metrics.incr m_rw_sites;
            if !Obs.enabled then
              Obs.emit (Obs.Rw_site { site = s.addr; style = "trap" })
        | exception Not_found -> ()
      in
      let emit_trap_entry () =
        let b = (t.cursor + 3) land lnot 3 in
        let cb = Codebuf.create () in
        emit_body cb b si.addr;
        let bytes = Codebuf.link cb ~base:b ~resolve:(fun _ -> None) in
        t.chunks <- t.chunks @ [ (b, bytes) ];
        t.cursor <- b + Bytes.length bytes;
        t.st.target_bytes <- t.st.target_bytes + Bytes.length bytes;
        ignore (Encode.write scratch 0 Inst.Ebreak);
        write_code t si.addr scratch 4;
        Fault_table.add t.trap_tbl ~key:si.addr ~redirect:b;
        t.st.trap_entries <- t.st.trap_entries + 1;
        Metrics.incr m_rw_sites;
        if !Obs.enabled then
          Obs.emit (Obs.Rw_site { site = si.addr; style = "trap" });
        List.iter
          (fun (s : Disasm.insn) ->
            add_table cb b s.addr;
            trap_over_source cb b s)
          (List.tl sources)
      in
      (match (if t.compressed then None else find_greg_pair t cfg si) with
      | None -> emit_trap_entry ()
      | Some (lui, ld, rd, between) ->
          let b = (t.cursor + 3) land lnot 3 in
          let cb = Codebuf.create () in
          (* re-establish rd (the trampoline clobbered it), replay the data
             access and the straight-line code up to the first source, then
             the body from there *)
          Codebuf.label cb (site_label lui.Disasm.addr);
          copy_straight cb lui;
          Codebuf.label cb (site_label ld.Disasm.addr);
          copy_straight cb ld;
          List.iter
            (fun (i : Disasm.insn) ->
              Codebuf.label cb (site_label i.addr);
              copy_straight cb i)
            between;
          emit_body cb b si.addr;
          let bytes = Codebuf.link cb ~base:b ~resolve:(fun _ -> None) in
          t.chunks <- t.chunks @ [ (b, bytes) ];
          t.cursor <- b + Bytes.length bytes;
          t.st.target_bytes <- t.st.target_bytes + Bytes.length bytes;
          (* the trampoline over the pair: auipc rd, hi; jalr rd, lo(rd) *)
          let delta = b - lui.Disasm.addr in
          ignore (Encode.write scratch 0 (Inst.Auipc (rd, Encode.hi20 delta)));
          ignore (Encode.write scratch 4 (Inst.Jalr (rd, rd, Encode.lo12 delta)));
          write_code t lui.Disasm.addr scratch 8;
          Hashtbl.replace t.overwritten ld.Disasm.addr ();
          t.gregs <- (ld.Disasm.addr, rd) :: t.gregs;
          t.st.sites <- t.st.sites + 1;
          Metrics.incr m_rw_sites;
          if !Obs.enabled then
            Obs.emit (Obs.Rw_site { site = lui.Disasm.addr; style = "greg" });
          add_table cb b ld.Disasm.addr;
          List.iter
            (fun (s : Disasm.insn) ->
              add_table cb b s.addr;
              trap_over_source cb b s)
            sources)

(* ------------------------------------------------------------------ *)
(* Upgrade batch                                                       *)
(* ------------------------------------------------------------------ *)

let process_upgrade t dis live (c : Upgrade.candidate) =
  t.st.batches <- t.st.batches + 1;
  t.st.source_insts <- t.st.source_insts + 1;
  Hashtbl.replace t.processed c.Upgrade.c_addr ();
  (* the trampoline overwrites the first 8 bytes of the loop *)
  (match Disasm.find dis c.c_addr with
  | Some i when i.size = 4 -> ()
  | _ -> invalid_arg "Chbp.process_upgrade: unexpected loop head");
  Hashtbl.replace t.overwritten (c.c_addr + 4) ();
  let b = Smile.next_target ~pc:c.c_addr ~min:t.cursor ~compressed:t.compressed in
  let cb = Codebuf.create () in
  restore_gp t cb;
  Upgrade.emit_vector_loop cb c;
  ignore (resolve_exit t cb dis live ~chunk_base:b ~start:c.c_exit);
  (* redirect target for the overwritten second instruction *)
  (match Disasm.find dis (c.c_addr + 4) with
  | Some i ->
      Codebuf.label cb (site_label i.addr);
      copy_straight cb i;
      ignore (resolve_exit t cb dis live ~chunk_base:b ~start:(c.c_addr + 8))
  | None -> ());
  let bytes = Codebuf.link cb ~base:b ~resolve:(fun _ -> None) in
  t.chunks <- t.chunks @ [ (b, bytes) ];
  t.cursor <- b + Bytes.length bytes;
  t.st.target_bytes <- t.st.target_bytes + Bytes.length bytes;
  let scratch = Bytes.make 10 '\000' in
  Smile.write scratch ~off:0 ~pc:c.c_addr ~target:b ~compressed:t.compressed;
  write_code t c.c_addr scratch 8;
  t.st.sites <- t.st.sites + 1;
  Metrics.incr m_rw_sites;
  if !Obs.enabled then
    Obs.emit (Obs.Rw_site { site = c.c_addr; style = "smile" });
  (match Codebuf.label_offset cb (site_label (c.c_addr + 4)) with
  | off ->
      (match Fault_table.find t.table (c.c_addr + 4) with
      | Some _ -> ()
      | None ->
          Fault_table.add t.table ~key:(c.c_addr + 4) ~redirect:(b + off);
          t.st.table_entries <- t.st.table_entries + 1)
  | exception Not_found -> ())

(* ------------------------------------------------------------------ *)
(* Pipeline                                                            *)
(* ------------------------------------------------------------------ *)

let process t dis =
  let cfg = Cfg.of_disasm dis in
  let live = Liveness.compute cfg in
  match t.opts.mode with
  | Upgrade ->
      Upgrade.find cfg live
      |> List.filter (fun c -> not (Hashtbl.mem t.processed c.Upgrade.c_addr))
      |> List.iter (fun c -> process_upgrade t dis live c)
  | Downgrade | Empty ->
      let sources =
        Disasm.to_list dis
        |> List.filter (fun i ->
               is_source t i && not (Hashtbl.mem t.processed i.Disasm.addr))
      in
      if not t.opts.use_gp then begin
        let tbl = Hashtbl.create 32 in
        let order = ref [] in
        List.iter
          (fun (s : Disasm.insn) ->
            let key =
              match Cfg.block_containing cfg s.addr with
              | Some blk -> blk.Cfg.b_addr
              | None -> s.addr
            in
            match Hashtbl.find_opt tbl key with
            | None ->
                order := key :: !order;
                Hashtbl.replace tbl key [ s ]
            | Some l -> Hashtbl.replace tbl key (s :: l))
          sources;
        List.iter
          (fun k -> process_greg_site t dis cfg live (List.rev (Hashtbl.find tbl k)))
          (List.rev !order)
      end
      else
      (* group per containing basic block, preserving address order *)
      let batches =
        if not t.opts.batch then List.map (fun s -> [ s ]) sources
        else begin
          let tbl = Hashtbl.create 64 in
          let order = ref [] in
          List.iter
            (fun (s : Disasm.insn) ->
              let key =
                match Cfg.block_containing cfg s.addr with
                | Some blk -> blk.Cfg.b_addr
                | None -> s.addr
              in
              (match Hashtbl.find_opt tbl key with
              | None ->
                  order := key :: !order;
                  Hashtbl.replace tbl key [ s ]
              | Some l -> Hashtbl.replace tbl key (s :: l)))
            sources;
          List.rev_map (fun k -> List.rev (Hashtbl.find tbl k)) !order
        end
      in
      let covered = ref 0 in
      let plans =
        List.map (fun srcs -> plan_entries ~style:t.opts.style dis covered srcs) batches
      in
      List.iter (note_overwritten t dis) plans;
      List.iter (process_batch t dis live) plans

let rewrite ?options (bin : Binfile.t) =
  let opts = match options with Some o -> o | None -> default_options Downgrade in
  let compressed = Ext.mem Ext.C bin.Binfile.isa in
  let sec_copies =
    Binfile.code_sections bin
    |> List.map (fun (s : Binfile.section) ->
           (s.sec_name, s.sec_addr, Bytes.copy s.sec_data))
  in
  let t =
    { orig = bin;
      opts;
      compressed;
      table = Fault_table.create ();
      trap_tbl = Fault_table.create ~name:"trap" ();
      st =
        { source_insts = 0; sites = 0; trap_entries = 0; odd_entry_traps = 0;
          batches = 0; exits = 0;
          exit_liveness = 0; exit_shift = 0; exit_terminator = 0; exit_trap = 0;
          table_entries = 0; target_bytes = 0; lazy_sites = 0 };
      sec_copies;
      processed = Hashtbl.create 256;
      overwritten = Hashtbl.create 256;
      cursor = Layout.rewriter_base;
      chunks = [];
      pending = [];
      recording = false;
      gregs = [] }
  in
  process t (Disasm.of_binfile bin);
  t

(* Merge the target-code chunks into page-disjoint sections. *)
let chunk_sections t =
  let chunks = List.sort (fun (a, _) (b, _) -> compare a b) t.chunks in
  let rec group acc cur = function
    | [] -> List.rev (match cur with None -> acc | Some c -> c :: acc)
    | (addr, bytes) :: rest -> (
        match cur with
        | None ->
            let buf = Buffer.create (Bytes.length bytes) in
            Buffer.add_bytes buf bytes;
            group acc (Some (addr, buf)) rest
        | Some (base, buf) ->
            let cur_end = base + Buffer.length buf in
            if addr - cur_end <= 16384 then begin
              Buffer.add_string buf (String.make (addr - cur_end) '\000');
              Buffer.add_bytes buf bytes;
              group acc (Some (base, buf)) rest
            end
            else
              let nbuf = Buffer.create (Bytes.length bytes) in
              Buffer.add_bytes nbuf bytes;
              group ((base, buf) :: acc) (Some (addr, nbuf)) rest)
  in
  let groups = group [] None chunks in
  List.mapi
    (fun i (addr, buf) ->
      { Binfile.sec_name = Printf.sprintf ".chimera.text.%d" i;
        sec_addr = addr;
        sec_data = Buffer.to_bytes buf;
        sec_perm = Memory.perm_rx })
    groups

let result t =
  let bin = t.orig in
  let patched =
    List.map
      (fun (s : Binfile.section) ->
        match List.find_opt (fun (n, _, _) -> n = s.sec_name) t.sec_copies with
        | Some (_, _, copy) -> { s with sec_data = copy }
        | None -> s)
      bin.Binfile.sections
  in
  let extra = chunk_sections t in
  let extra =
    match t.opts.mode with
    | Downgrade -> extra @ [ Vregs.section () ]
    | Upgrade | Empty -> extra
  in
  let isa =
    match t.opts.mode with
    | Downgrade ->
        Ext.of_list
          (List.filter
             (fun e -> e <> Ext.V && e <> Ext.B)
             (Ext.to_list bin.Binfile.isa))
    | Upgrade -> Ext.union bin.Binfile.isa (Ext.of_list [ Ext.V ])
    | Empty -> bin.Binfile.isa
  in
  let suffix =
    match t.opts.mode with
    | Downgrade -> ".chbp-down"
    | Upgrade -> ".chbp-up"
    | Empty -> ".chbp-empty"
  in
  { bin with
    Binfile.name = bin.Binfile.name ^ suffix;
    isa;
    sections = patched @ extra }

let extend t ~root =
  t.recording <- true;
  t.pending <- [];
  let before_chunks = List.length t.chunks in
  let sites_before = t.st.sites + t.st.trap_entries in
  let dis = Disasm.of_binfile_at t.orig ~roots:[ root ] in
  process t dis;
  t.st.lazy_sites <- t.st.lazy_sites + (t.st.sites + t.st.trap_entries - sites_before);
  let new_chunks =
    List.filteri (fun i _ -> i >= before_chunks) t.chunks
    |> List.map (fun (addr, bytes) -> Patch_section { addr; bytes })
  in
  let patches = List.rev t.pending @ new_chunks in
  t.pending <- [];
  t.recording <- false;
  patches
