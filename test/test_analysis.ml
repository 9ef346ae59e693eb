(* Tests for riscv_analysis: recursive-descent coverage, CFG shape, and
   the conservative liveness the rewriter's dead-register search uses. *)

let exit_seq a =
  [ Inst.Opi (Inst.Addi, Reg.a7, Reg.x0, 93); Inst.Opi (Inst.Addi, Reg.a0, Reg.x0, a);
    Inst.Ecall ]

(* --- disassembler ------------------------------------------------------- *)

let test_linear_coverage () =
  let a = Asm.create () in
  Asm.func a "_start";
  Asm.li a Reg.t0 1;
  Asm.li a Reg.t1 2;
  Asm.insts a (exit_seq 0);
  let bin = Asm.assemble a in
  let dis = Disasm.of_binfile bin in
  Alcotest.(check int) "all insns found" 5 (Disasm.count dis);
  Alcotest.(check int) "all bytes covered" (Binfile.code_size bin)
    (Disasm.covered_bytes dis)

let test_follows_branches_and_calls () =
  let a = Asm.create () in
  Asm.func a "_start";
  Asm.li a Reg.a0 0;
  Asm.call a "helper";
  Asm.branch_to a Inst.Beq Reg.a0 Reg.x0 "done";
  Asm.li a Reg.a0 1;
  Asm.label a "done";
  Asm.insts a (exit_seq 0);
  Asm.func a "helper";
  Asm.ret a;
  let bin = Asm.assemble a in
  let dis = Disasm.of_binfile bin in
  Alcotest.(check int) "covered = code size" (Binfile.code_size bin)
    (Disasm.covered_bytes dis)

let test_jump_table_targets_missed_without_symbols () =
  (* Cases reachable only through an indirect jump are invisible to
     recursive descent — the paper's incompleteness scenario (§4.1). *)
  let a = Asm.create () in
  Asm.func a "_start";
  Asm.la a Reg.t1 "table";
  Asm.inst a (Inst.Load { width = Inst.D; unsigned = false; rd = Reg.t2; rs1 = Reg.t1; imm = 0 });
  Asm.inst a (Inst.Jalr (Reg.x0, Reg.t2, 0));
  Asm.hidden_func a "case0";
  Asm.insts a (exit_seq 0);
  Asm.rlabel a "table";
  Asm.rword_label a "case0";
  let bin = Asm.assemble a in
  let dis = Disasm.of_binfile bin in
  let case0 = ref 0 in
  (* find case0's address: right after the jalr (4+4+4+4+4 = 20 bytes in) *)
  case0 := Layout.text_base + 20;
  Alcotest.(check bool) "case0 not discovered" true (Disasm.find dis !case0 = None);
  Alcotest.(check bool) "entry discovered" true
    (Disasm.find dis Layout.text_base <> None)

let test_flow_classification () =
  let mk inst = { Disasm.addr = 0x1000; inst; size = Inst.size inst } in
  let check name inst expect =
    Alcotest.(check bool) name true (Disasm.flow_of (mk inst) = expect)
  in
  check "ret" (Inst.Jalr (Reg.x0, Reg.ra, 0)) Disasm.Ret;
  check "indirect jump" (Inst.Jalr (Reg.x0, Reg.t0, 0)) Disasm.Indirect_jump;
  check "indirect call" (Inst.Jalr (Reg.ra, Reg.t0, 0)) Disasm.Indirect_call;
  check "call" (Inst.Jal (Reg.ra, 64)) (Disasm.Call (0x1000 + 64));
  check "jump" (Inst.Jal (Reg.x0, -8)) (Disasm.Jump (0x1000 - 8));
  check "branch" (Inst.Branch (Inst.Beq, Reg.a0, Reg.a1, 16)) (Disasm.Branch 0x1010);
  check "cbnez" (Inst.C_bnez (Reg.s0, 32)) (Disasm.Branch 0x1020);
  check "fall" (Inst.Opi (Inst.Addi, Reg.a0, Reg.a0, 1)) Disasm.Fallthrough

let code_bin sections =
  { Binfile.name = "synthetic"; entry = Layout.text_base; gp_value = 0; isa = Ext.rv64gc;
    sections =
      List.mapi
        (fun k (addr, data, perm) ->
          { Binfile.sec_name = Printf.sprintf ".s%d" k; sec_addr = addr; sec_data = data;
            sec_perm = perm })
        sections;
    symbols = [] }

let test_truncated_at_section_end () =
  (* c.nop, then the low halfword of a 4-byte addi whose high halfword would
     lie past the end of .text: undecodable, left to lazy rewriting. *)
  let data = Bytes.create 4 in
  Bytes.set_uint16_le data 0 0x0001;
  Bytes.set_uint16_le data 2 0x0013;
  let bin = code_bin [ (Layout.text_base, data, Memory.perm_rx) ] in
  let dis = Disasm.of_binfile bin in
  Alcotest.(check int) "only c.nop decoded" 1 (Disasm.count dis);
  Alcotest.(check bool) "truncated insn not found" true
    (Disasm.find dis (Layout.text_base + 2) = None);
  Alcotest.(check int) "covered bytes" 2 (Disasm.covered_bytes dis);
  Alcotest.(check bool) "c.nop has no successor" true
    (Disasm.next_insn dis Layout.text_base = None)

(* --- reference recursive descent ------------------------------------------ *)

(* The descent as first written: a Hashtbl of discovered instructions and a
   FIFO work queue, resolving the code section again for every address. It
   is the oracle for the dense, section-indexed [Disasm]. It applies the
   same hostile-input rules: an instruction starts at an even address and
   lies wholly inside its section. *)
module Reference = struct
  let decode_at (bin : Binfile.t) addr =
    if addr land 1 <> 0 then None
    else
      match List.find_opt (fun s -> Binfile.in_section s addr) (Binfile.code_sections bin) with
      | None -> None
      | Some s -> (
          let off = addr - s.Binfile.sec_addr and len = Bytes.length s.Binfile.sec_data in
          if off + 2 > len then None
          else
            let lo = Bytes.get_uint16_le s.Binfile.sec_data off in
            let hi =
              if off + 4 <= len then Bytes.get_uint16_le s.Binfile.sec_data (off + 2) else 0
            in
            match Decode.decode ~lo ~hi with
            | Decode.Ok (inst, size) when off + size <= len -> Some { Disasm.addr; inst; size }
            | Decode.Ok _ | Decode.Illegal _ -> None)

  let disasm bin ~roots =
    let insns = Hashtbl.create 64 and work = Queue.create () in
    List.iter (fun r -> Queue.add r work) roots;
    while not (Queue.is_empty work) do
      let addr = Queue.pop work in
      if not (Hashtbl.mem insns addr) then
        match decode_at bin addr with
        | None -> ()
        | Some ins -> (
            Hashtbl.replace insns addr ins;
            let next = addr + ins.Disasm.size in
            match Disasm.flow_of ins with
            | Disasm.Fallthrough | Disasm.Syscall | Disasm.Indirect_call -> Queue.add next work
            | Disasm.Branch t | Disasm.Call t ->
                Queue.add next work;
                Queue.add t work
            | Disasm.Jump t -> Queue.add t work
            | Disasm.Indirect_jump | Disasm.Ret | Disasm.Halt -> ())
    done;
    insns

  let to_list insns =
    Hashtbl.fold (fun _ i acc -> i :: acc) insns []
    |> List.sort (fun a b -> compare a.Disasm.addr b.Disasm.addr)

  let is_covered insns addr =
    Hashtbl.mem insns addr
    || match Hashtbl.find_opt insns (addr - 2) with Some i -> i.Disasm.size = 4 | None -> false

  let next_insn insns addr =
    match Hashtbl.find_opt insns addr with
    | None -> None
    | Some i -> Hashtbl.find_opt insns (addr + i.Disasm.size)
end

(* Compare every query of the dense disassembly against the reference, at
   every address of every section and a few bytes around it. *)
let agrees (bin : Binfile.t) ~roots =
  let dis = Disasm.of_binfile_at bin ~roots and r = Reference.disasm bin ~roots in
  let fail fmt = Printf.ksprintf (fun m -> QCheck.Test.fail_report m) fmt in
  let rl = Reference.to_list r in
  if Disasm.to_list dis <> rl then fail "to_list differs"
  else if Disasm.count dis <> List.length rl then fail "count differs"
  else if
    Disasm.covered_bytes dis <> List.fold_left (fun acc i -> acc + i.Disasm.size) 0 rl
  then fail "covered_bytes differs"
  else begin
    List.iter
      (fun (s : Binfile.section) ->
        for a = s.sec_addr - 6 to s.sec_addr + Bytes.length s.sec_data + 6 do
          if Disasm.find dis a <> Hashtbl.find_opt r a then fail "find 0x%x differs" a;
          if Disasm.is_covered dis a <> Reference.is_covered r a then
            fail "is_covered 0x%x differs" a;
          if Disasm.next_insn dis a <> Reference.next_insn r a then
            fail "next_insn 0x%x differs" a
        done)
      bin.Binfile.sections;
    true
  end

(* Random code: a mix of control-transfer and straight-line encodings with
   short offsets, random halfwords and single pad bytes that shift the
   stream to odd offsets. An encoding that does not fit is cut at the
   section's end. *)
let gen_code len =
  let open QCheck.Gen in
  let off = map (fun k -> 2 * k) (int_range (-16) 16) in
  let straight =
    oneof
      [ return Inst.C_nop;
        map (fun k -> Inst.Opi (Inst.Addi, Reg.a0, Reg.a0, k)) (int_range (-8) 8) ]
  in
  let transfer =
    oneof
      [ map (fun o -> Inst.C_j o) off;
        map (fun o -> Inst.C_beqz (Reg.s0, o)) off;
        map (fun o -> Inst.Branch (Inst.Beq, Reg.a0, Reg.a1, o)) off;
        map (fun o -> Inst.Jal (Reg.x0, o)) off;
        map (fun o -> Inst.Jal (Reg.ra, o)) off;
        return (Inst.Jalr (Reg.x0, Reg.ra, 0));
        return (Inst.Jalr (Reg.x0, Reg.t0, 0));
        return (Inst.Jalr (Reg.ra, Reg.t0, 0));
        return Inst.Ecall;
        return Inst.Ebreak ]
  in
  let encoded = map (fun i -> (Encode.encode i, Inst.size i)) in
  let chunk =
    frequency
      [ (12, encoded straight);
        (3, encoded transfer);
        (1, map (fun h -> (h, 2)) (int_bound 0xffff));
        (1, map (fun b -> (b, 1)) (int_bound 0xff)) ]
  in
  let+ chunks = list_repeat len chunk in
  let data = Bytes.make len '\000' in
  ignore
    (List.fold_left
       (fun at (v, size) ->
         for k = 0 to min size (len - at) - 1 do
           Bytes.set_uint8 data (at + k) ((v lsr (8 * k)) land 0xff)
         done;
         at + size)
       0 chunks);
  data

(* 1-3 executable sections of random code (odd lengths included) placed
   adjacent, overlapping, or far apart at the rewriter's base, plus a data
   section; roots anywhere near the sections — odd, outside the code,
   mid-instruction and at section ends. *)
let gen_case =
  let open QCheck.Gen in
  let* nsec = int_range 1 3 in
  let* lens = list_repeat nsec (int_range 1 160) in
  let* datas = flatten_l (List.map gen_code lens) in
  let* places = list_repeat nsec (int_range 0 3) in
  let _, secs =
    List.fold_left2
      (fun (cursor, acc) data place ->
        let addr =
          match (acc, place) with
          | [], _ -> Layout.text_base
          | _, 0 -> cursor  (* adjacent: may start at an odd address *)
          | _, 1 -> cursor - (Bytes.length data / 2) - 1  (* overlapping *)
          | _, 2 -> Layout.rewriter_base + (0x1000 * List.length acc)
          | _, _ -> cursor + 64
        in
        (addr + Bytes.length data, (addr, data, Memory.perm_rx) :: acc))
      (Layout.text_base, []) datas places
  in
  let secs = List.rev secs in
  let* data = string_size ~gen:char (int_range 8 32) in
  let* data_at = oneofl (List.map (fun (a, d, _) -> a + Bytes.length d) secs) in
  let spots =
    List.concat_map
      (fun (a, d, _) -> let e = a + Bytes.length d in [ a; a - 2; e - 4; e - 3; e - 2; e - 1; e ])
      secs
  in
  let inside =
    let* a, d, _ = oneofl secs in
    int_range (a - 8) (a + Bytes.length d + 8)
  in
  let near =
    frequency [ (1, oneofl spots); (1, inside); (3, map (fun a -> a land lnot 1) inside) ]
  in
  let* roots = list_size (int_range 1 8) near in
  return (secs @ [ (data_at, Bytes.of_string data, Memory.perm_rw) ], roots)

let prop_dense_matches_reference =
  QCheck.Test.make ~name:"dense disasm = reference descent on random code" ~count:300
    (QCheck.make gen_case)
    (fun (secs, roots) -> agrees (code_bin secs) ~roots)

let rewritten_guests () =
  List.map
    (fun (mode, bin) -> Chbp.result (Chbp.rewrite ~options:(Chbp.default_options mode) bin))
    [ (Chbp.Downgrade, Programs.matmul `Ext ~n:4);
      (Chbp.Upgrade, Programs.vecadd `Base ~n:16);
      (Chbp.Empty, Programs.vecadd `Ext ~n:16);
      (Chbp.Downgrade, Specgen.build (Specgen.find "perlbench_r")) ]

(* Rewritten binaries hold .text at the text base and .chimera.text.N at
   the rewriter's base: roots from the symbols, every target-code section
   and mid-instruction addresses. *)
let test_dense_matches_reference_rewritten () =
  List.iter
    (fun (bin : Binfile.t) ->
      let sym_roots = bin.entry :: List.map (fun s -> s.Binfile.sym_addr) bin.symbols in
      let sec_roots =
        List.concat_map
          (fun (s : Binfile.section) -> [ s.sec_addr; s.sec_addr + 2; s.sec_addr + 3 ])
          (Binfile.code_sections bin)
      in
      Alcotest.(check bool) (bin.name ^ " spans the rewriter base") true
        (List.exists (fun (s : Binfile.section) -> s.sec_addr >= Layout.rewriter_base)
           (Binfile.code_sections bin));
      Alcotest.(check bool) (bin.name ^ " from symbols") true (agrees bin ~roots:sym_roots);
      Alcotest.(check bool) (bin.name ^ " from every section") true
        (agrees bin ~roots:(sym_roots @ sec_roots)))
    (rewritten_guests ())

(* A rewritten binary's code spans ~256 MiB of addresses; the disassembly
   must cost memory in proportion to its code bytes, not to that span. *)
let test_memory_follows_code_bytes () =
  List.iter
    (fun (bin : Binfile.t) ->
      let w0 = Gc.minor_words () and _, p0, j0 = Gc.counters () in
      let dis = Disasm.of_binfile bin in
      let w1 = Gc.minor_words () and _, p1, j1 = Gc.counters () in
      ignore (Sys.opaque_identity dis);
      let words = w1 -. w0 +. (j1 -. j0) -. (p1 -. p0) in
      let code = Binfile.code_size bin in
      if words > 16. *. float_of_int code then
        Alcotest.failf "%s: %.0f words for %d code bytes" bin.name words code)
    (rewritten_guests ())

(* Deterministic work counter for the analysis layer: minor-heap words per
   discovered instruction for Disasm + Cfg + Liveness on a fixed profile.
   The dense implementation reads 40.2 on perlbench_r; the Hashtbl/list
   implementation read 172.4. *)
let analysis_words_per_insn_bound = 60.

let test_analysis_allocation_gate () =
  let bin = Specgen.build (Specgen.find "perlbench_r") in
  let w0 = Gc.minor_words () in
  let dis = Disasm.of_binfile bin in
  let live = Liveness.compute (Cfg.of_disasm dis) in
  let words = Gc.minor_words () -. w0 in
  ignore (Sys.opaque_identity live);
  let per = words /. float_of_int (Disasm.count dis) in
  if per > analysis_words_per_insn_bound then
    Alcotest.failf "analysis allocates %.1f minor words per instruction (bound %.0f)" per
      analysis_words_per_insn_bound

(* --- CFG ----------------------------------------------------------------- *)

let diamond_binary () =
  (* _start:  beq a0, x0, else
              li a1, 1
              j join
     else:    li a1, 2
     join:    exit *)
  let a = Asm.create () in
  Asm.func a "_start";
  Asm.branch_to a Inst.Beq Reg.a0 Reg.x0 "else_";
  Asm.li a Reg.a1 1;
  Asm.j a "join";
  Asm.label a "else_";
  Asm.li a Reg.a1 2;
  Asm.label a "join";
  Asm.insts a (exit_seq 0);
  Asm.assemble a

let test_cfg_diamond () =
  let bin = diamond_binary () in
  let dis = Disasm.of_binfile bin in
  let cfg = Cfg.of_disasm dis in
  let blocks = Cfg.blocks cfg in
  Alcotest.(check int) "4 blocks" 4 (List.length blocks);
  let entry = List.hd blocks in
  Alcotest.(check int) "entry block has 1 insn" 1 (List.length entry.Cfg.b_insns);
  Alcotest.(check int) "entry has 2 successors" 2 (List.length entry.Cfg.b_succs);
  (* join block has two predecessors *)
  let join =
    List.find
      (fun b ->
        match b.Cfg.b_insns with
        | { Disasm.inst = Inst.Opi (Inst.Addi, rd, _, 93); _ } :: _ ->
            Reg.equal rd Reg.a7
        | _ -> false)
      blocks
  in
  Alcotest.(check int) "join preds" 2 (List.length (Cfg.preds cfg join.Cfg.b_addr))

let test_cfg_indirect_is_unknown () =
  let a = Asm.create () in
  Asm.func a "_start";
  Asm.inst a (Inst.Jalr (Reg.x0, Reg.t0, 0));
  let bin = Asm.assemble a in
  let cfg = Cfg.of_disasm (Disasm.of_binfile bin) in
  match Cfg.blocks cfg with
  | [ b ] -> Alcotest.(check bool) "unknown succ" true (b.Cfg.b_succs = [ Cfg.Sunknown ])
  | bs -> Alcotest.failf "expected 1 block, got %d" (List.length bs)

(* --- liveness ------------------------------------------------------------ *)

let test_liveness_simple_dead_reg () =
  (* t0 is overwritten before any use -> dead at entry; a0 is read -> live. *)
  let a = Asm.create () in
  Asm.func a "_start";
  Asm.label a "probe";
  Asm.inst a (Inst.Opi (Inst.Addi, Reg.t1, Reg.a0, 1));  (* uses a0 *)
  Asm.inst a (Inst.Opi (Inst.Addi, Reg.t0, Reg.x0, 5));  (* defs t0 *)
  Asm.inst a (Inst.Op (Inst.Add, Reg.a0, Reg.t0, Reg.t1));
  Asm.insts a (exit_seq 0);
  let bin = Asm.assemble a in
  let cfg = Cfg.of_disasm (Disasm.of_binfile bin) in
  let live = Liveness.compute cfg in
  match Liveness.live_in_at live Layout.text_base with
  | None -> Alcotest.fail "no liveness at entry"
  | Some mask ->
      Alcotest.(check bool) "a0 live" true (Regmask.mem Reg.a0 mask);
      Alcotest.(check bool) "t0 dead" false (Regmask.mem Reg.t0 mask);
      (match Liveness.dead_at live Layout.text_base with
      | Some r -> Alcotest.(check bool) "found a dead temp" true
                    (not (Regmask.mem r mask))
      | None -> Alcotest.fail "expected a dead register")

let test_liveness_conservative_at_indirect () =
  (* Before an indirect jump everything is live (unknown continuation). *)
  let a = Asm.create () in
  Asm.func a "_start";
  Asm.inst a (Inst.Opi (Inst.Addi, Reg.t0, Reg.x0, 0));
  Asm.inst a (Inst.Jalr (Reg.x0, Reg.t0, 0));
  let bin = Asm.assemble a in
  let live = Liveness.compute (Cfg.of_disasm (Disasm.of_binfile bin)) in
  (* at the jalr itself: everything except its own defs is live *)
  match Liveness.live_in_at live (Layout.text_base + 4) with
  | None -> Alcotest.fail "no liveness"
  | Some mask ->
      Alcotest.(check bool) "s0 live (conservative)" true (Regmask.mem Reg.s0 mask);
      Alcotest.(check bool) "a0 live (conservative)" true (Regmask.mem Reg.a0 mask);
      Alcotest.(check bool) "dead_at finds nothing" true
        (Liveness.dead_at live (Layout.text_base + 4) = None)

let test_liveness_call_clobbers () =
  (* After a call, caller-saved registers are dead (clobbered by the call)
     unless reloaded; callee-saved survive. *)
  let a = Asm.create () in
  Asm.func a "_start";
  Asm.call a "f";
  Asm.label a "after";
  Asm.inst a (Inst.Op (Inst.Add, Reg.a0, Reg.s0, Reg.s0));  (* uses s0 *)
  Asm.insts a (exit_seq 0);
  Asm.func a "f";
  Asm.ret a;
  let bin = Asm.assemble a in
  let live = Liveness.compute (Cfg.of_disasm (Disasm.of_binfile bin)) in
  (* at the call: argument registers are live (callee may read them), and
     s0 is live (used after return). t-registers are not. *)
  match Liveness.live_in_at live Layout.text_base with
  | None -> Alcotest.fail "no liveness"
  | Some mask ->
      Alcotest.(check bool) "a0 live at call" true (Regmask.mem Reg.a0 mask);
      Alcotest.(check bool) "s0 live at call" true (Regmask.mem Reg.s0 mask);
      Alcotest.(check bool) "t3 dead at call" false (Regmask.mem Reg.t3 mask)

let test_liveness_loop () =
  (* Loop counter stays live around the back edge. *)
  let a = Asm.create () in
  Asm.func a "_start";
  Asm.li a Reg.t0 10;
  Asm.label a "loop";
  Asm.inst a (Inst.Opi (Inst.Addi, Reg.t0, Reg.t0, -1));
  Asm.branch_to a Inst.Bne Reg.t0 Reg.x0 "loop";
  Asm.insts a (exit_seq 0);
  let bin = Asm.assemble a in
  let live = Liveness.compute (Cfg.of_disasm (Disasm.of_binfile bin)) in
  (* inside the loop body, t0 is live *)
  match Liveness.live_in_at live (Layout.text_base + 4) with
  | None -> Alcotest.fail "no liveness"
  | Some mask -> Alcotest.(check bool) "t0 live in loop" true (Regmask.mem Reg.t0 mask)

let test_liveness_return_abi () =
  (* at a ret, only a0/a1 + callee-saved are live: t-registers are dead *)
  let a = Asm.create () in
  Asm.func a "_start";
  Asm.call a "f";
  Asm.insts a (exit_seq 0);
  Asm.func a "f";
  Asm.inst a (Inst.Opi (Inst.Addi, Reg.t3, Reg.x0, 7));
  Asm.ret a;
  let bin = Asm.assemble a in
  let cfg = Cfg.of_disasm (Disasm.of_binfile bin) in
  let live = Liveness.compute cfg in
  let f = (Binfile.symbol bin "f").Binfile.sym_addr in
  let dead = Liveness.dead_regs_at live f in
  Alcotest.(check bool) "t3 dead before its own def... is live-out as write target"
    true
    (List.exists (Reg.equal Reg.t4) dead);
  Alcotest.(check bool) "a0 not dead at a return-reaching point" false
    (List.exists (Reg.equal Reg.a0) dead)

let test_liveness_avoid_filter () =
  let a = Asm.create () in
  Asm.func a "_start";
  Asm.insts a (exit_seq 3);
  let bin = Asm.assemble a in
  let cfg = Cfg.of_disasm (Disasm.of_binfile bin) in
  let live = Liveness.compute cfg in
  let entry = bin.Binfile.entry in
  (match Liveness.dead_at live entry with
  | Some r ->
      (* asking to avoid that exact register must yield a different one *)
      (match Liveness.dead_at live ~avoid:[ r ] entry with
      | Some r' -> Alcotest.(check bool) "avoided" false (Reg.equal r r')
      | None -> ())
  | None -> Alcotest.fail "trivial program must have a dead register")

let test_cfg_splits_at_branch_target () =
  (* a backwards branch into the middle of straight-line code must split
     the containing block exactly at the target *)
  let a = Asm.create () in
  Asm.func a "_start";
  Asm.li a Reg.t0 3;
  Asm.label a "top";
  Asm.inst a (Inst.Opi (Inst.Addi, Reg.t1, Reg.t1, 1));
  Asm.inst a (Inst.Opi (Inst.Addi, Reg.t0, Reg.t0, -1));
  Asm.branch_to a Inst.Bne Reg.t0 Reg.x0 "top";
  Asm.insts a (exit_seq 0);
  let bin = Asm.assemble a in
  let cfg = Cfg.of_disasm (Disasm.of_binfile bin) in
  (* the loop head starts its own block even though control falls into it *)
  let top = bin.Binfile.entry + 4 in  (* li = one addi *)
  match Cfg.block_containing cfg top with
  | Some b -> Alcotest.(check int) "block starts at branch target" top b.Cfg.b_addr
  | None -> Alcotest.fail "no block at loop head"

let test_cfg_dot_render () =
  let a = Asm.create () in
  Asm.func a "_start";
  Asm.branch_to a Inst.Beq Reg.a0 Reg.x0 "z";
  Asm.li a Reg.a0 1;
  Asm.label a "z";
  Asm.insts a (exit_seq 0);
  let bin = Asm.assemble a in
  let cfg = Cfg.of_disasm (Disasm.of_binfile bin) in
  let dot = Format.asprintf "%a" Cfg.pp_dot cfg in
  Alcotest.(check bool) "digraph wrapper" true
    (String.length dot > 10 && String.sub dot 0 7 = "digraph");
  (* one node line per block *)
  let blocks = List.length (Cfg.blocks cfg) in
  let count_sub sub =
    let n = ref 0 and i = ref 0 in
    let ls = String.length sub in
    while !i + ls <= String.length dot do
      if String.sub dot !i ls = sub then incr n;
      incr i
    done;
    !n
  in
  Alcotest.(check int) "one label per block" blocks (count_sub "label=")

let test_regmask () =
  let m = Regmask.of_list [ Reg.a0; Reg.t0 ] in
  Alcotest.(check bool) "mem a0" true (Regmask.mem Reg.a0 m);
  Alcotest.(check bool) "not mem a1" false (Regmask.mem Reg.a1 m);
  Alcotest.(check bool) "x0 never in mask" false (Regmask.mem Reg.x0 Regmask.all);
  Alcotest.(check int) "diff" (Regmask.singleton Reg.t0)
    (Regmask.diff m (Regmask.singleton Reg.a0));
  Alcotest.(check (list string)) "to_list" [ "t0"; "a0" ]
    (List.map Reg.name (Regmask.to_list m))

let () =
  Alcotest.run "riscv_analysis"
    [ ("disasm",
       [ Alcotest.test_case "linear coverage" `Quick test_linear_coverage;
         Alcotest.test_case "branches and calls" `Quick test_follows_branches_and_calls;
         Alcotest.test_case "jump table gap" `Quick
           test_jump_table_targets_missed_without_symbols;
         Alcotest.test_case "flow classification" `Quick test_flow_classification;
         Alcotest.test_case "truncated at section end" `Quick test_truncated_at_section_end;
         QCheck_alcotest.to_alcotest prop_dense_matches_reference;
         Alcotest.test_case "dense = reference on rewritten binaries" `Quick
           test_dense_matches_reference_rewritten;
         Alcotest.test_case "memory follows code bytes" `Quick test_memory_follows_code_bytes;
         Alcotest.test_case "allocation gate" `Quick test_analysis_allocation_gate ]);
      ("cfg",
       [ Alcotest.test_case "diamond" `Quick test_cfg_diamond;
         Alcotest.test_case "indirect unknown" `Quick test_cfg_indirect_is_unknown ]);
      ("liveness",
       [ Alcotest.test_case "dead register" `Quick test_liveness_simple_dead_reg;
         Alcotest.test_case "conservative at indirect" `Quick
           test_liveness_conservative_at_indirect;
         Alcotest.test_case "call clobbers" `Quick test_liveness_call_clobbers;
         Alcotest.test_case "loop" `Quick test_liveness_loop;
         Alcotest.test_case "return ABI mask" `Quick test_liveness_return_abi;
         Alcotest.test_case "avoid filter" `Quick test_liveness_avoid_filter;
         Alcotest.test_case "regmask" `Quick test_regmask ]);
      ("cfg-extra",
       [ Alcotest.test_case "splits at branch target" `Quick
           test_cfg_splits_at_branch_target;
         Alcotest.test_case "dot rendering" `Quick test_cfg_dot_render ]) ]
