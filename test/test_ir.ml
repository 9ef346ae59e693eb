(* Golden tests for the IR translation passes (lib/machine/tir.ml): small
   deterministic programs whose architectural result AND pass statistics
   (the chimera_ir_*_total metrics) are both pinned. The differential property tests
   prove the passes are invisible to guest semantics; these prove each pass
   actually fires on the pattern it exists for — a silent pass regression
   (e.g. a lowering change that stops runs from forming) would keep every
   differential test green while quietly giving the speedup back. *)

let base_isa = Ext.rv64gc

let build body =
  let a = Asm.create ~name:"irgold" () in
  Asm.func a "_start";
  body a;
  Asm.li a Reg.a7 93;
  Asm.inst a Inst.Ecall;
  Asm.assemble a

(* Run [bin] and return its stop with a reader of the IR pass counters it
   added: [ir "folded"] is the chimera_ir_folded_total delta. *)
let run_collect bin =
  let before = Metrics.Snapshot.take () in
  let mem = Loader.load bin in
  let m = Machine.create ~mem ~isa:base_isa () in
  Loader.init_machine m bin;
  let stop = Machine.run ~fuel:100_000 m in
  let d = Metrics.Snapshot.delta ~cur:(Metrics.Snapshot.take ()) ~prev:before in
  (stop, fun pass -> Metrics.Snapshot.counter_value d ("chimera_ir_" ^ pass ^ "_total"))

let exit_code = function
  | Machine.Exited c -> c
  | Machine.Faulted f -> Alcotest.failf "faulted: %s" (Fault.to_string f)
  | Machine.Fuel_exhausted -> Alcotest.fail "fuel exhausted"

(* Constant propagation: li-seeded registers flow through an alu chain at
   translation time; every op folds to a Kconst and the operand reads are
   served from the cached constants, not the register file. *)
let test_const_fold () =
  let bin =
    build (fun a ->
        Asm.li a Reg.t1 5;
        Asm.li a Reg.t2 7;
        Asm.inst a (Inst.Op (Inst.Add, Reg.t3, Reg.t1, Reg.t2));
        Asm.inst a (Inst.Op (Inst.Xor, Reg.t4, Reg.t3, Reg.t1));
        Asm.inst a (Inst.Opi (Inst.Addi, Reg.t5, Reg.t4, 1));
        Asm.inst a (Inst.Opi (Inst.Andi, Reg.a0, Reg.t5, 255)))
  in
  let stop, ir = run_collect bin in
  (* 5 + 7 = 12; 12 xor 5 = 9; 9 + 1 = 10 *)
  Alcotest.(check int) "exit" 10 (exit_code stop);
  Alcotest.(check bool) "folded >= 4 (add, xor, addi, andi)" true
    (ir "folded" >= 4);
  Alcotest.(check bool) "cached operand reads" true (ir "cached" >= 4)

(* Dead-write elimination: overwritten register writes inside one straight
   pure run never reach the register file. *)
let test_dead_writes () =
  let bin =
    build (fun a ->
        Asm.li a Reg.t1 1;
        Asm.li a Reg.t1 2;
        Asm.li a Reg.t1 3;
        Asm.inst a (Inst.Opi (Inst.Addi, Reg.a0, Reg.t1, 0)))
  in
  let stop, ir = run_collect bin in
  Alcotest.(check int) "exit" 3 (exit_code stop);
  Alcotest.(check bool) "two overwritten writes killed" true
    (ir "dead" >= 2)

(* Pure runs are emitted as merged units with no per-instruction pc writes:
   the pc-elision counter covers the whole chain, and the unit count is far
   below the instruction count. *)
let test_pc_elision () =
  let bin =
    build (fun a ->
        Asm.li a Reg.t1 1;
        for _ = 1 to 10 do
          Asm.inst a (Inst.Opi (Inst.Addi, Reg.t1, Reg.t1, 1))
        done;
        Asm.inst a (Inst.Opi (Inst.Andi, Reg.a0, Reg.t1, 255)))
  in
  let stop, ir = run_collect bin in
  Alcotest.(check int) "exit" 11 (exit_code stop);
  Alcotest.(check bool) "pure ops emitted without pc writes" true
    (ir "pc_elided" >= 10);
  Alcotest.(check bool)
    (Printf.sprintf "merged into few units (got %d)" (ir "units"))
    true
    (ir "units" <= 6)

(* TLB-check elision: adjacent 8-byte loads (and stores) off one base share
   a single translated check; the RMW triple collapses into one unit. *)
let test_tlb_elision () =
  let a = Asm.create ~name:"irgold-tlb" () in
  Asm.func a "_start";
  (* load the data pointer from memory: a la-seeded base would be a
     translation-time constant and the accesses would compile to the
     static-address forms, which need no pairing to skip the TLB walk *)
  Asm.la a Reg.t0 "ptr";
  Asm.inst a
    (Inst.Load { width = Inst.D; unsigned = false; rd = Reg.a0; rs1 = Reg.t0; imm = 0 });
  Asm.inst a
    (Inst.Load { width = Inst.D; unsigned = false; rd = Reg.t1; rs1 = Reg.a0; imm = 0 });
  Asm.inst a
    (Inst.Load { width = Inst.D; unsigned = false; rd = Reg.t2; rs1 = Reg.a0; imm = 8 });
  Asm.inst a (Inst.Store { width = Inst.D; rs2 = Reg.t1; rs1 = Reg.a0; imm = 16 });
  Asm.inst a (Inst.Store { width = Inst.D; rs2 = Reg.t2; rs1 = Reg.a0; imm = 24 });
  Asm.inst a
    (Inst.Load { width = Inst.D; unsigned = false; rd = Reg.t3; rs1 = Reg.a0; imm = 32 });
  Asm.inst a (Inst.Opi (Inst.Addi, Reg.t3, Reg.t3, 5));
  Asm.inst a (Inst.Store { width = Inst.D; rs2 = Reg.t3; rs1 = Reg.a0; imm = 32 });
  Asm.inst a (Inst.Op (Inst.Add, Reg.t1, Reg.t1, Reg.t2));
  Asm.inst a (Inst.Op (Inst.Add, Reg.t1, Reg.t1, Reg.t3));
  Asm.inst a (Inst.Opi (Inst.Andi, Reg.a0, Reg.t1, 255));
  Asm.li a Reg.a7 93;
  Asm.inst a Inst.Ecall;
  Asm.rlabel a "ptr";
  Asm.rword_label a "data";
  Asm.dlabel a "data";
  List.iter (Asm.dword64 a) [ 1L; 2L; 0L; 0L; 10L; 0L ];
  let bin = Asm.assemble a in
  let stop, ir = run_collect bin in
  (* t1 = 1, t2 = 2, t3 = 10 + 5; exit (1 + 2 + 15) land 255 = 18 *)
  Alcotest.(check int) "exit" 18 (exit_code stop);
  Alcotest.(check bool) "ld_pair + st_pair elide TLB checks" true
    (ir "tlb_elided" >= 2);
  Alcotest.(check bool) "fusion reduced unit count" true
    (ir "units" < 10)

(* Cached constants must still be architecturally visible at a side exit: a
   taken inlined branch leaves the block after folded ops, and the folded
   register values have to be in the register file at that point. *)
let test_fold_visible_at_side_exit () =
  let a = Asm.create ~name:"irgold-exit" () in
  Asm.func a "_start";
  Asm.li a Reg.t1 5;
  Asm.inst a (Inst.Opi (Inst.Addi, Reg.t1, Reg.t1, 2));
  (* taken branch: superblock formation inlines it; the exit must observe
     the folded t1 = 7 *)
  Asm.branch_to a Inst.Bne Reg.t1 Reg.x0 "out";
  Asm.inst a (Inst.Opi (Inst.Addi, Reg.t1, Reg.t1, 100));
  Asm.label a "out";
  Asm.inst a (Inst.Opi (Inst.Andi, Reg.a0, Reg.t1, 255));
  Asm.li a Reg.a7 93;
  Asm.inst a Inst.Ecall;
  let bin = Asm.assemble a in
  let stop, ir = run_collect bin in
  Alcotest.(check int) "exit sees folded value" 7 (exit_code stop);
  Alcotest.(check bool) "the addi folded" true (ir "folded" >= 1)

(* Straight-line execution allocates nothing: once a loop of ALU ops,
   8-byte loads and stores (paired and read-modify-write) and a backward
   branch runs as a chained top-tier block, the guest registers live
   unboxed in the register file and a dispatch reuses its chain link, so
   the minor heap only sees the per-[run] bookkeeping. A hot path that
   boxes register values (an Int64 box is 3 words) overshoots the limit by
   well over an order of magnitude. *)
let alloc_loop () =
  let a = Asm.create ~name:"irgold-alloc" () in
  Asm.func a "_start";
  Asm.la a Reg.t0 "ptr";
  Asm.inst a
    (Inst.Load { width = Inst.D; unsigned = false; rd = Reg.a0; rs1 = Reg.t0; imm = 0 });
  Asm.li a Reg.a1 1_000_000;
  Asm.label a "L";
  let ld rd imm =
    Asm.inst a (Inst.Load { width = Inst.D; unsigned = false; rd; rs1 = Reg.a0; imm })
  and sd rs2 imm = Asm.inst a (Inst.Store { width = Inst.D; rs2; rs1 = Reg.a0; imm }) in
  ld Reg.t1 0;
  ld Reg.t2 8;
  Asm.inst a (Inst.Op (Inst.Add, Reg.t3, Reg.t1, Reg.t2));
  Asm.inst a (Inst.Op (Inst.Xor, Reg.t4, Reg.t3, Reg.a1));
  Asm.inst a (Inst.Opi (Inst.Slli, Reg.t5, Reg.t4, 3));
  Asm.inst a (Inst.Op (Inst.Sltu, Reg.t6, Reg.t5, Reg.t1));
  Asm.inst a (Inst.Op (Inst.Sub, Reg.t3, Reg.t3, Reg.t6));
  sd Reg.t3 16;
  sd Reg.t4 24;
  ld Reg.t5 32;
  Asm.inst a (Inst.Opi (Inst.Addi, Reg.t5, Reg.t5, 1));
  sd Reg.t5 32;
  Asm.inst a (Inst.Opi (Inst.Addi, Reg.t1, Reg.t1, 7));
  sd Reg.t1 0;
  Asm.inst a (Inst.Opi (Inst.Addi, Reg.a1, Reg.a1, -1));
  Asm.branch_to a Inst.Bne Reg.a1 Reg.x0 "L";
  Asm.li a Reg.a7 93;
  Asm.inst a Inst.Ecall;
  Asm.rlabel a "ptr";
  Asm.rword_label a "data";
  Asm.dlabel a "data";
  List.iter (Asm.dword64 a) [ 1L; 2L; 0L; 0L; 10L ];
  Asm.assemble a

let test_steady_state_allocation () =
  let bin = alloc_loop () in
  let mem = Loader.load bin in
  let config = { Machine.default_config with tiered = true } in
  let m = Machine.create ~config ~mem ~isa:base_isa () in
  Loader.init_machine m bin;
  (* warm up: promotion to the top tier and chain formation *)
  ignore (Machine.run ~fuel:100_000 m);
  Alcotest.(check bool) "loop block reached tier 3" true
    (List.exists (fun b -> b.Machine.bi_tier = 3) (Machine.block_infos m));
  let r0 = Machine.retired m in
  let w0 = Gc.minor_words () in
  (match Machine.run ~fuel:2_000_000 m with
  | Machine.Fuel_exhausted -> ()
  | _ -> Alcotest.fail "the loop stopped before the fuel ran out");
  let words = Gc.minor_words () -. w0 in
  let per_inst = words /. float_of_int (Machine.retired m - r0) in
  Alcotest.(check bool)
    (Printf.sprintf "%.4f minor words per retired instruction (limit 0.05)" per_inst)
    true (per_inst <= 0.05)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "chimera_ir"
    [ ("passes",
       [ tc "const folding + cached operands" `Quick test_const_fold;
         tc "dead-write elimination" `Quick test_dead_writes;
         tc "pc-write elision over pure runs" `Quick test_pc_elision;
         tc "TLB-check elision on paired accesses" `Quick test_tlb_elision;
         tc "folded values visible at side exit" `Quick
           test_fold_visible_at_side_exit ]);
      ("allocation",
       [ tc "steady-state top-tier loop allocates nothing" `Quick
           test_steady_state_allocation ]) ]
