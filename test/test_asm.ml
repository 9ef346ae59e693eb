(* Tests for riscv_binary + riscv_asm: assembling, linking, loading and
   running complete binaries. *)


let run_binary ?(fuel = 1_000_000) bin =
  let mem = Loader.load bin in
  let m = Machine.create ~mem ~isa:Ext.all () in
  Loader.init_machine m bin;
  (Machine.run ~fuel m, m)

let expect_exit ?fuel bin code =
  match run_binary ?fuel bin with
  | Machine.Exited c, _ -> Alcotest.(check int) "exit code" code c
  | Machine.Faulted f, _ -> Alcotest.failf "fault: %s" (Fault.to_string f)
  | Machine.Fuel_exhausted, _ -> Alcotest.fail "fuel exhausted"

let exit_seq a =
  [ Inst.Opi (Inst.Addi, Reg.a7, Reg.x0, 93); Inst.Opi (Inst.Addi, Reg.a0, Reg.x0, a);
    Inst.Ecall ]

(* --- basic programs ----------------------------------------------------- *)

let test_trivial () =
  let a = Asm.create ~name:"trivial" () in
  Asm.func a "_start";
  Asm.insts a (exit_seq 7);
  expect_exit (Asm.assemble a) 7

let test_call_and_data () =
  (* main calls square(6), stores to data, loads back, exits with it. *)
  let a = Asm.create ~name:"square" () in
  Asm.func a "_start";
  Asm.li a Reg.a0 6;
  Asm.call a "square";
  Asm.la a Reg.t0 "result";
  Asm.inst a (Inst.Store { width = Inst.D; rs2 = Reg.a0; rs1 = Reg.t0; imm = 0 });
  Asm.inst a (Inst.Load { width = Inst.D; unsigned = false; rd = Reg.a0; rs1 = Reg.t0; imm = 0 });
  Asm.li a Reg.a7 93;
  Asm.inst a Inst.Ecall;
  Asm.func a "square";
  Asm.inst a (Inst.Op (Inst.Mul, Reg.a0, Reg.a0, Reg.a0));
  Asm.ret a;
  Asm.dlabel a "result";
  Asm.dword64 a 0L;
  expect_exit (Asm.assemble a) 36

let test_forward_and_backward_branches () =
  let a = Asm.create () in
  Asm.func a "_start";
  Asm.li a Reg.t0 0;
  Asm.li a Reg.t1 5;
  Asm.label a "loop";
  Asm.inst a (Inst.Opi (Inst.Addi, Reg.t0, Reg.t0, 1));
  Asm.branch_to a Inst.Blt Reg.t0 Reg.t1 "loop";
  Asm.branch_to a Inst.Beq Reg.t0 Reg.t1 "good";
  Asm.insts a (exit_seq 1);
  Asm.label a "good";
  Asm.insts a (exit_seq 0);
  expect_exit (Asm.assemble a) 0

let test_jump_table_dispatch () =
  (* Classic switch: jump through an rodata table of code addresses. *)
  let a = Asm.create () in
  Asm.func a "_start";
  Asm.li a Reg.t0 2;  (* case index *)
  Asm.la a Reg.t1 "table";
  Asm.inst a (Inst.Opi (Inst.Slli, Reg.t2, Reg.t0, 3));
  Asm.inst a (Inst.Op (Inst.Add, Reg.t1, Reg.t1, Reg.t2));
  Asm.inst a (Inst.Load { width = Inst.D; unsigned = false; rd = Reg.t3; rs1 = Reg.t1; imm = 0 });
  Asm.inst a (Inst.Jalr (Reg.x0, Reg.t3, 0));
  Asm.label a "case0";
  Asm.insts a (exit_seq 10);
  Asm.label a "case1";
  Asm.insts a (exit_seq 11);
  Asm.label a "case2";
  Asm.insts a (exit_seq 12);
  Asm.rlabel a "table";
  Asm.rword_label a "case0";
  Asm.rword_label a "case1";
  Asm.rword_label a "case2";
  expect_exit (Asm.assemble a) 12

let test_compressed_branches () =
  let a = Asm.create () in
  Asm.func a "_start";
  Asm.li a Reg.a0 3;
  Asm.label a "loop";
  Asm.inst a (Inst.C_addi (Reg.a0, -1));
  Asm.cbnez_to a Reg.a0 "loop";
  Asm.insts a (exit_seq 0);
  let bin = Asm.assemble a in
  Alcotest.(check bool) "binary uses C" true (Ext.mem Ext.C bin.Binfile.isa);
  expect_exit bin 0

let test_gp_relative_access () =
  (* The ABI idiom the SMILE trampoline relies on: loads addressed off gp. *)
  let a = Asm.create () in
  Asm.func a "_start";
  (* store 99 at gp+16, load it back via gp *)
  Asm.li a Reg.t0 99;
  Asm.inst a (Inst.Store { width = Inst.D; rs2 = Reg.t0; rs1 = Reg.gp; imm = 16 });
  Asm.inst a (Inst.Load { width = Inst.D; unsigned = false; rd = Reg.a0; rs1 = Reg.gp; imm = 16 });
  Asm.li a Reg.a7 93;
  Asm.inst a Inst.Ecall;
  let bin = Asm.assemble a in
  Alcotest.(check int) "gp value" Layout.gp_value bin.Binfile.gp_value;
  (match run_binary bin with
  | Machine.Exited 99, _ -> ()
  | _ -> Alcotest.fail "gp-relative access failed");
  (* and gp points to non-executable memory *)
  let mem = Loader.load bin in
  match Memory.perm_at mem Layout.gp_value with
  | Some p ->
      Alcotest.(check bool) "gp segment not executable" false p.Memory.x;
      Alcotest.(check bool) "gp segment writable" true p.Memory.w
  | None -> Alcotest.fail "gp page unmapped"

let test_symbols_and_sizes () =
  let a = Asm.create () in
  Asm.func a "_start";
  Asm.insts a (exit_seq 0);  (* 3 insts = 12 bytes *)
  Asm.func a "f";
  Asm.ret a;  (* 4 bytes *)
  Asm.func a "g";
  Asm.ret a;
  let bin = Asm.assemble a in
  let s = Binfile.symbol bin "_start" in
  Alcotest.(check int) "_start addr" Layout.text_base s.Binfile.sym_addr;
  Alcotest.(check int) "_start size" 12 s.Binfile.sym_size;
  let f = Binfile.symbol bin "f" in
  Alcotest.(check int) "f size" 4 f.Binfile.sym_size;
  Alcotest.(check int) "code size" 20 (Binfile.code_size bin)

let test_hidden_func_not_in_symbols () =
  let a = Asm.create () in
  Asm.func a "_start";
  Asm.insts a (exit_seq 0);
  Asm.hidden_func a "shadow";
  Asm.ret a;
  let bin = Asm.assemble a in
  (match Binfile.symbol bin "shadow" with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "hidden func leaked into symbols");
  Alcotest.(check int) "only one symbol" 1 (List.length bin.Binfile.symbols)

let test_unresolved_label_fails () =
  let a = Asm.create () in
  Asm.func a "_start";
  Asm.j a "nowhere";
  match Asm.assemble a with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected unresolved-label failure"

let test_save_load_roundtrip () =
  let a = Asm.create ~name:"persisted" () in
  Asm.func a "_start";
  Asm.insts a (exit_seq 5);
  let bin = Asm.assemble a in
  let path = Filename.temp_file "chimera_test" ".self" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Binfile.save path bin;
      let bin' = Binfile.load_file path in
      Alcotest.(check string) "name" "persisted" bin'.Binfile.name;
      expect_exit bin' 5)

let test_data_byte_emission () =
  (* dbyte packs one byte per call, little-endian within later words *)
  let a = Asm.create () in
  Asm.func a "_start";
  Asm.la a Reg.a0 "tbl";
  Asm.inst a (Inst.Load { width = Inst.B; unsigned = true; rd = Reg.t0; rs1 = Reg.a0; imm = 2 });
  Asm.inst a (Inst.Opi (Inst.Addi, Reg.a0, Reg.t0, 0));
  Asm.li a Reg.a7 93;
  Asm.inst a Inst.Ecall;
  Asm.dlabel a "tbl";
  List.iter (Asm.dbyte a) [ 0x11; 0x22; 0x33; 0x44 ];
  let bin = Asm.assemble a in
  let mem = Loader.load bin in
  let m = Machine.create ~mem ~isa:Ext.rv64gc () in
  Loader.init_machine m bin;
  match Machine.run ~fuel:1_000 m with
  | Machine.Exited c -> Alcotest.(check int) "third byte" 0x33 c
  | _ -> Alcotest.fail "run failed"

let test_vanilla_jump_abs () =
  (* Codebuf's ±2GiB trampoline reaches a far label. *)
  let a = Asm.create () in
  Asm.func a "_start";
  (* jump to "far" using the vanilla trampoline through t0 *)
  let cb_target = Layout.text_base + 4096 in
  Asm.inst a (Inst.Auipc (Reg.t0, Encode.hi20 (cb_target - Layout.text_base)));
  Asm.inst a (Inst.Jalr (Reg.x0, Reg.t0, Encode.lo12 (cb_target - Layout.text_base)));
  (* pad with traps up to 4096, then the landing pad *)
  for _ = 1 to (4096 - Asm.here a) / 4 do
    Asm.inst a Inst.Ebreak
  done;
  Asm.insts a (exit_seq 3);
  expect_exit (Asm.assemble a) 3

(* --- concurrent encoding ------------------------------------------------- *)

let test_codebuf_concurrent_encoding () =
  (* Rewriters encode on parallel domains (bench cells, serve workers).
     Each domain encodes its own stream many times; every result must be
     byte-identical to the same stream encoded alone on one domain, so no
     encoding state may be shared between buffers. *)
  let n_domains = 4 and rounds = 40 and len = 2000 in
  let stream d =
    let rng = Random.State.make [| d |] in
    List.init len (fun _ ->
        let rd = Reg.of_int (5 + d) and rs = Reg.of_int (1 + Random.State.int rng 31) in
        match Random.State.int rng 3 with
        | 0 -> Inst.Opi (Inst.Addi, rd, rs, Random.State.int rng 2048 - 1024)
        | 1 -> Inst.Op (Inst.Xor, rd, rs, Reg.of_int (16 + d))
        | _ -> Inst.Lui (rd, Random.State.int rng 0x80000))
  in
  let encode is =
    let cb = Codebuf.create () in
    Codebuf.insts cb is;
    Codebuf.link cb ~base:0x10000 ~resolve:(fun _ -> None)
  in
  let streams = List.init n_domains stream in
  let expected = List.map encode streams in
  let worker is want () =
    let bad = ref 0 in
    for _ = 1 to rounds do
      if not (Bytes.equal (encode is) want) then incr bad
    done;
    !bad
  in
  let doms =
    List.map2 (fun is want -> Domain.spawn (worker is want)) streams expected
  in
  let bad = List.fold_left (fun acc d -> acc + Domain.join d) 0 doms in
  Alcotest.(check int) "corrupt encodings" 0 bad

let () =
  Alcotest.run "riscv_asm"
    [ ("programs",
       [ Alcotest.test_case "trivial exit" `Quick test_trivial;
         Alcotest.test_case "call and data" `Quick test_call_and_data;
         Alcotest.test_case "branches" `Quick test_forward_and_backward_branches;
         Alcotest.test_case "jump table" `Quick test_jump_table_dispatch;
         Alcotest.test_case "compressed branches" `Quick test_compressed_branches;
         Alcotest.test_case "gp-relative data" `Quick test_gp_relative_access;
         Alcotest.test_case "far jump" `Quick test_vanilla_jump_abs;
         Alcotest.test_case "data bytes" `Quick test_data_byte_emission;
         Alcotest.test_case "concurrent codebuf encoding" `Quick
           test_codebuf_concurrent_encoding ]);
      ("binfile",
       [ Alcotest.test_case "symbols and sizes" `Quick test_symbols_and_sizes;
         Alcotest.test_case "hidden functions" `Quick test_hidden_func_not_in_symbols;
         Alcotest.test_case "unresolved label" `Quick test_unresolved_label_fails;
         Alcotest.test_case "save/load" `Quick test_save_load_roundtrip ]) ]
