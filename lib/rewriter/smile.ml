(* Derivation of the fixed jalr immediate (paper Fig. 7b). The upper
   halfword of [jalr gp, imm(gp)] is [imm12[11:0] . rs1[4:1]] =
   [imm12 << 4 | 0b0001]. For it to be a reserved C1 compressed encoding we
   need: quadrant bits [1:0] = 01 (given by rs1 = x3), funct3 = imm12[11:9]
   = 100 (C1 misc-alu), and within misc-alu the reserved rows bit12 =
   imm12[8] = 1, bits[11:10] = imm12[7:6] = 11, bits[6:5] = imm12[2:1] = 11.
   Free bits imm12[5:3] and imm12[0] are zero. *)
let jalr_imm = Encode.sext 0b1001_1100_0110 12

let jalr_inst = Inst.Jalr (Reg.gp, Reg.gp, jalr_imm)
let auipc_inst ~imm20 = Inst.Auipc (Reg.gp, imm20)

(* auipc word bits 16..20 are imm20 bits 4..8. *)
let imm20_compressed_safe imm20 = (imm20 lsr 4) land 0x1F = 0x1F

let target_of ~pc ~imm20 = pc + (imm20 lsl 12) + jalr_imm

let solve_imm20 ~pc ~target =
  let delta = target - jalr_imm - pc in
  if delta land 0xFFF <> 0 then None
  else
    let imm20 = delta asr 12 in
    if Encode.fits_signed imm20 20 then Some imm20 else None

let next_target ~pc ~min ~compressed =
  (* Candidate page counts p (= imm20) with target = pc + (p<<12) + jalr_imm;
     smallest target >= min. *)
  let delta = min - jalr_imm - pc in
  let p = if delta <= 0 then 0 else (delta + 0xFFF) asr 12 in
  let p =
    if not compressed then p
    else if (p lsr 4) land 0x1F = 0x1F then p
    else
      (* raise bits 4..8 to 11111; clearing the low 4 bits keeps the result
         minimal and >= p because 0x1F0 dominates any lower-bit value. *)
      ((p asr 9) lsl 9) lor 0x1F0
  in
  if not (Encode.fits_signed p 20) then
    invalid_arg
      (Printf.sprintf "Smile.next_target: 0x%x unreachable from pc 0x%x" min pc);
  target_of ~pc ~imm20:p

let size = 8

let m_smile_writes =
  Metrics.counter ~help:"SMILE auipc+jalr pairs written" "chimera_smile_writes_total"

let write buf ~off ~pc ~target ~compressed =
  match solve_imm20 ~pc ~target with
  | None ->
      invalid_arg
        (Printf.sprintf "Smile.write: target 0x%x not admissible from pc 0x%x" target pc)
  | Some imm20 ->
      if compressed && not (imm20_compressed_safe imm20) then
        invalid_arg
          (Printf.sprintf
             "Smile.write: imm20 0x%x not compressed-safe (pc 0x%x, target 0x%x)"
             imm20 pc target);
      Metrics.incr m_smile_writes;
      if !Obs.enabled then Obs.emit (Obs.Smile_write { pc; target });
      let n1 = Encode.write buf off (auipc_inst ~imm20) in
      ignore (Encode.write buf (off + n1) jalr_inst)
