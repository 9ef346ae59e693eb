type insn = { addr : int; inst : Inst.t; size : int }

type flow =
  | Fallthrough
  | Branch of int
  | Jump of int
  | Call of int
  | Indirect_jump
  | Indirect_call
  | Ret
  | Syscall
  | Halt

let flow_of { addr; inst; _ } =
  match inst with
  | Inst.Branch (_, _, _, off) -> Branch (addr + off)
  | Inst.C_beqz (_, off) | Inst.C_bnez (_, off) -> Branch (addr + off)
  | Inst.Jal (rd, off) ->
      if Reg.equal rd Reg.x0 then Jump (addr + off) else Call (addr + off)
  | Inst.C_j off -> Jump (addr + off)
  | Inst.Jalr (rd, rs1, imm) ->
      if Reg.equal rd Reg.x0 then
        if Reg.equal rs1 Reg.ra && imm = 0 then Ret else Indirect_jump
      else Indirect_call
  | Inst.Xcheck_jalr (rd, _, _) ->
      if Reg.equal rd Reg.x0 then Indirect_jump else Indirect_call
  | Inst.C_jr rs1 -> if Reg.equal rs1 Reg.ra then Ret else Indirect_jump
  | Inst.C_jalr _ -> Indirect_call
  | Inst.Ecall -> Syscall
  | Inst.Ebreak | Inst.C_ebreak -> Halt
  | Inst.Lui _ | Inst.Auipc _ | Inst.Load _ | Inst.Store _ | Inst.Op _
  | Inst.Opi _ | Inst.C_nop | Inst.C_addi _ | Inst.C_li _ | Inst.C_mv _
  | Inst.C_add _ | Inst.C_ld _ | Inst.C_sd _ | Inst.C_lw _ | Inst.C_sw _
  | Inst.C_lui _ | Inst.C_addiw _ | Inst.C_andi _ | Inst.C_alu _
  | Inst.C_slli _ | Inst.Vsetvli _
  | Inst.Vle _ | Inst.Vlse _ | Inst.Vse _ | Inst.Vsse _
  | Inst.Vop_vv _ | Inst.Vop_vx _ | Inst.Vmv_v_x _
  | Inst.Vmv_x_s _ | Inst.Vredsum _ | Inst.P_add16 _ | Inst.P_smaqa _ ->
      Fallthrough

(* One code section with a slot per halfword: the ordinal of the
   instruction starting there, or [-1]. Instructions start only at even
   addresses, so halfword slots cover every one. Slots come in pages of
   [page] halfwords, allocated when the descent first reaches them, so a
   full disassembly costs memory in proportion to the code bytes and a
   lazy rewrite's single-root descent in proportion to the code it
   discovers — never to the address span between sections. *)
type sec = { base : int; data : bytes; pages : int array array }

let page_bits = 8
let page = 1 lsl page_bits

(* [insns] holds the discovered instructions in ascending address order;
   an instruction's ordinal is its index. *)
type t = { secs : sec array; insns : insn array }

(* The first section (in ascending base order) containing the address, as
   [Binfile.code_sections] lists them; [-1] if none. *)
let sec_index secs addr =
  let rec go k =
    if k = Array.length secs then -1
    else
      let s = secs.(k) in
      if addr >= s.base && addr < s.base + Bytes.length s.data then k else go (k + 1)
  in
  go 0

(* An instruction must lie wholly inside its section: a 4-byte encoding
   whose high halfword is past the end is undecodable. *)
let decode s off =
  let len = Bytes.length s.data in
  if off + 2 > len then None
  else
    let lo = Bytes.get_uint16_le s.data off in
    let hi = if off + 4 <= len then Bytes.get_uint16_le s.data (off + 2) else 0 in
    match Decode.decode ~lo ~hi with
    | Decode.Ok (inst, size) when off + size <= len ->
        Some { addr = s.base + off; inst; size }
    | Decode.Ok _ | Decode.Illegal _ -> None

let dummy = { addr = -1; inst = Inst.C_nop; size = 0 }

(* Recursive descent. The discovered set is the closure of the roots under
   the static successors of each decodable instruction, and decoding an
   address depends only on the bytes there, so the order in which the work
   stack is drained does not change the result. During the descent a slot
   holds [-1] or a discovery index. *)
let of_binfile_at (bin : Binfile.t) ~roots =
  let secs =
    Array.of_list
      (List.map
         (fun (s : Binfile.section) ->
           let halfwords = (Bytes.length s.sec_data + 1) / 2 in
           { base = s.sec_addr; data = s.sec_data;
             pages = Array.make ((halfwords + page - 1) lsr page_bits) [||] })
         (Binfile.code_sections bin))
  in
  let found = ref (Array.make 256 dummy) and n = ref 0 in
  let work = ref (Array.make 256 0) and top = ref 0 in
  let push a =
    if !top = Array.length !work then
      work := Array.append !work (Array.make (Array.length !work) 0);
    Array.unsafe_set !work !top a;
    incr top
  in
  List.iter push roots;
  while !top > 0 do
    decr top;
    let addr = Array.unsafe_get !work !top in
    let k = if addr land 1 = 0 then sec_index secs addr else -1 in
    if k >= 0 then begin
      let s = secs.(k) in
      let off = addr - s.base in
      let h = off lsr 1 in
      if Array.length s.pages.(h lsr page_bits) = 0 then
        s.pages.(h lsr page_bits) <- Array.make page (-1);
      let slots = s.pages.(h lsr page_bits) and j = h land (page - 1) in
      if slots.(j) = -1 then
        match decode s off with
        | None -> ()  (* left to lazy runtime rewriting *)
        | Some ins ->
            if !n = Array.length !found then
              found := Array.append !found (Array.make !n dummy);
            slots.(j) <- !n;
            !found.(!n) <- ins;
            incr n;
            let next = addr + ins.size in
            (match flow_of ins with
            | Fallthrough | Syscall | Indirect_call -> push next
            | Branch target | Call target ->
                push next;
                push target
            | Jump target -> push target
            | Indirect_jump | Ret | Halt -> ())
    end
  done;
  (* Renumber in address order: sections are scanned by ascending base and
     an address belongs to the first section containing it, so the scan
     visits instructions in ascending address order. *)
  let insns = Array.make !n dummy and ord = ref 0 in
  Array.iter
    (fun s ->
      Array.iter
        (fun slots ->
          for j = 0 to Array.length slots - 1 do
            let d = slots.(j) in
            if d >= 0 then begin
              insns.(!ord) <- !found.(d);
              slots.(j) <- !ord;
              incr ord
            end
          done)
        s.pages)
    secs;
  { secs; insns }

let of_binfile (bin : Binfile.t) =
  let roots =
    bin.Binfile.entry :: List.map (fun s -> s.Binfile.sym_addr) bin.Binfile.symbols
  in
  of_binfile_at bin ~roots

let ordinal t addr =
  let k = if addr land 1 = 0 then sec_index t.secs addr else -1 in
  if k < 0 then -1
  else
    let s = t.secs.(k) in
    let h = (addr - s.base) lsr 1 in
    let slots = s.pages.(h lsr page_bits) in
    if Array.length slots = 0 then -1 else slots.(h land (page - 1))

let nth t o = t.insns.(o)
let find t addr = match ordinal t addr with -1 -> None | o -> Some t.insns.(o)
let to_list t = Array.to_list t.insns
let iter t f = Array.iter f t.insns
let count t = Array.length t.insns
let covered_bytes t = Array.fold_left (fun acc i -> acc + i.size) 0 t.insns

let is_covered t addr =
  ordinal t addr >= 0
  || match ordinal t (addr - 2) with -1 -> false | o -> t.insns.(o).size = 4

let next_insn t addr =
  match find t addr with None -> None | Some i -> find t (addr + i.size)

let pp_insn fmt i = Format.fprintf fmt "%08x: %a" i.addr Inst.pp i.inst
