(* [live_out] is indexed like [Cfg.nth]. *)
type t = { cfg : Cfg.t; live_out : Regmask.t array }

let insn_uses (i : Disasm.insn) =
  match Disasm.flow_of i with
  | Disasm.Call _ | Disasm.Indirect_call ->
      (* the callee may read its arguments, plus the target register *)
      Regmask.union Regmask.arg_regs (Regmask.of_list (Inst.uses i.inst))
  | Disasm.Fallthrough | Disasm.Branch _ | Disasm.Jump _ | Disasm.Indirect_jump
  | Disasm.Ret | Disasm.Syscall | Disasm.Halt ->
      Regmask.of_list (Inst.uses i.inst)

let insn_defs (i : Disasm.insn) =
  match Disasm.flow_of i with
  | Disasm.Call _ | Disasm.Indirect_call ->
      (* the callee may clobber every caller-saved register *)
      Regmask.union Regmask.caller_saved (Regmask.of_list (Inst.defs i.inst))
  | Disasm.Fallthrough | Disasm.Branch _ | Disasm.Jump _ | Disasm.Indirect_jump
  | Disasm.Ret | Disasm.Syscall | Disasm.Halt ->
      Regmask.of_list (Inst.defs i.inst)

(* At a return the ABI pins the caller-visible state: the return values,
   the stack pointer and the callee-saved registers; every caller-saved
   scratch is dead. *)
let abi_return_live =
  Regmask.of_list
    ([ Reg.a0; Reg.a1; Reg.sp; Reg.gp; Reg.tp; Reg.ra ] @ Reg.callee_saved)

(* Transfer of one instruction: live_in = uses ∪ (live_out \ defs). *)
let transfer i live = Regmask.union (insn_uses i) (Regmask.diff live (insn_defs i))

let initial_live_out (b : Cfg.block) =
  List.fold_left
    (fun acc s ->
      match s with
      | Cfg.Sunknown -> Regmask.all
      | Cfg.Sreturn -> Regmask.union acc abi_return_live
      | Cfg.Sblock _ -> acc)
    Regmask.empty b.Cfg.b_succs

(* A block's transfer is live_in = gen ∪ (live_out \ kill): [gen] holds
   the registers read before any write in the block, [kill] every register
   it writes. *)
let rec summarize gen kill k = function
  | [] -> ()
  | i :: rest ->
      gen.(k) <- Regmask.union gen.(k) (Regmask.diff (insn_uses i) kill.(k));
      kill.(k) <- Regmask.union kill.(k) (insn_defs i);
      summarize gen kill k rest

let compute cfg =
  let n = Cfg.count cfg in
  let gen = Array.make n Regmask.empty and kill = Array.make n Regmask.empty in
  let init = Array.make n Regmask.empty in
  for k = 0 to n - 1 do
    let b = Cfg.nth cfg k in
    summarize gen kill k b.Cfg.b_insns;
    init.(k) <- initial_live_out b
  done;
  let live_out = Array.make n Regmask.empty and live_in = Array.make n Regmask.empty in
  (* Backward worklist fixpoint over a ring of block indices; a block is
     queued at most once at a time, so [n] slots suffice. *)
  let ring = Array.make (max n 1) 0 and head = ref 0 and len = ref 0 in
  let queued = Bytes.make n '\000' in
  let enqueue k =
    if Bytes.get queued k = '\000' then begin
      Bytes.set queued k '\001';
      ring.((!head + !len) mod n) <- k;
      incr len
    end
  in
  for k = n - 1 downto 0 do enqueue k done;
  while !len > 0 do
    let k = ring.(!head) in
    head := (!head + 1) mod n;
    decr len;
    Bytes.set queued k '\000';
    let b = Cfg.nth cfg k in
    let out =
      List.fold_left
        (fun acc s ->
          match s with
          | Cfg.Sblock a -> Regmask.union acc live_in.(Cfg.index_containing cfg a)
          | Cfg.Sunknown | Cfg.Sreturn -> acc)
        init.(k) b.Cfg.b_succs
    in
    live_out.(k) <- out;
    let inn = Regmask.union gen.(k) (Regmask.diff out kill.(k)) in
    if inn <> live_in.(k) then begin
      live_in.(k) <- inn;
      List.iter (fun a -> enqueue (Cfg.index_containing cfg a)) (Cfg.preds cfg b.Cfg.b_addr)
    end
  done;
  { cfg; live_out }

let live_out t addr =
  match Cfg.index_containing t.cfg addr with
  | k when k >= 0 && (Cfg.nth t.cfg k).Cfg.b_addr = addr -> t.live_out.(k)
  | _ -> raise Not_found

let live_in_at t addr =
  match Cfg.index_containing t.cfg addr with
  | -1 -> None
  | k ->
      (* fold backward from the block end to the queried instruction *)
      let rec from = function
        | [] -> None
        | (i : Disasm.insn) :: rest as insns ->
            if i.addr = addr then Some (List.fold_right transfer insns t.live_out.(k))
            else from rest
      in
      from (Cfg.nth t.cfg k).Cfg.b_insns

let never_clobber = Regmask.of_list [ Reg.x0; Reg.sp; Reg.gp; Reg.tp ]
let scratch_order = Reg.temporaries @ [ Reg.ra; Reg.a7; Reg.a6; Reg.a5; Reg.a4 ]

let all_scratch =
  scratch_order @ [ Reg.a3; Reg.a2; Reg.a1; Reg.a0; Reg.s11; Reg.s10; Reg.s9; Reg.s8 ]

let dead_regs_at t ?(avoid = []) addr =
  match live_in_at t addr with
  | None -> []
  | Some live ->
      let banned = Regmask.union never_clobber (Regmask.union live (Regmask.of_list avoid)) in
      List.filter (fun r -> not (Regmask.mem r banned)) all_scratch

let dead_at t ?(avoid = []) addr =
  match live_in_at t addr with
  | None -> None
  | Some live ->
      let banned = Regmask.union never_clobber (Regmask.union live (Regmask.of_list avoid)) in
      List.find_opt (fun r -> not (Regmask.mem r banned)) scratch_order
