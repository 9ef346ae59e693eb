type succ = Sblock of int | Sunknown | Sreturn

type block = {
  b_addr : int;
  b_insns : Disasm.insn list;
  b_succs : succ list;
  b_call : int option;
}

(* Blocks are runs of consecutive instruction ordinals; [containing] maps
   an instruction ordinal to the index of its block in [blocks]. *)
type t = {
  dis : Disasm.t;
  blocks : block array;  (* ascending by address *)
  containing : int array;
  predecessors : int list array;  (* block index -> predecessor addresses *)
}

let of_disasm dis =
  let n = Disasm.count dis in
  (* Block starts: the first instruction, control-transfer targets,
     instructions following a control transfer, and any instruction that
     does not directly follow the one before it in address order (function
     entries reached only via symbols, code after gaps, overlapping
     decodes). *)
  let start = Bytes.make n '\000' in
  let mark a = match Disasm.ordinal dis a with -1 -> () | o -> Bytes.set start o '\001' in
  for o = 0 to n - 1 do
    let i = Disasm.nth dis o in
    (match Disasm.flow_of i with
    | Disasm.Fallthrough | Disasm.Syscall -> ()
    | Disasm.Branch t | Disasm.Jump t | Disasm.Call t ->
        mark t;
        mark (i.addr + i.size)
    | Disasm.Indirect_call | Disasm.Indirect_jump | Disasm.Ret | Disasm.Halt ->
        mark (i.addr + i.size));
    if o = 0 || (let prev = Disasm.nth dis (o - 1) in prev.addr + prev.size <> i.addr)
    then Bytes.set start o '\001'
  done;
  let is_start a =
    match Disasm.ordinal dis a with -1 -> false | o -> Bytes.get start o = '\001'
  in
  let nblocks = ref 0 in
  Bytes.iter (fun c -> if c = '\001' then incr nblocks) start;
  let dummy = { b_addr = -1; b_insns = []; b_succs = []; b_call = None } in
  let blocks = Array.make !nblocks dummy in
  let containing = Array.make n 0 in
  (* Build the blocks from the last one backward, so each instruction
     list is consed in address order. *)
  let k = ref !nblocks and hi = ref (n - 1) in
  for lo = n - 1 downto 0 do
    if Bytes.get start lo = '\001' then begin
      decr k;
      let insns = ref [] in
      for o = !hi downto lo do
        insns := Disasm.nth dis o :: !insns;
        containing.(o) <- !k
      done;
      let first = Disasm.nth dis lo and last = Disasm.nth dis !hi in
      let fall = last.addr + last.size in
      let succs, call =
        match Disasm.flow_of last with
        | Disasm.Fallthrough | Disasm.Syscall -> ([ Sblock fall ], None)
        | Disasm.Branch t -> ([ Sblock t; Sblock fall ], None)
        | Disasm.Jump t -> ([ Sblock t ], None)
        | Disasm.Call t -> ([ Sblock fall ], Some t)
        | Disasm.Indirect_call -> ([ Sblock fall ], None)
        | Disasm.Indirect_jump -> ([ Sunknown ], None)
        | Disasm.Ret -> ([ Sreturn ], None)
        | Disasm.Halt -> ([], None)
      in
      (* A direct successor that is not a block start becomes unknown
         (decode gap) — except the fallthrough of a syscall at the end of
         the text, which is a program-exit boundary, not an unknown
         continuation (treating it as unknown would make every register
         live at the end of the program). *)
      let ends_in_syscall = Disasm.flow_of last = Disasm.Syscall in
      let b_succs =
        List.filter_map
          (function
            | Sblock a when not (is_start a) ->
                if ends_in_syscall then None else Some Sunknown
            | (Sblock _ | Sunknown | Sreturn) as s -> Some s)
          succs
      in
      blocks.(!k) <- { b_addr = first.addr; b_insns = !insns; b_succs; b_call = call };
      hi := lo - 1
    end
  done;
  let predecessors = Array.make !nblocks [] in
  Array.iter
    (fun b ->
      List.iter
        (function
          | Sblock a ->
              let s = containing.(Disasm.ordinal dis a) in
              predecessors.(s) <- b.b_addr :: predecessors.(s)
          | Sunknown | Sreturn -> ())
        b.b_succs)
    blocks;
  { dis; blocks; containing; predecessors }

let blocks t = Array.to_list t.blocks
let count t = Array.length t.blocks
let nth t k = t.blocks.(k)

let index_containing t addr =
  match Disasm.ordinal t.dis addr with -1 -> -1 | o -> t.containing.(o)

let index_at t addr =
  match index_containing t addr with
  | -1 -> -1
  | k -> if t.blocks.(k).b_addr = addr then k else -1

let block_at t addr = match index_at t addr with -1 -> None | k -> Some t.blocks.(k)

let block_containing t addr =
  match index_containing t addr with -1 -> None | k -> Some t.blocks.(k)

let block_end b =
  let rec go = function
    | [] -> b.b_addr
    | [ (last : Disasm.insn) ] -> last.addr + last.size
    | _ :: rest -> go rest
  in
  go b.b_insns

let preds t addr = match index_at t addr with -1 -> [] | k -> t.predecessors.(k)

let pp_dot fmt t =
  Format.fprintf fmt "digraph cfg {@.  node [shape=box, fontname=monospace];@.";
  Array.iter
    (fun b ->
      let label =
        String.concat "\\l"
          (List.map
             (fun (i : Disasm.insn) ->
               Printf.sprintf "%x: %s" i.addr (Inst.to_string i.inst))
             b.b_insns)
      in
      Format.fprintf fmt "  b%x [label=\"%s\\l\"];@." b.b_addr label;
      List.iter
        (function
          | Sblock a -> Format.fprintf fmt "  b%x -> b%x;@." b.b_addr a
          | Sunknown ->
              Format.fprintf fmt "  b%x -> unknown [style=dashed];@." b.b_addr
          | Sreturn -> Format.fprintf fmt "  b%x -> ret [style=dotted];@." b.b_addr)
        b.b_succs)
    t.blocks;
  Format.fprintf fmt "}@."
