let m_faults_recovered =
  Metrics.counter ~help:"Faults redirected via the fault table"
    "chimera_faults_recovered_total"

let m_traps =
  Metrics.counter ~help:"Ebreak traps redirected via the trap table"
    "chimera_traps_total"

type t = {
  ctx : Chbp.t;
  bin : Binfile.t;  (* rewritten *)
  costs : Costs.t;
  counters : Counters.t;
  mutable views : Memory.t list;
  mutable machines : Machine.t list;  (* for decode-cache invalidation *)
}

let create ?(costs = Costs.default) ctx =
  { ctx;
    bin = Chbp.result ctx;
    costs;
    counters = Counters.create ();
    views = [];
    machines = [] }

let load t =
  let mem = Loader.load t.bin in
  t.views <- mem :: t.views;
  mem

let counters t = t.counters
let rewritten t = t.bin
let chbp t = t.ctx

let note_machine t m =
  if not (List.memq m t.machines) then t.machines <- m :: t.machines

let apply_patch t mem = function
  | Chbp.Patch_code { addr; bytes } ->
      Memory.poke_bytes mem addr bytes;
      List.iter
        (fun m -> Machine.invalidate_code m ~addr ~len:(Bytes.length bytes))
        t.machines
  | Chbp.Patch_section { addr; bytes } ->
      (* map any missing pages, fill, and mark executable *)
      let len = Bytes.length bytes in
      let page = 4096 in
      let first = addr / page and last = (addr + len - 1) / page in
      for p = first to last do
        if not (Memory.is_mapped mem (p * page)) then
          Memory.map mem ~addr:(p * page) ~len:page Memory.perm_rx
      done;
      Memory.poke_bytes mem addr bytes;
      Memory.set_perm mem ~addr ~len Memory.perm_rx

(* The original (pre-rewrite) image, for deciding whether a faulting address
   held a recognizable extension instruction. *)
let original_inst t addr =
  let orig = Chbp.original t.ctx in
  let sec =
    List.find_opt (fun s -> Binfile.in_section s addr) (Binfile.code_sections orig)
  in
  match sec with
  | None -> None
  | Some s ->
      let off = addr - s.Binfile.sec_addr in
      let len = Bytes.length s.Binfile.sec_data in
      if off + 2 > len then None
      else
        let lo = Bytes.get_uint16_le s.Binfile.sec_data off in
        let hi =
          if off + 4 <= len then Bytes.get_uint16_le s.Binfile.sec_data (off + 2) else 0
        in
        (match Decode.decode ~lo ~hi with
        | Decode.Ok (inst, _) -> Some inst
        | Decode.Illegal _ -> None)

let lazy_rewrite t m pc =
  match original_inst t pc with
  | Some inst when Ext.required inst <> None && not (Ext.supports (Machine.isa m) inst)
    ->
      Counters.lazy_at t.counters ~site:pc;
      Machine.charge m t.costs.Costs.lazy_rewrite;
      let patches = Chbp.extend t.ctx ~root:pc in
      if !Obs.enabled then
        Obs.emit (Obs.Lazy_discovered { root = pc; patches = List.length patches });
      List.iter (fun mem -> List.iter (apply_patch t mem) patches) t.views;
      (* the site at pc is now a trampoline (or trap); re-execute it *)
      if patches = [] then None else Some pc
  | Some _ | None -> None

let handlers t =
  let table = Chbp.fault_table t.ctx in
  let traps = Chbp.trap_table t.ctx in
  let gp_value = Chbp.gp_value t.ctx in
  let recover m ~site ~cause redirect =
    Counters.fault_at t.counters ~site;
    Metrics.incr m_faults_recovered;
    if !Obs.enabled then Obs.emit (Obs.Fault_recovered { site; redirect; cause });
    (match Machine.profile m with
    | Some p -> Profile.note_recovered p
    | None -> ());
    Machine.charge m t.costs.Costs.fault_recovery;
    Machine.set_reg m Reg.gp (Int64.of_int gp_value);
    Machine.Resume redirect
  in
  let greg_sites = Chbp.greg_sites t.ctx in
  let on_fault m fault =
    note_machine t m;
    match fault with
    | Fault.Segfault { access = Fault.Execute; _ } -> (
        (* potential partial SMILE execution: the jalr stored pc+4 in gp *)
        let site = Int64.to_int (Machine.get_reg m Reg.gp) - 4 in
        match Fault_table.find table site with
        | Some redirect -> recover m ~site ~cause:"sigsegv" redirect
        | None -> (
            (* general-register SMILE (paper Fig. 5): find the site whose
               link register carries its jalr's return address *)
            match
              List.find_opt
                (fun (jaddr, r) ->
                  Int64.equal (Machine.get_reg m r) (Int64.of_int (jaddr + 4)))
                greg_sites
            with
            | Some (jaddr, r) -> (
                match Fault_table.find table jaddr with
                | Some redirect ->
                    Counters.fault_at t.counters ~site:jaddr;
                    Metrics.incr m_faults_recovered;
                    if !Obs.enabled then
                      Obs.emit
                        (Obs.Fault_recovered
                           { site = jaddr; redirect; cause = "sigsegv" });
                    (match Machine.profile m with
                    | Some p -> Profile.note_recovered p
                    | None -> ());
                    Machine.charge m t.costs.Costs.fault_recovery;
                    (* restore the register to the value the preceding lui
                       established (the only statically known valid value) *)
                    (match original_inst t (jaddr - 4) with
                    | Some (Inst.Lui (_, hi)) ->
                        Machine.set_reg m r (Int64.of_int (hi lsl 12))
                    | Some _ | None -> ());
                    Machine.Resume redirect
                | None -> Machine.Stop (Machine.Faulted fault))
            | None -> Machine.Stop (Machine.Faulted fault)))
    | Fault.Illegal_instruction { pc; _ } -> (
        match Fault_table.find table pc with
        | Some redirect -> recover m ~site:pc ~cause:"sigill" redirect
        | None -> (
            match lazy_rewrite t m pc with
            | Some resume -> Machine.Resume resume
            | None -> Machine.Stop (Machine.Faulted fault)))
    | Fault.Segfault _ | Fault.Misaligned_fetch _ ->
        Machine.Stop (Machine.Faulted fault)
  in
  let on_ebreak m ~pc ~size:_ =
    note_machine t m;
    match Fault_table.find traps pc with
    | Some target ->
        Counters.trap_at t.counters ~site:pc;
        Metrics.incr m_traps;
        if !Obs.enabled then Obs.emit (Obs.Trap_taken { site = pc; target });
        (match Machine.profile m with
        | Some p -> Profile.note_trap p
        | None -> ());
        Machine.charge m t.costs.Costs.trap;
        Machine.Resume target
    | None ->
        Machine.Stop
          (Machine.Faulted (Fault.Illegal_instruction { pc; reason = "program ebreak" }))
  in
  { Machine.default_handlers with on_fault; on_ebreak }

let run t ?isa ~fuel m =
  let mem = match t.views with [] -> load t | mem :: _ -> mem in
  Machine.switch_view m mem;
  note_machine t m;
  (match isa with Some i -> Machine.set_isa m i | None -> ());
  Loader.init_machine m t.bin;
  Machine.run ~handlers:(handlers t) ~fuel m
