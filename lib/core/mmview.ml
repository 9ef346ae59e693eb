type view = {
  v_class : Ext.t;
  v_mem : Memory.t;
  v_bin : Binfile.t;
  v_handlers : Machine.handlers;
  v_targets : (int * int) list;  (* target-instruction sections: addr, len *)
}

type t = {
  dep : Chimera_system.t;
  views : view list;
  m : Machine.t;
  mutable cur : view;
  mutable migrations : int;
}

let is_chimera_section (s : Binfile.section) =
  String.length s.Binfile.sec_name >= 13
  && String.sub s.Binfile.sec_name 0 13 = ".chimera.text"

let shared_sections (bin : Binfile.t) =
  (* writable sections of the original program image are physically shared
     across views; the per-view vector-simulation area is not (it belongs to
     the translated code of that view) *)
  List.filter
    (fun (s : Binfile.section) ->
      s.Binfile.sec_perm.Memory.w && s.Binfile.sec_name <> ".chimera.vregs")
    bin.Binfile.sections

let build_view ~share_from dep cls =
  let bin = Chimera_system.binary_for dep cls in
  let handlers =
    match Chimera_system.prepared_for dep cls with
    | Chimera_system.Native -> Machine.default_handlers
    | Chimera_system.Rewritten rt -> Chimera_rt.handlers rt
  in
  let mem = Memory.create () in
  (match share_from with
  | None ->
      Loader.load_into mem bin;
      Loader.map_stack mem
  | Some (first_mem, first_bin) ->
      (* map this view's own sections except the shared ones *)
      List.iter
        (fun (s : Binfile.section) ->
          let shared =
            List.exists
              (fun (sh : Binfile.section) -> sh.Binfile.sec_name = s.Binfile.sec_name)
              (shared_sections first_bin)
          in
          if not shared then begin
            let len = Layout.page_align (max 1 (Bytes.length s.Binfile.sec_data)) in
            Memory.map mem ~addr:s.Binfile.sec_addr ~len s.Binfile.sec_perm;
            Memory.poke_bytes mem s.Binfile.sec_addr s.Binfile.sec_data
          end)
        bin.Binfile.sections;
      (* alias the shared data pages and the stack *)
      List.iter
        (fun (s : Binfile.section) ->
          Memory.share_range ~from:first_mem ~into:mem ~addr:s.Binfile.sec_addr
            ~len:(Layout.page_align (max 1 (Bytes.length s.Binfile.sec_data))))
        (shared_sections first_bin);
      Memory.share_range ~from:first_mem ~into:mem
        ~addr:(Layout.stack_top - Layout.stack_size)
        ~len:Layout.stack_size);
  { v_class = cls;
    v_mem = mem;
    v_bin = bin;
    v_handlers = handlers;
    v_targets =
      List.filter_map
        (fun (s : Binfile.section) ->
          if is_chimera_section s then
            Some (s.Binfile.sec_addr, Bytes.length s.Binfile.sec_data)
          else None)
        bin.Binfile.sections }

let create dep =
  match Chimera_system.classes dep with
  | [] -> invalid_arg "Mmview.create: no core classes"
  | first :: rest ->
      let v0 = build_view ~share_from:None dep first in
      let share_from = Some (v0.v_mem, v0.v_bin) in
      let views = v0 :: List.map (build_view ~share_from dep) rest in
      let m =
        Machine.create ~config:(Chimera_system.config dep)
          ~costs:(Chimera_system.costs dep) ~mem:v0.v_mem ~isa:first ()
      in
      { dep; views; m; cur = v0; migrations = 0 }

let machine t = t.m
let current_class t = t.cur.v_class
let migrations t = t.migrations

let find_view t cls =
  match List.find_opt (fun v -> Ext.equal v.v_class cls) t.views with
  | Some v -> v
  | None -> raise Not_found

let start t ~on =
  let v = find_view t on in
  t.cur <- v;
  Machine.switch_view t.m v.v_mem;
  Machine.set_isa t.m v.v_class;
  Loader.init_machine t.m v.v_bin

let in_targets v pc =
  List.exists (fun (a, l) -> pc >= a && pc < a + l) v.v_targets

(* the simulated vector state of a rewritten view lives in .chimera.vregs;
   keep it coherent with the architectural registers across view switches *)
let vregs_region (v : view) =
  if List.exists (fun (s : Binfile.section) -> s.Binfile.sec_name = ".chimera.vregs")
       v.v_bin.Binfile.sections
  then Some Vregs.base
  else None

let spill_vector_state t v =
  match vregs_region v with
  | None -> ()
  | Some base ->
      Memory.poke_u64 v.v_mem (base + Vregs.vl_off) (Int64.of_int (Machine.vl t.m));
      Memory.poke_u64 v.v_mem (base + Vregs.vsew_off)
        (Int64.of_int
           (match Machine.vsew t.m with
           | Inst.E8 -> 0 | Inst.E16 -> 1 | Inst.E32 -> 2 | Inst.E64 -> 3));
      List.iter
        (fun vr ->
          Memory.poke_bytes v.v_mem (base + Vregs.vreg_off vr) (Machine.get_vreg t.m vr))
        Reg.all_v

let fill_vector_state t v =
  match vregs_region v with
  | None -> ()
  | Some base ->
      List.iter
        (fun vr ->
          Machine.set_vreg t.m vr
            (Memory.peek_bytes v.v_mem (base + Vregs.vreg_off vr) (Machine.vlen t.m)))
        Reg.all_v;
      let vl = Int64.to_int (Memory.peek_u64 v.v_mem (base + Vregs.vl_off)) in
      let vsew =
        match Int64.to_int (Memory.peek_u64 v.v_mem (base + Vregs.vsew_off)) with
        | 0 -> Inst.E8 | 1 -> Inst.E16 | 2 -> Inst.E32 | _ -> Inst.E64
      in
      Machine.set_vstate t.m ~vl:(min vl (Machine.vlen t.m)) ~vsew

let migrate t ~to_ =
  let target = find_view t to_ in
  if Ext.equal target.v_class t.cur.v_class then 0
  else begin
    (* defer while inside target instructions: their addresses are not
       semantically equivalent across views (paper: probe at the exit) *)
    let stepped = ref 0 in
    let stopped = ref false in
    while
      (not !stopped) && in_targets t.cur (Machine.pc t.m) && !stepped < 100_000
    do
      match Machine.step ~handlers:t.cur.v_handlers t.m with
      | None -> incr stepped
      | Some _ -> stopped := true
    done;
    (* carry the vector state across the class boundary *)
    (match (vregs_region t.cur, vregs_region target) with
    | None, Some _ ->
        (* architectural registers -> target's simulated region *)
        spill_vector_state t target
    | Some _, None ->
        (* current simulated region -> architectural registers *)
        fill_vector_state t t.cur
    | Some a, Some b ->
        (* both classes run translated code: copy the simulation *)
        Memory.poke_bytes target.v_mem b
          (Memory.peek_bytes t.cur.v_mem a Vregs.section_size)
    | None, None -> ());
    t.cur <- target;
    Machine.switch_view t.m target.v_mem;
    Machine.set_isa t.m target.v_class;
    t.migrations <- t.migrations + 1;
    Machine.charge t.m (Machine.costs t.m).Costs.migrate;
    !stepped
  end

let run t ~fuel = Machine.run ~handlers:t.cur.v_handlers ~fuel t.m
