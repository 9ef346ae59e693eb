type system = Fam | Safer_sys | Melf_sys | Chimera_sys
type version = Vext | Vbase

let systems = [ Fam; Safer_sys; Melf_sys; Chimera_sys ]

let system_name = function
  | Fam -> "FAM"
  | Safer_sys -> "Safer"
  | Melf_sys -> "MELF"
  | Chimera_sys -> "Chimera"

let version_name = function Vext -> "extension" | Vbase -> "base"

type cost_table = {
  fib : int;
  mm_vec : int;  (* RVV matmul, extension core *)
  mm_scal : int;  (* scalar matmul, any core *)
  fam_prefix : int;  (* cycles until the illegal-instruction fault *)
  chim_down : int;  (* CHBP-downgraded RVV matmul on a base core *)
  chim_up : int;  (* CHBP-upgraded scalar matmul on an extension core *)
  safer_down : int;
  safer_up : int;
}

let base_isa = Ext.rv64gc
let ext_isa = Ext.rv64gcv

let seq_run_all fs = List.iter (fun f -> f ()) fs

let costs ?config ?(mm_n = 16) ?(fib_rounds = 0) ?(run_all = seq_run_all) () =
  let mm_ext = Programs.matmul ~name:"mm-ext" `Ext ~n:mm_n in
  let mm_base = Programs.matmul ~name:"mm-base" `Base ~n:mm_n in
  (* two batches of independent measurements: the second depends on the
     native cycle counts of the first. [run_all] may fan the thunks of a
     batch out across domains (every thunk builds its own machine). *)
  let vec = ref None and scal = ref None in
  run_all
    [ (fun () -> vec := Some (Measure.native ?config mm_ext ~isa:ext_isa));
      (fun () -> scal := Some (Measure.native ?config mm_base ~isa:base_isa)) ];
  let vec = Option.get !vec and scal = Option.get !scal in
  let expected = vec.Measure.exit_code in
  if scal.Measure.exit_code <> expected then
    failwith "mixgen: scalar and vector matmul disagree";
  (* size the base task so that base : ext-on-ext is about 2:1 (a fib round
     costs ~155 cycles: 3 setup + 30 iterations x 5 + epilogue) *)
  let fib_rounds =
    if fib_rounds > 0 then fib_rounds else max 1 (2 * vec.Measure.cycles / 155)
  in
  let fib_bin = Programs.fibonacci ~rounds:fib_rounds () in
  let fib = ref 0 and fam_prefix = ref 0 in
  let chim_down = ref 0 and chim_up = ref 0 in
  let safer_down = ref 0 and safer_up = ref 0 in
  run_all
    [ (fun () -> fib := (Measure.native ?config fib_bin ~isa:base_isa).Measure.cycles);
      (fun () ->
        fam_prefix := (Measure.native_until_fault ?config mm_ext ~isa:base_isa).Measure.cycles);
      (fun () ->
        let ctx = Chbp.rewrite ~options:(Chbp.default_options Chbp.Downgrade) mm_ext in
        let run, _ = Measure.chimera ?config ctx ~isa:base_isa in
        ignore (Measure.check_exit ~expected run);
        chim_down := run.Measure.cycles);
      (fun () ->
        let ctx = Chbp.rewrite ~options:(Chbp.default_options Chbp.Upgrade) mm_base in
        let run, _ = Measure.chimera ?config ctx ~isa:ext_isa in
        ignore (Measure.check_exit ~expected run);
        if (Chbp.stats ctx).Chbp.sites = 0 then
          failwith "mixgen: upgrade found no vectorizable loop";
        chim_up := run.Measure.cycles);
      (fun () ->
        let rw = Safer.rewrite ~mode:Chbp.Downgrade mm_ext in
        let run, _ = Measure.safer ?config rw ~isa:base_isa in
        ignore (Measure.check_exit ~expected run);
        safer_down := run.Measure.cycles);
      (fun () ->
        let rw = Safer.rewrite ~mode:Chbp.Upgrade mm_base in
        let run, _ = Measure.safer ?config rw ~isa:ext_isa in
        ignore (Measure.check_exit ~expected run);
        safer_up := run.Measure.cycles) ];
  { fib = !fib;
    mm_vec = vec.Measure.cycles;
    mm_scal = scal.Measure.cycles;
    fam_prefix = !fam_prefix;
    chim_down = !chim_down;
    chim_up = !chim_up;
    safer_down = !safer_down;
    safer_up = !safer_up }

let task_ratio t = float_of_int t.mm_vec /. float_of_int t.fib

(* Behaviour of an extension task under each (system, version, core). *)
let ext_task_step t system version (cls : Sched.core_class) =
  match (system, version, cls) with
  | Fam, Vext, Sched.Extension -> Sched.Done { cycles = t.mm_vec; accelerated = true }
  | Fam, Vext, Sched.Base -> Sched.Migrate { cycles = t.fam_prefix }
  | Fam, Vbase, _ -> Sched.Done { cycles = t.mm_scal; accelerated = false }
  | Safer_sys, Vext, Sched.Extension ->
      Sched.Done { cycles = t.mm_vec; accelerated = true }
  | Safer_sys, Vext, Sched.Base ->
      Sched.Done { cycles = t.safer_down; accelerated = false }
  | Safer_sys, Vbase, Sched.Extension ->
      Sched.Done { cycles = t.safer_up; accelerated = true }
  | Safer_sys, Vbase, Sched.Base ->
      Sched.Done { cycles = t.mm_scal; accelerated = false }
  | Melf_sys, _, Sched.Extension -> Sched.Done { cycles = t.mm_vec; accelerated = true }
  | Melf_sys, _, Sched.Base -> Sched.Done { cycles = t.mm_scal; accelerated = false }
  | Chimera_sys, Vext, Sched.Extension ->
      Sched.Done { cycles = t.mm_vec; accelerated = true }
  | Chimera_sys, Vext, Sched.Base ->
      Sched.Done { cycles = t.chim_down; accelerated = false }
  | Chimera_sys, Vbase, Sched.Extension ->
      Sched.Done { cycles = t.chim_up; accelerated = true }
  | Chimera_sys, Vbase, Sched.Base ->
      Sched.Done { cycles = t.mm_scal; accelerated = false }

let tasks t system version ~share_pct ~n_tasks =
  let acc = ref 0 in
  List.init n_tasks (fun i ->
      acc := !acc + share_pct;
      let is_ext = !acc >= 100 in
      if is_ext then acc := !acc - 100;
      if is_ext then
        { Sched.t_id = i;
          t_prefer_ext = true;
          t_run = (fun cls -> ext_task_step t system version cls) }
      else
        { Sched.t_id = i;
          t_prefer_ext = false;
          t_run = (fun _ -> Sched.Done { cycles = t.fib; accelerated = false }) })

let pp_costs fmt t =
  Format.fprintf fmt
    "@[<v>fib %d@,mm_vec %d@,mm_scal %d@,fam_prefix %d@,chim_down %d@,\
     chim_up %d@,safer_down %d@,safer_up %d@]"
    t.fib t.mm_vec t.mm_scal t.fam_prefix t.chim_down t.chim_up t.safer_down
    t.safer_up
