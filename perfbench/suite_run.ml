(* suite-run: a seeded draw of SPEC-like guests with long outer loops,
   each rewritten once per mode and run. Execution dominates; the cache is
   not used. *)

open Perfbench_core
open Common

let rounds_scale = 4

(* One profile is drawn from each stratum; members of a stratum share
   every generator parameter but the seed, so draws differ in content, not
   in size. The draw always holds indirect-dense (perlbench, omnetpp),
   large-text (gcc) and vector-hot (cam4, pop2) profiles. *)
let strata =
  [ [ "perlbench_r"; "perlbench_s" ];
    [ "omnetpp_r"; "omnetpp_s" ];
    [ "gcc_r"; "gcc_s" ];
    [ "xalancbmk_r"; "xalancbmk_s" ];
    [ "cactuBSSN_r"; "cactuBSSN_s" ];
    [ "cam4_r"; "cam4_s" ];
    [ "pop2_s" ] ]

let modes = [ (Chbp.Empty, Ext.rv64gcv); (Chbp.Downgrade, Ext.rv64gc) ]

type guest = { bin : Binfile.t; orig : oracle }
type t = guest array

let draw ~seed =
  let rng = Random.State.make [| seed; 0x5e17e |] in
  List.map
    (fun members ->
      let pr = Specgen.find (List.nth members (Random.State.int rng (List.length members))) in
      { pr with
        Specgen.sp_rounds = pr.Specgen.sp_rounds * rounds_scale;
        sp_seed = Random.State.bits rng })
    strata

let setup ~seed ~dir:_ ~seconds:_ ~clock =
  Array.of_list
    (List.map
       (fun pr ->
         let bin = Specgen.build pr in
         { bin; orig = original ~clock bin })
       (draw ~seed))

type op = {
  o_mode : Chbp.mode;
  o_ms : float;
  o_cycles : int;
  o_retired : int;
  o_words : int;
  o_stats : Chbp.stats;
  o_growth : int * int;
  o_rt : Counters.t;
}

(* Rewrite one guest for one mode, load it and run it. *)
let run_op tr ~id g (mode, isa) =
  let t0 = now () in
  let ctx =
    Trace.span tr ~op:id "rewriter.rewrite" (fun () ->
        Chbp.rewrite ~options:(Chbp.default_options mode) g.bin)
  in
  let rt, mem =
    Trace.span tr ~op:id "runtime.load" (fun () ->
        let rt = Chimera_rt.create ctx in
        (rt, Chimera_rt.load rt))
  in
  let m =
    Trace.span tr ~op:id "machine.create" (fun () ->
        let m = Machine.create ~mem ~isa () in
        pin m ~tiered:true;
        m)
  in
  let stop, words =
    Trace.span tr ~op:id "machine.run" (fun () ->
        let w0 = Gc.minor_words () in
        let stop = Chimera_rt.run rt ~fuel m in
        (stop, Gc.minor_words () -. w0))
  in
  check_stop ~what:g.bin.Binfile.name ~want:g.orig stop;
  { o_mode = mode;
    o_ms = now () -. t0;
    o_cycles = Machine.cycles m;
    o_retired = Machine.retired m;
    o_words = int_of_float words;
    o_stats = Chbp.stats ctx;
    o_growth = (Binfile.code_size (Chbp.result ctx), Binfile.code_size g.bin);
    o_rt = Chimera_rt.counters rt }

type pass = {
  p_wall : float;
  p_ops : op option list;
  p_snap : snap;
}

let pass (guests : t) tr clock () =
  Gc.compact ();  (* every pass starts from the same heap state *)
  let s0 = snap () in
  let t0 = now () in
  let ops =
    Trace.span tr "bench.pass" (fun () ->
        List.concat_map
          (fun (i, g) ->
            List.map
              (fun mi ->
                Refclock.ticks clock 4;
                attempt ~what:g.bin.Binfile.name (fun () ->
                    Trace.span tr ~op:i "bench.op" (fun () -> run_op tr ~id:i g mi)))
              modes)
          (List.mapi (fun i g -> (i, g)) (Array.to_list guests)))
  in
  let p_wall = now () -. t0 in
  { p_wall; p_ops = ops; p_snap = delta s0 (snap ()) }

let sum f l = List.fold_left (fun a x -> a + f x) 0 l

let measure (guests : t) tr budget =
  let clock = Refclock.create () in
  let passes = loop_passes budget (pass guests tr clock) in
  let k = Refclock.scale clock in
  let ok p = List.filter_map Fun.id p.p_ops in
  let n_ops = List.length modes * Array.length guests in
  let attempted = n_ops * List.length passes in
  let failed = sum (fun p -> n_ops - List.length (ok p)) passes in
  let walls = Array.of_list (List.map (fun p -> p.p_wall) passes) in
  let stream mode =
    ms
      (List.concat_map
         (fun p -> List.filter_map (fun o -> if o.o_mode = mode then Some o.o_ms else None) (ok p))
         passes)
  in
  let a = stream Chbp.Empty and b = stream Chbp.Downgrade in
  let last = List.nth passes (List.length passes - 1) in
  let ops_last = ok last in
  let empty = List.filter (fun o -> o.o_mode = Chbp.Empty) ops_last in
  let overhead =
    if List.length empty <> Array.length guests then nan
    else
      100.0
      *. (Stats.geomean
            (List.map2
               (fun o g -> float_of_int o.o_cycles /. float_of_int g.orig.cycles)
               empty (Array.to_list guests))
         -. 1.0)
  in
  let retired p = sum (fun o -> o.o_retired) (ok p) in
  let mips = median_of (fun p -> mips ~retired:(retired p) ~wall:p.p_wall) passes in
  let wall = Stats.median walls in
  let stats f = sum (fun o -> f o.o_stats) ops_last in
  let rt f = sum (fun o -> f o.o_rt) ops_last in
  let words = sum (fun o -> o.o_words) ops_last in
  let det p =
    let o = ok p in
    [ ("machine.retired", p.p_snap.retired);
      ("machine.dispatches", p.p_snap.dispatches);
      ("machine.translations", p.p_snap.translations);
      ("rewriter.sites", sum (fun o -> o.o_stats.Chbp.sites) o);
      ("runtime.faults_recovered", sum (fun o -> o.o_rt.Counters.faults_recovered) o);
      ("machine.minor_words", sum (fun o -> o.o_words) o) ]
  in
  let det, repeat_ok = agreed (List.map det passes) in
  let sites = stats (fun s -> s.Chbp.sites) and traps = stats (fun s -> s.Chbp.trap_entries) in
  let grown = sum (fun o -> fst o.o_growth) ops_last in
  let base = sum (fun o -> snd o.o_growth) ops_last in
  { metrics =
      [ ("wall_s", k *. wall);
        ("mips", mips /. k);
        ("sim_overhead_pct", overhead);
        ("p50_ms", k *. Stats.median a);
        ("tail_ms", k *. Stats.quantile a 0.9);
        ("p50_b_ms", k *. Stats.median b);
        ("tail_b_ms", k *. Stats.quantile b 0.9);
        ("max_rate_rps", float_of_int n_ops /. wall /. k) ];
    report =
      [ ("wall_s", wall, "s", Array.length walls);
        ("mips", mips, "M inst/s", Array.length walls);
        ("sim_overhead_pct", overhead, "%", Array.length guests);
        ("empty_op_p50_ms", Stats.median a, "ms", Array.length a);
        ("empty_op_p90_ms", Stats.quantile a 0.9, "ms", Array.length a);
        ("downgrade_op_p50_ms", Stats.median b, "ms", Array.length b);
        ("downgrade_op_p90_ms", Stats.quantile b 0.9, "ms", Array.length b);
        ("reference_kernel_ms", 1000.0 *. Refclock.median clock, "ms", List.length passes * n_ops * 4) ];
    attempted;
    failed;
    passes = List.length passes;
    wall = Array.fold_left ( +. ) 0.0 walls;
    det;
    repeat_ok;
    layers =
      machine_layer last.p_snap ~minor_words:words ~per:last.p_snap.retired
      @ [ ("rewriter.rewrites", float_of_int (List.length ops_last));
          ("rewriter.sites", float_of_int sites);
          ("rewriter.trap_fallback_frac", ratio traps (sites + traps));
          ("rewriter.code_growth", ratio grown base);
          ("runtime.faults_recovered", float_of_int (rt (fun c -> c.Counters.faults_recovered)));
          ("runtime.traps", float_of_int (rt (fun c -> c.Counters.traps)));
          ("runtime.lazy_rewrites", float_of_int (rt (fun c -> c.Counters.lazy_rewrites))) ] }

(* The binaries one pass rewrote, for the disassembler probe. *)
let rewritten (guests : t) =
  List.concat_map (fun g -> List.map (fun _ -> g.bin) modes) (Array.to_list guests)
