(* fleet: many distinct short SPEC-like guests through the calls
   [Serve.execute] makes, once against an empty cache directory (cold)
   and again against the filled one (warm). *)

open Perfbench_core
open Common

let copies = 6
let rounds_div = 16
let code_cap_kb = 16
let mode = Chbp.Downgrade
let isa = Ext.rv64gc
let tiered = true
let tag = Serve.cfg_tag ~mode ~tiered

type guest = { bin : Binfile.t; orig : oracle }
type t = { guests : guest array; dir : string }

(* Every SPEC profile [copies] times, each copy with a fresh generator
   seed, short outer loops and its text capped: the same mix of shapes
   under every seed. *)
let setup ~seed ~dir ~seconds:_ ~clock =
  let rng = Random.State.make [| seed; 0xf1ee7 |] in
  let guests =
    List.concat_map
      (fun pr ->
        List.init copies (fun _ ->
            let pr =
              { pr with
                Specgen.sp_rounds = max 4 (pr.Specgen.sp_rounds / rounds_div);
                sp_code_kb = min code_cap_kb pr.Specgen.sp_code_kb;
                sp_seed = Random.State.bits rng }
            in
            let bin = Specgen.build pr in
            { bin; orig = original ~clock bin }))
      Specgen.spec_profiles
  in
  let dir = Filename.concat dir "fleet-cache" in
  fresh_dir dir;
  { guests = Array.of_list guests; dir }

type op = {
  o_ms : float;
  o_cycles : int;
  o_retired : int;
  o_words : int;
  o_rewrite : (Chbp.stats * int * int) option;  (* stats, rewritten and original text bytes *)
  o_rt : Counters.t;
}

(* One guest end to end, the sequence of [Serve.execute]. *)
let run_op tr c ~id g =
  let t0 = now () in
  let key = Trace.span tr ~op:id "cache.digest" (fun () -> Cache.digest_bin g.bin ~extra:tag) in
  let ctx, rewrite =
    match Trace.span tr ~op:id "cache.load" (fun () -> Cache.load_rewrite c ~key) with
    | Ok ctx -> (ctx, None)
    | Error _ ->
        let ctx =
          Trace.span tr ~op:id "rewriter.rewrite" (fun () ->
              Chbp.rewrite ~options:(Chbp.default_options mode) g.bin)
        in
        Trace.span tr ~op:id "cache.store" (fun () -> Cache.store_rewrite c ~key ctx);
        let size b = Binfile.code_size b in
        (ctx, Some (Chbp.stats ctx, size (Chbp.result ctx), size g.bin))
  in
  let rt, mem =
    Trace.span tr ~op:id "runtime.load" (fun () ->
        let rt = Chimera_rt.create ctx in
        (rt, Chimera_rt.load rt))
  in
  let m =
    Trace.span tr ~op:id "machine.create" (fun () ->
        let m = Machine.create ~mem ~isa () in
        pin m ~tiered;
        m)
  in
  let pkey =
    Trace.span tr ~op:id "cache.digest" (fun () -> Cache.digest_mem (Machine.mem m) ~isa ~extra:tag)
  in
  ignore (Trace.span tr ~op:id "cache.seed" (fun () -> Cache.seed_plan c ~key:pkey m));
  Machine.set_record m true;
  let stop, words =
    Trace.span tr ~op:id "machine.run" (fun () ->
        let w0 = Gc.minor_words () in
        let stop = Chimera_rt.run rt ~fuel m in
        (stop, Gc.minor_words () -. w0))
  in
  let key =
    Trace.span tr ~op:id "cache.digest" (fun () -> Cache.digest_mem (Machine.mem m) ~isa ~extra:tag)
  in
  Trace.span tr ~op:id "cache.store" (fun () -> Cache.store_plan c ~key m);
  check_stop ~what:g.bin.Binfile.name ~want:g.orig stop;
  { o_ms = now () -. t0;
    o_cycles = Machine.cycles m;
    o_retired = Machine.retired m;
    o_words = int_of_float words;
    o_rewrite = rewrite;
    o_rt = Chimera_rt.counters rt }

type pass = {
  p_wall : float;
  p_cold : op option array;
  p_warm : op option array;
  p_snap : snap;
  p_bytes : int;
  p_mismatch : int;  (* warm guests that retired other than their cold run *)
}

let pass t tr clock () =
  fresh_dir t.dir;
  let c = Cache.open_dir t.dir in
  Gc.compact ();  (* every pass starts from the same heap state *)
  let s0 = snap () in
  let t0 = now () in
  let run label =
    Trace.span tr ("bench." ^ label) (fun () ->
        Array.mapi
          (fun i g ->
            Refclock.tick clock;
            attempt ~what:(label ^ " " ^ g.bin.Binfile.name) (fun () ->
                Trace.span tr ~op:i "bench.op" (fun () -> run_op tr c ~id:i g)))
          t.guests)
  in
  let cold = run "cold" in
  let wall_cold = now () -. t0 in
  let bytes = snd (Cache.stat c) in
  let t1 = now () in
  let warm = run "warm" in
  let p_wall = wall_cold +. (now () -. t1) in
  let mismatch =
    Array.fold_left ( + ) 0
      (Array.map2
         (fun c w ->
           match (c, w) with
           | Some c, Some w when c.o_retired <> w.o_retired ->
               Printf.eprintf "FAILED warm guest retired %d, cold %d\n%!" w.o_retired c.o_retired;
               1
           | _ -> 0)
         cold warm)
  in
  { p_wall;
    p_cold = cold;
    p_warm = warm;
    p_snap = delta s0 (snap ());
    p_bytes = bytes;
    p_mismatch = mismatch }

let sum f a = Array.fold_left (fun acc x -> acc + f x) 0 a
let ok a = Array.of_list (List.filter_map Fun.id (Array.to_list a))

let measure t tr budget =
  let clock = Refclock.create () in
  let passes = loop_passes budget (pass t tr clock) in
  let k = Refclock.scale clock in
  let n = Array.length t.guests in
  let attempted = 2 * n * List.length passes in
  let failed =
    List.fold_left
      (fun a p -> a + (2 * n) - Array.length (ok p.p_cold) - Array.length (ok p.p_warm) + p.p_mismatch)
      0 passes
  in
  let walls = Array.of_list (List.map (fun p -> p.p_wall) passes) in
  let stream f =
    ms (List.concat_map (fun p -> List.map (fun o -> o.o_ms) (Array.to_list (ok (f p)))) passes)
  in
  let cold = stream (fun p -> p.p_cold) and warm = stream (fun p -> p.p_warm) in
  let last = List.nth passes (List.length passes - 1) in
  let cold_last = ok last.p_cold and warm_last = ok last.p_warm in
  let overhead =
    if Array.length cold_last <> n then nan
    else
      100.0
      *. (Stats.geomean
            (Array.to_list
               (Array.map2
                  (fun o g -> float_of_int o.o_cycles /. float_of_int g.orig.cycles)
                  cold_last t.guests))
         -. 1.0)
  in
  let retired p = sum (fun o -> o.o_retired) (ok p.p_cold) + sum (fun o -> o.o_retired) (ok p.p_warm) in
  let mips = median_of (fun p -> mips ~retired:(retired p) ~wall:p.p_wall) passes in
  let wall = Stats.median walls in
  let rewrites p = List.filter_map (fun o -> o.o_rewrite) (Array.to_list (ok p.p_cold)) in
  let det p =
    let all = Array.append (ok p.p_cold) (ok p.p_warm) in
    [ ("machine.retired", p.p_snap.retired);
      ("machine.dispatches", p.p_snap.dispatches);
      ("machine.translations", p.p_snap.translations);
      ("rewriter.sites", List.fold_left (fun a (s, _, _) -> a + s.Chbp.sites) 0 (rewrites p));
      ("runtime.faults_recovered", sum (fun o -> o.o_rt.Counters.faults_recovered) all);
      ("cache.bytes", p.p_bytes);
      ("machine.minor_words", sum (fun o -> o.o_words) all) ]
  in
  let det, repeat_ok = agreed (List.map det passes) in
  let all_last = Array.append cold_last warm_last in
  let rw = rewrites last in
  let sites = List.fold_left (fun a (s, _, _) -> a + s.Chbp.sites) 0 rw in
  let traps = List.fold_left (fun a (s, _, _) -> a + s.Chbp.trap_entries) 0 rw in
  let grown = List.fold_left (fun a (_, g, _) -> a + g) 0 rw in
  let base = List.fold_left (fun a (_, _, b) -> a + b) 0 rw in
  let rt f = float_of_int (sum (fun o -> f o.o_rt) all_last) in
  { metrics =
      [ ("wall_s", k *. wall);
        ("mips", mips /. k);
        ("sim_overhead_pct", overhead);
        ("p50_ms", k *. Stats.median cold);
        ("tail_ms", k *. Stats.quantile cold 0.9);
        ("p50_b_ms", k *. Stats.median warm);
        ("tail_b_ms", k *. Stats.quantile warm 0.9);
        ("max_rate_rps", float_of_int (2 * n) /. wall /. k) ];
    report =
      [ ("wall_s", wall, "s", Array.length walls);
        ("cold_p50_ms", Stats.median cold, "ms", Array.length cold);
        ("cold_p90_ms", Stats.quantile cold 0.9, "ms", Array.length cold);
        ("warm_p50_ms", Stats.median warm, "ms", Array.length warm);
        ("warm_p90_ms", Stats.quantile warm 0.9, "ms", Array.length warm);
        ("mips", mips, "M inst/s", Array.length walls);
        ("sim_overhead_pct", overhead, "%", n);
        ("reference_kernel_ms", 1000.0 *. Refclock.median clock, "ms", 2 * n * List.length passes) ];
    attempted;
    failed;
    passes = List.length passes;
    wall = Array.fold_left ( +. ) 0.0 walls;
    det;
    repeat_ok;
    layers =
      machine_layer last.p_snap
        ~minor_words:(sum (fun o -> o.o_words) all_last)
        ~per:last.p_snap.retired
      @ cache_layer last.p_snap ~bytes:last.p_bytes
      @ [ ("rewriter.rewrites", float_of_int (List.length rw));
          ("rewriter.sites", float_of_int sites);
          ("rewriter.trap_fallback_frac", ratio traps (sites + traps));
          ("rewriter.code_growth", ratio grown base);
          ("runtime.faults_recovered", rt (fun c -> c.Counters.faults_recovered));
          ("runtime.traps", rt (fun c -> c.Counters.traps));
          ("runtime.lazy_rewrites", rt (fun c -> c.Counters.lazy_rewrites)) ] }

(* The binaries one pass rewrote (the cold pass), for the disassembler
   probe. *)
let rewritten t = Array.to_list (Array.map (fun g -> g.bin) t.guests)
