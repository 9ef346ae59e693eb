(* Benchmark entry point: set a workload up several times, measure it with
   tracing off, and with --trace 1 measure it again with spans on to build
   the per-layer ledger. The last line of stdout is the JSON result.

     perfbench/main.exe --workload suite-run|fleet|serve-mix --seed N
       --seconds S --trace 0|1 *)

open Perfbench_core

(* Recorded for later claims: a result must also hold on this seed, which
   no tuning of the benchmark or the program has looked at. *)
let held_out_seed = 90_917
let setup_reps = 3
let state_dir = ".perfbench"

(* The largest share of the traced wall time the layer spans may leave
   unattributed. *)
let ledger_bound = 0.10

type instance = {
  measure : Trace.t -> Common.budget -> Common.result;
  rewritten : Binfile.t list;
}

let workloads =
  [ ( "suite-run",
      fun ~seed ~dir ~seconds ~clock ->
        let t = Suite_run.setup ~seed ~dir ~seconds ~clock in
        { measure = Suite_run.measure t; rewritten = Suite_run.rewritten t } );
    ( "fleet",
      fun ~seed ~dir ~seconds ~clock ->
        let t = Fleet.setup ~seed ~dir ~seconds ~clock in
        { measure = Fleet.measure t; rewritten = Fleet.rewritten t } );
    ( "serve-mix",
      fun ~seed ~dir ~seconds ~clock ->
        let t = Serve_mix.setup ~seed ~dir ~seconds ~clock in
        { measure = Serve_mix.measure t; rewritten = Serve_mix.rewritten t } ) ]

let end_to_end =
  [ ("setup_s", "s");
    ("wall_s", "s");
    ("mips", "Minst/s");
    ("sim_overhead_pct", "%");
    ("p50_ms", "ms");
    ("tail_ms", "ms");
    ("p50_b_ms", "ms");
    ("tail_b_ms", "ms");
    ("max_rate_rps", "1/s");
    ("peak_rss_mb", "MB") ]

let per_layer =
  [ ("analysis.disasm_s", "s");
    ("analysis.insns", "count");
    ("analysis.covered_frac", "ratio");
    ("rewriter.rewrite_s", "s");
    ("rewriter.rewrites", "count");
    ("rewriter.sites", "count");
    ("rewriter.trap_fallback_frac", "ratio");
    ("rewriter.code_growth", "ratio");
    ("cache.digest_s", "s");
    ("cache.load_s", "s");
    ("cache.seed_s", "s");
    ("cache.store_s", "s");
    ("cache.hit_rate", "ratio");
    ("cache.stores", "count");
    ("cache.dedups", "count");
    ("cache.bytes", "bytes");
    ("runtime.load_s", "s");
    ("runtime.faults_recovered", "count");
    ("runtime.traps", "count");
    ("runtime.lazy_rewrites", "count");
    ("machine.run_s", "s");
    ("machine.translate_s", "s");
    ("machine.execute_s", "s");
    ("machine.translations", "count");
    ("machine.dispatches", "count");
    ("machine.chain_hit_rate", "ratio");
    ("machine.ic_hit_rate", "ratio");
    ("machine.side_exit_rate", "ratio");
    ("machine.retired", "count");
    ("machine.minor_words_per_inst", "words/inst");
    ("sched.wait_p50_ms", "ms");
    ("sched.wait_p95_ms", "ms");
    ("sched.queue_peak", "count");
    ("serve.service_p50_ms", "ms");
    ("serve.service_p95_ms", "ms");
    ("serve.warm_frac", "ratio");
    ("serve.gen_late_p95_ms", "ms");
    ("ledger.unattributed_frac", "ratio");
    ("trace.overhead_frac", "ratio") ]

(* Span names whose self time a per-layer metric reports, per pass. The
   disassembler probe covers one pass's binaries and is not divided. *)
let span_metrics =
  [ ("rewriter.rewrite_s", "rewriter.rewrite");
    ("cache.digest_s", "cache.digest");
    ("cache.load_s", "cache.load");
    ("cache.seed_s", "cache.seed");
    ("cache.store_s", "cache.store");
    ("runtime.load_s", "runtime.load");
    ("machine.run_s", "machine.run") ]

(* Layers whose spans the ledger adds up. The disassembler probe runs
   outside the measured passes, request spans sit on the worker's
   timeline, and bench spans are the benchmark's own glue. *)
let ledger_layers = [ "rewriter"; "cache"; "runtime"; "machine"; "serve"; "gen" ]

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Unix.mkdir d 0o755
  end

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

(* A per-layer metric a workload does not reach reads 0: that layer did no
   work there. *)
let json_metrics names values =
  String.concat ", "
    (List.map
       (fun (name, unit) ->
         let v = Option.value ~default:0.0 (List.assoc_opt name values) in
         Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v) unit)
       names)

(* Deterministic counters must repeat exactly across runs of one seed:
   the first run of a build records them, later ones compare. *)
let repeat_check ~workload ~seed ~seconds det =
  let dir = Filename.concat state_dir "counters" in
  mkdir_p dir;
  let exe = Digest.to_hex (Digest.file Sys.executable_name) in
  let file =
    Filename.concat dir (Printf.sprintf "%s-seed%d-s%g-%s.txt" workload seed seconds exe)
  in
  let text = String.concat "" (List.map (fun (k, v) -> Printf.sprintf "%s=%d\n" k v) det) in
  if Sys.file_exists file then begin
    let ic = open_in_bin file in
    let prev = really_input_string ic (in_channel_length ic) in
    close_in ic;
    if prev <> text then begin
      Printf.eprintf
        "FAILED deterministic counters differ from an earlier run of this seed:\n%s---\n%s%!"
        prev text;
      false
    end
    else true
  end
  else begin
    let oc = open_out_bin file in
    output_string oc text;
    close_out oc;
    true
  end

(* Per-layer figures of a traced measurement: span self times per pass,
   the counters the workload read, the disassembler probe and the
   ledger. *)
let layer_metrics tr (inst : instance) (r : Common.result) ~untraced_wall_s =
  let probe =
    List.map
      (fun bin ->
        let d = Trace.span tr "analysis.disasm" (fun () -> Disasm.of_binfile bin) in
        (Disasm.count d, Disasm.covered_bytes d, Binfile.code_size bin))
      inst.rewritten
  in
  let spans = Trace.spans tr in
  let self = Trace.self_by_name spans in
  let passes = float_of_int r.Common.passes in
  let per_pass name = Option.value ~default:0.0 (List.assoc_opt name self) /. passes in
  let timed =
    ("analysis.disasm_s", per_pass "analysis.disasm" *. passes)
    :: List.map (fun (metric, span) -> (metric, per_pass span)) span_metrics
  in
  let attributed =
    List.fold_left
      (fun a (name, t) -> if List.mem (Trace.layer name) ledger_layers then a +. t else a)
      0.0 self
  in
  let unattributed = Trace.unattributed ~wall:r.Common.wall ~attributed in
  let sum f = List.fold_left (fun a x -> a + f x) 0 probe in
  let run_s = List.assoc "machine.run_s" timed in
  let translate_s = Option.value ~default:0.0 (List.assoc_opt "machine.translate_s" r.Common.layers) in
  let traced_wall_s = List.assoc "wall_s" r.Common.metrics in
  ( spans,
    unattributed,
    timed
    @ r.Common.layers
    @ [ ("analysis.insns", float_of_int (sum (fun (n, _, _) -> n)));
        ("analysis.covered_frac", Common.ratio (sum (fun (_, c, _) -> c)) (sum (fun (_, _, s) -> s)));
        ("machine.execute_s", if run_s > 0.0 then run_s -. translate_s else 0.0);
        ("ledger.unattributed_frac", unattributed);
        ("trace.overhead_frac", (traced_wall_s /. untraced_wall_s) -. 1.0) ] )

let write_file path f =
  mkdir_p (Filename.dirname path);
  let oc = open_out path in
  f oc;
  close_out oc

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME suite-run | fleet | serve-mix");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S how long one measurement runs");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or the per-layer ledger (1)") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  let make =
    match List.assoc_opt !workload workloads with
    | Some m -> m
    | None ->
        prerr_endline "perfbench: --workload must be suite-run, fleet or serve-mix";
        exit 2
  in
  let seed = !seed and seconds = !seconds and traced = !trace = 1 in
  let run_dir = Filename.concat state_dir (Printf.sprintf "run-%d" (Unix.getpid ())) in
  mkdir_p run_dir;
  let host = Host.fingerprint ~workers:Serve_mix.workers ~cache_dir:run_dir in
  Printf.printf "perfbench %s seed=%d (held-out seed %d) seconds=%g trace=%d\n" !workload seed
    held_out_seed seconds !trace;
  List.iter (fun (k, v) -> Printf.printf "  host %s: %s\n" k v) host;
  (* set up several times; the last instance is measured, the earlier ones
     are dropped before the next set-up starts *)
  let clock = Refclock.create () in
  let setup () =
    Gc.compact ();
    let t0 = Unix.gettimeofday () in
    let inst = make ~seed ~dir:run_dir ~seconds ~clock in
    (Unix.gettimeofday () -. t0, inst)
  in
  let rec setups times =
    let dt, inst = setup () in
    if List.length times + 1 < setup_reps then setups (dt :: times) else (dt :: times, inst)
  in
  let times, inst = setups [] in
  let setup_raw_s = Stats.median (Array.of_list times) in
  let setup_s = setup_raw_s *. Refclock.scale clock in
  let r0 = inst.measure (Trace.create ~on:false) (Common.Seconds seconds) in
  let peak_rss_mb = Host.peak_rss_mb () in
  let r, spans, unattributed, metrics, names =
    if not traced then
      let metrics = ("setup_s", setup_s) :: ("peak_rss_mb", peak_rss_mb) :: r0.Common.metrics in
      (r0, [], 0.0, metrics, end_to_end)
    else begin
      let tr = Trace.create ~on:true in
      let r1 = inst.measure tr (Common.Passes r0.Common.passes) in
      let spans, unattributed, layers =
        layer_metrics tr inst r1 ~untraced_wall_s:(List.assoc "wall_s" r0.Common.metrics)
      in
      (r1, spans, unattributed, layers, per_layer)
    end
  in
  let det_same = (not traced) || r.Common.det = r0.Common.det in
  if not det_same then prerr_endline "FAILED traced and untraced deterministic counters differ";
  if not (r0.Common.repeat_ok && r.Common.repeat_ok) then
    prerr_endline "FAILED deterministic counters differ between passes of this run";
  let repeat = repeat_check ~workload:!workload ~seed ~seconds r0.Common.det in
  let ledger_ok = (not traced) || unattributed <= ledger_bound in
  if not ledger_ok then
    Printf.eprintf "FAILED ledger leaves %.3f of the traced wall unattributed (bound %.2f)\n"
      unattributed ledger_bound;
  let attempted = r0.Common.attempted + if traced then r.Common.attempted else 0 in
  let failed = r0.Common.failed + if traced then r.Common.failed else 0 in
  let finite = List.for_all (fun (_, v) -> Float.is_finite v) metrics in
  let correct =
    failed = 0 && det_same && r0.Common.repeat_ok && r.Common.repeat_ok && repeat && ledger_ok && finite
  in
  (* human-readable report: the workload's own figures with sample counts *)
  Printf.printf "  setup_s = %.4f s (median of %d set-ups, %.4f s scaled)\n" setup_raw_s
    setup_reps setup_s;
  List.iter
    (fun (name, v, unit, n) -> Printf.printf "  %s = %.4f %s (n=%d)\n" name v unit n)
    r0.Common.report;
  Printf.printf "  peak_rss_mb = %.1f MB\n  ops = %d, ops_failed = %d\n" peak_rss_mb attempted failed;
  List.iter (fun (k, v) -> Printf.printf "  det %s = %d\n" k v) r0.Common.det;
  if traced then
    List.iter
      (fun (name, _) ->
        Printf.printf "  %s = %.6g\n" name (Option.value ~default:0.0 (List.assoc_opt name metrics)))
      per_layer;
  let tag = Printf.sprintf "%s-seed%d-trace%d" !workload seed !trace in
  let body = json_metrics names metrics in
  let report =
    ("setup_s", setup_raw_s, "s", setup_reps)
    :: ("peak_rss_mb", peak_rss_mb, "MB", 1)
    :: r0.Common.report
  in
  write_file (Filename.concat state_dir ("results/" ^ tag ^ ".json")) (fun oc ->
      let obj f l = String.concat ", " (List.map f l) in
      Printf.fprintf oc
        "{\"workload\": %S, \"seed\": %d, \"held_out_seed\": %d, \"seconds\": %s, \"host\": {%s}, \
         \"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}, \"report\": {%s}, \
         \"deterministic\": {%s}}\n"
        !workload seed held_out_seed (json_num seconds)
        (obj (fun (k, v) -> Printf.sprintf "%S: %S" k v) host)
        correct attempted failed body
        (obj
           (fun (name, v, unit, n) ->
             Printf.sprintf "%S: {\"value\": %s, \"unit\": %S, \"samples\": %d}" name
               (json_num v) unit n)
           report)
        (obj (fun (k, v) -> Printf.sprintf "%S: %d" k v) r0.Common.det));
  if traced then
    write_file (Filename.concat state_dir ("spans/" ^ tag ^ ".jsonl")) (fun oc ->
        Trace.to_jsonl oc spans);
  Common.rm_rf run_dir;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed body;
  exit (if correct then 0 else 1)
