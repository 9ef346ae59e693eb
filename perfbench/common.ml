(* Pieces every workload shares: pinned engine flags, the unrewritten
   oracle, process-wide counter snapshots and the per-run result. *)

open Perfbench_core

let now = Unix.gettimeofday
let fuel = Serve.default_fuel

(* Engine flags exactly as [Serve.execute] pins them. *)
let pin m ~tiered =
  Machine.set_block_engine m true;
  Machine.set_superblocks m true;
  Machine.set_ir m true;
  Machine.set_tiered m tiered;
  Machine.set_inline_caches m tiered

type oracle = { exit_code : int; cycles : int }

(* The original binary on rv64gcv, no rewriting: the exit code every
   rewritten run of it must reproduce, and the cycles its overhead is
   measured against. Set-up runs one per guest, and times the reference
   kernel alongside. *)
let original ~clock bin =
  Refclock.ticks clock 2;
  let mem = Loader.load bin in
  let m = Machine.create ~mem ~isa:Ext.rv64gcv () in
  pin m ~tiered:true;
  Loader.init_machine m bin;
  match Machine.run ~fuel m with
  | Machine.Exited c -> { exit_code = c; cycles = Machine.cycles m }
  | Machine.Faulted f ->
      failwith (Printf.sprintf "%s: original faulted: %s" bin.Binfile.name (Fault.to_string f))
  | Machine.Fuel_exhausted -> failwith (bin.Binfile.name ^ ": original out of fuel")

let check_stop ~what ~(want : oracle) = function
  | Machine.Exited c when c = want.exit_code -> ()
  | Machine.Exited c ->
      failwith (Printf.sprintf "%s: exit %d, original exits %d" what c want.exit_code)
  | Machine.Faulted f -> failwith (Printf.sprintf "%s: fault %s" what (Fault.to_string f))
  | Machine.Fuel_exhausted -> failwith (what ^ ": fuel exhausted")

(* Process-wide counters the layers publish, read as deltas. *)
type snap = {
  retired : int;
  dispatches : int;
  chain_hits : int;
  side_exits : int;
  ic_hits : int;
  ic_misses : int;
  translations : int;
  translate_s : float;
  cache_hits : int;
  cache_misses : int;
  cache_stores : int;
  dedups : int;
}

let snap () =
  let chain_hits, dispatches = Machine.observed_chain () in
  let side_exits, _ = Machine.observed_superblock () in
  let ic_hits, ic_misses, _ = Machine.observed_ic () in
  let translate_s, translations = Machine.observed_translate () in
  let cache_hits, cache_misses, cache_stores = Cache.observed () in
  { retired = Machine.observed_retired ();
    dispatches;
    chain_hits;
    side_exits;
    ic_hits;
    ic_misses;
    translations;
    translate_s;
    cache_hits;
    cache_misses;
    cache_stores;
    dedups = Cache.observed_dedup () }

let delta a b =
  { retired = b.retired - a.retired;
    dispatches = b.dispatches - a.dispatches;
    chain_hits = b.chain_hits - a.chain_hits;
    side_exits = b.side_exits - a.side_exits;
    ic_hits = b.ic_hits - a.ic_hits;
    ic_misses = b.ic_misses - a.ic_misses;
    translations = b.translations - a.translations;
    translate_s = b.translate_s -. a.translate_s;
    cache_hits = b.cache_hits - a.cache_hits;
    cache_misses = b.cache_misses - a.cache_misses;
    cache_stores = b.cache_stores - a.cache_stores;
    dedups = b.dedups - a.dedups }

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* Per-layer figures a workload measures from counters; span times are
   added by main.ml. *)
let machine_layer (d : snap) ~minor_words ~per =
  [ ("machine.translate_s", d.translate_s);
    ("machine.translations", float_of_int d.translations);
    ("machine.dispatches", float_of_int d.dispatches);
    ("machine.chain_hit_rate", ratio d.chain_hits d.dispatches);
    ("machine.ic_hit_rate", ratio d.ic_hits (d.ic_hits + d.ic_misses));
    ("machine.side_exit_rate", ratio d.side_exits d.dispatches);
    ("machine.retired", float_of_int d.retired);
    ("machine.minor_words_per_inst", ratio minor_words per) ]

let cache_layer (d : snap) ~bytes =
  [ ("cache.hit_rate", ratio d.cache_hits (d.cache_hits + d.cache_misses));
    ("cache.stores", float_of_int d.cache_stores);
    ("cache.dedups", float_of_int d.dedups);
    ("cache.bytes", float_of_int bytes) ]

(* What one measurement of a workload yields. *)
type result = {
  metrics : (string * float) list;  (* the end-to-end set, by name *)
  report : (string * float * string * int) list;
      (* the workload's own figures: name, value, unit, sample count *)
  attempted : int;
  failed : int;
  passes : int;  (* passes (serve-mix: probes) measured *)
  wall : float;  (* host seconds the ledger must account for *)
  det : (string * int) list;  (* counters that must repeat exactly *)
  repeat_ok : bool;  (* [det] agreed between the passes of this run *)
  layers : (string * float) list;  (* per-layer figures from counters *)
}

(* Run one operation, counting rather than hiding its failure. *)
let attempt ~what f =
  match f () with
  | v -> Some v
  | exception e ->
      Printf.eprintf "FAILED %s: %s\n%!" what (Printexc.to_string e);
      None

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let fresh_dir path =
  rm_rf path;
  Unix.mkdir path 0o755

(* Every pass must produce the same deterministic counters. Allocation is
   compared from the second pass on: the first pass of a process pays
   one-time allocations (tables the program fills once and keeps), so the
   counters reported are the last pass's. *)
let agreed dets =
  let work = List.filter (fun (k, _) -> k <> "machine.minor_words") in
  match dets with
  | [] -> ([], true)
  | first :: rest ->
      let last = List.nth dets (List.length dets - 1) in
      let same =
        List.for_all (fun d -> work d = work first) rest && List.for_all (( = ) last) rest
      in
      if not same then
        List.iteri
          (fun i d ->
            Printf.eprintf "pass %d: %s\n" i
              (String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) d)))
          dets;
      (last, same)

let ms xs = Array.of_list (List.map (fun s -> s *. 1000.0) xs)
let median_of f l = Stats.median (Array.of_list (List.map f l))

(* Simulated millions of instructions per host second. *)
let mips ~retired ~wall = float_of_int retired /. wall /. 1e6

(* Closed-loop budget: at least two passes, then as many as fit in the
   seconds given, unless a fixed pass count is asked for. *)
type budget = Seconds of float | Passes of int

let loop_passes budget f =
  let t0 = now () in
  let rec go acc k =
    let acc = f () :: acc in
    let k = k + 1 in
    let more =
      match budget with
      | Passes n -> k < n
      | Seconds s ->
          (* stop where one more pass of the mean length would overrun *)
          let el = now () -. t0 in
          k < 2 || el +. (el /. float_of_int k) <= s
    in
    if more then go acc k else List.rev acc
  in
  go [] 0

