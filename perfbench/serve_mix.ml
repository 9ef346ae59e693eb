(* serve-mix: hot tenants that hit the shared cache interleaved with a
   one-shot cold tail of distinct programs. Closed passes run the requests
   in order through [Serve.execute] on one domain against one cache; then
   the same requests are offered to a pool of one worker domain, in
   closed bursts and open loop by [Serve.arrivals]. *)

open Perfbench_core
open Common

let workers = 1

(* Open-loop load is set against the capacity a closed burst of the same
   requests measured just before: the host's speed drifts by more than the
   distance between 80% load and saturation within a minute, so rates
   fixed in req/s would measure the drift, not the server. [nominal_rps]
   (one worker's capacity on the reference host, README.md) only sizes
   the probes. *)
let nominal_rps = 125.0
let low_load = 0.5
let high_load = 0.7
let search_hi_load = 1.4
let search_steps = 3
let limit_ms = 100.0

(* Share of [--seconds] given to the closed passes; the pool probes get
   the rest. *)
let closed_share = 0.4
let isa = Ext.rv64gcv
let mode = Chbp.Downgrade

type program = {
  tenant : string;
  bin : Binfile.t;
  tiered : bool;
  prefer_ext : bool;
  orig : oracle;
  solo_retired : int;
  solo_cycles : int;
}

type t = {
  reqs : program array;  (* request k runs reqs.(k) *)
  programs : program list;  (* each distinct program once *)
  dir : string;
  seed : int;  (* of the arrival schedules *)
}

(* Requests per probe: the pool probes together last about their share of
   [seconds]. *)
let requests ~seconds =
  let load =
    2.0 +. (1.0 /. low_load) +. (1.0 /. high_load) +. (0.5 *. float_of_int search_steps)
  in
  max 200 (int_of_float ((1.0 -. closed_share) *. seconds *. nominal_rps /. load))

let make ~clock ~tenant ~tiered ~prefer_ext bin =
  let orig = original ~clock bin in
  let stop, retired, cycles, _ = Serve.execute ~isa ~mode ~tiered ~fuel bin in
  check_stop ~what:("solo " ^ tenant) ~want:orig stop;
  { tenant;
    bin;
    tiered;
    prefer_ext;
    orig;
    solo_retired = retired;
    solo_cycles = cycles }

(* Hot tenants as in the serving experiment; the cold tail's parameters
   are a seeded permutation of a fixed grid, so every seed offers the same
   sizes in another order and every cold digest is distinct. *)
let setup ~seed ~dir ~seconds ~clock =
  let make = make ~clock in
  let n = requests ~seconds in
  let hot =
    [| make ~tenant:"hot-mm" ~tiered:true ~prefer_ext:true (Programs.matmul ~name:"serve-mm" `Ext ~n:8);
       make ~tenant:"hot-branchy" ~tiered:true ~prefer_ext:false
         (Programs.branchy ~name:"serve-br" ~rounds:20_000 ());
       make ~tenant:"hot-fib" ~tiered:false ~prefer_ext:false
         (Programs.fibonacci ~name:"serve-fib" ~rounds:4_000 ()) |]
  in
  let n_cold = n - ((n + 2) / 3) in
  let per_kind = (n_cold + 2) / 3 in
  let rng = Random.State.make [| seed; 0x5e7e |] in
  let perm () =
    let a = Array.init per_kind Fun.id in
    for i = per_kind - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let x = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- x
    done;
    a
  in
  let perms = [| perm (); perm (); perm () |] in
  let cold i =
    let kind = i mod 3 and j = perms.(i mod 3).(i / 3) in
    let tenant = Printf.sprintf "t%03d" i in
    match kind with
    | 0 ->
        make ~tenant ~tiered:false ~prefer_ext:false
          (Programs.fibonacci ~name:(Printf.sprintf "serve-f%d" j) ~rounds:(500 + (37 * j)) ())
    | 1 ->
        make ~tenant ~tiered:false ~prefer_ext:false
          (Programs.branchy ~name:(Printf.sprintf "serve-b%d" j) ~rounds:(400 + (29 * j)) ())
    | _ ->
        make ~tenant ~tiered:false ~prefer_ext:true
          (Programs.vecadd ~name:(Printf.sprintf "serve-v%d" j) `Ext ~n:(64 + (8 * j)))
  in
  let colds = Array.init n_cold cold in
  (* hot, cold, cold, hot, cold, cold, ... *)
  let reqs =
    Array.init n (fun k -> if k mod 3 = 0 then hot.(k / 3 mod 3) else colds.(k - (k / 3) - 1))
  in
  let dir = Filename.concat dir "serve-cache" in
  fresh_dir dir;
  { reqs; programs = Array.to_list hot @ Array.to_list colds; dir; seed }

(* One closed pass: every request in order through [Serve.execute] on this
   domain, against a fresh cache. *)
type served = { sv_ms : float; sv_hot : bool; sv_retired : int; sv_words : int }

type pass = {
  p_wall : float;
  p_served : served option array;
  p_snap : snap;
  p_bytes : int;
}

let pass t tr clock () =
  fresh_dir t.dir;
  let cache = Cache.open_dir t.dir in
  Gc.compact ();  (* every pass starts from the same heap state *)
  let s0 = snap () in
  let t0 = now () in
  let served =
    Trace.span tr "bench.pass" (fun () ->
        Array.mapi
          (fun k p ->
            Refclock.tick clock;
            attempt ~what:p.tenant (fun () ->
                let t1 = now () in
                let stop, retired, _, _, words =
                  Trace.span tr ~op:k "serve.execute" (fun () ->
                      let w0 = Gc.minor_words () in
                      let stop, retired, cycles, warm =
                        Serve.execute ~cache ~isa ~mode ~tiered:p.tiered ~fuel p.bin
                      in
                      (stop, retired, cycles, warm, Gc.minor_words () -. w0))
                in
                check_stop ~what:p.tenant ~want:p.orig stop;
                if retired <> p.solo_retired then
                  failwith (Printf.sprintf "%s: retired %d, solo %d" p.tenant retired p.solo_retired);
                { sv_ms = now () -. t1;
                  sv_hot = k mod 3 = 0;
                  sv_retired = retired;
                  sv_words = int_of_float words }))
          t.reqs)
  in
  let p_wall = now () -. t0 in
  { p_wall; p_served = served; p_snap = delta s0 (snap ()); p_bytes = snd (Cache.stat cache) }

type sample = {
  s_late : float;  (* submit - due *)
  s_outcome : Serve.outcome option;  (* None: refused *)
}

type probe = {
  pr_wall : float;
  pr_samples : sample array;
  pr_peak : int;
  pr_bad : int;  (* refused, failed or diverged from the solo run *)
}

(* Offer every request at its due offset ([None]: all at once), drain,
   and check each outcome against its solo run. *)
let probe ?count t tr ~rate ~seed =
  fresh_dir t.dir;
  Gc.compact ();  (* every probe starts from the same heap state *)
  let n = Option.value ~default:(Array.length t.reqs) count in
  let due = match rate with None -> Array.make n 0.0 | Some r -> Serve.arrivals ~seed ~rate:r ~n in
  let ids = Hashtbl.create n in
  let late = Array.make n 0.0 in
  let t0 = now () in
  let srv =
    Trace.span tr "serve.create" (fun () ->
        Serve.create ~cache:(Cache.open_dir t.dir) ~base_workers:workers ~ext_workers:0 ())
  in
  Array.iteri
    (fun k off ->
      let wait = off -. (now () -. t0) in
      if wait > 0.0 then Trace.span tr "gen.sleep" (fun () -> Unix.sleepf wait);
      let p = t.reqs.(k) in
      late.(k) <- now () -. t0 -. off;
      match
        Trace.span tr ~op:k "serve.submit" (fun () ->
            Serve.submit srv ~tenant:p.tenant ~prefer_ext:p.prefer_ext ~isa ~mode ~tiered:p.tiered ~fuel
              p.bin)
      with
      | Ok id -> Hashtbl.replace ids id k
      | Error `Saturated -> ())
    due;
  Trace.span tr "serve.drain" (fun () -> Serve.drain srv);
  let st = Serve.stats srv in
  Trace.span tr "serve.drain" (fun () -> Serve.shutdown srv);
  let wall = now () -. t0 in
  let outcomes = Array.make n None in
  List.iter (fun o -> outcomes.(Hashtbl.find ids o.Serve.o_id) <- Some o) (Serve.outcomes srv);
  let bad = ref 0 in
  Array.iteri
    (fun k o ->
      let p = t.reqs.(k) in
      match o with
      | None ->
          incr bad;
          Printf.eprintf "FAILED request %d (%s): refused\n%!" k p.tenant
      | Some o ->
          if o.Serve.o_retired <> p.solo_retired || o.Serve.o_exit <> Some p.orig.exit_code then begin
            incr bad;
            Printf.eprintf "FAILED request %d (%s): %s retired %d, solo %d exits %d\n%!" k p.tenant
              o.Serve.o_stop o.Serve.o_retired p.solo_retired p.orig.exit_code
          end;
          if Trace.on tr then begin
            (* the worker's side of the request, timed by the server *)
            let admit = t0 +. due.(k) +. late.(k) in
            let start = admit +. (float_of_int o.Serve.o_wait_us /. 1e6) in
            let stop = admit +. (float_of_int o.Serve.o_latency_us /. 1e6) in
            ignore (Trace.add tr ~name:"request.wait" ~parent:(-1) ~op:k ~start:admit ~stop:start);
            ignore (Trace.add tr ~name:"request.service" ~parent:(-1) ~op:k ~start ~stop)
          end)
    outcomes;
  { pr_wall = wall;
    pr_samples =
      Array.init n (fun k -> { s_late = late.(k); s_outcome = outcomes.(k) });
    pr_peak = st.Serve.peak_depth;
    pr_bad = !bad }

(* Latency of each request from its due time; a refused request never
   completes. *)
let from_due s =
  match s.s_outcome with
  | Some o -> Some (s.s_late +. (float_of_int o.Serve.o_latency_us /. 1e6))
  | None -> None

let latencies pr = ms (List.filter_map from_due (Array.to_list pr.pr_samples))

(* A rate is sustained when nothing failed, the p95 from due time meets
   the limit, and the last quarter of requests meets it too (no growing
   backlog). *)
let meets pr =
  let n = Array.length pr.pr_samples in
  let last = Array.sub pr.pr_samples (n - (n / 4)) (n / 4) in
  let p95 a = Stats.quantile a 0.95 in
  pr.pr_bad = 0
  && p95 (latencies pr) <= limit_ms
  && p95 (ms (List.filter_map from_due (Array.to_list last))) <= limit_ms

(* Two closed bursts, each followed by open-loop probes at shares of the
   capacity it measured: 70% and 50%, then a bisection for the highest
   share that meets the limit. *)
let measure_with t tr =
  let run ?count label rate =
    Trace.span tr ("bench." ^ label) (fun () -> probe ?count t tr ~rate ~seed:t.seed)
  in
  let n = Array.length t.reqs in
  let burst () =
    let b = run "burst" None in
    (b, float_of_int n /. b.pr_wall)
  in
  let b1, c1 = burst () in
  let high = run "high" (Some (high_load *. c1)) in
  let low = run "low" (Some (low_load *. c1)) in
  let b2, c2 = burst () in
  let lo, hi =
    if meets high then (high_load, search_hi_load)
    else if meets low then (low_load, high_load)
    else (0.0, low_load)
  in
  (* pass or fail needs fewer requests than a percentile report *)
  let rec search lo hi k acc =
    if k = 0 then (lo, List.rev acc)
    else
      let mid = (lo +. hi) /. 2.0 in
      let p = run ~count:(n / 2) "search" (Some (mid *. c2)) in
      if meets p then search mid hi (k - 1) (p :: acc) else search lo mid (k - 1) (p :: acc)
  in
  let share, searched = search lo hi search_steps [] in
  ([ b1; b2 ], low, high, share *. c2, searched)

(* Closed passes for the gated figures, then the pool probes for the
   open-loop figures and the sched/serve layers. *)
let measure t tr budget =
  let clock = Refclock.create () in
  let budget =
    match budget with Seconds s -> Seconds (closed_share *. s) | Passes _ -> budget
  in
  let passes = loop_passes budget (pass t tr clock) in
  let k = Refclock.scale clock in
  let bursts, low, high, max_rate, searched = measure_with t tr in
  let probes = bursts @ [ low; high ] @ searched in
  let n = Array.length t.reqs in
  let ok p = List.filter_map Fun.id (Array.to_list p.p_served) in
  let attempted =
    (n * List.length passes) + List.fold_left (fun a p -> a + Array.length p.pr_samples) 0 probes
  in
  let failed =
    List.fold_left (fun a p -> a + n - List.length (ok p)) 0 passes
    + List.fold_left (fun a p -> a + p.pr_bad) 0 probes
  in
  let sum f l = List.fold_left (fun a x -> a + f x) 0 l in
  let walls = Array.of_list (List.map (fun p -> p.p_wall) passes) in
  let wall = Stats.median walls in
  let mips = median_of (fun p -> mips ~retired:(sum (fun s -> s.sv_retired) (ok p)) ~wall:p.p_wall) passes in
  let stream hot =
    ms
      (List.concat_map
         (fun p -> List.filter_map (fun s -> if s.sv_hot = hot then Some s.sv_ms else None) (ok p))
         passes)
  in
  let cold = stream false and hot = stream true in
  let overhead =
    100.0
    *. (Stats.geomean
          (List.map (fun p -> float_of_int p.solo_cycles /. float_of_int p.orig.cycles) t.programs)
       -. 1.0)
  in
  let det p =
    [ ("machine.retired", p.p_snap.retired);
      ("machine.dispatches", p.p_snap.dispatches);
      ("machine.translations", p.p_snap.translations);
      ("cache.bytes", p.p_bytes);
      ("machine.minor_words", sum (fun s -> s.sv_words) (ok p)) ]
  in
  let det, repeat_ok = agreed (List.map det passes) in
  let last = List.nth passes (List.length passes - 1) in
  let burst_walls = Array.of_list (List.map (fun p -> p.pr_wall) bursts) in
  let capacity = float_of_int n /. Stats.median burst_walls in
  let hi_lat = latencies high and lo_lat = latencies low in
  let outcomes pr = List.filter_map (fun s -> s.s_outcome) (Array.to_list pr.pr_samples) in
  let us f pr = ms (List.map (fun o -> float_of_int (f o) /. 1e6) (outcomes pr)) in
  let hi_service = us (fun o -> o.Serve.o_latency_us - o.Serve.o_wait_us) high in
  let wait = us (fun o -> o.Serve.o_wait_us) high in
  let warm = List.length (List.filter (fun o -> o.Serve.o_warm) (outcomes high)) in
  let gen_late = ms (List.map (fun s -> s.s_late) (Array.to_list high.pr_samples)) in
  (* The open-loop latencies swing with the host's drift and are reported,
     not gated (README.md). *)
  { metrics =
      [ ("wall_s", k *. wall);
        ("mips", mips /. k);
        ("sim_overhead_pct", overhead);
        ("p50_ms", k *. Stats.median cold);
        ("tail_ms", k *. Stats.quantile cold 0.9);
        ("p50_b_ms", k *. Stats.median hot);
        ("tail_b_ms", k *. Stats.quantile hot 0.9);
        ("max_rate_rps", float_of_int n /. wall /. k) ];
    report =
      [ ("wall_s", wall, "s", Array.length walls);
        ("mips", mips, "M inst/s", Array.length walls);
        ("sim_overhead_pct", overhead, "%", List.length t.programs);
        ("cold_request_p50_ms", Stats.median cold, "ms", Array.length cold);
        ("cold_request_p90_ms", Stats.quantile cold 0.9, "ms", Array.length cold);
        ("hot_request_p50_ms", Stats.median hot, "ms", Array.length hot);
        ("hot_request_p90_ms", Stats.quantile hot 0.9, "ms", Array.length hot);
        ("reference_kernel_ms", 1000.0 *. Refclock.median clock, "ms", n * List.length passes);
        ("serve_p50_ms", Stats.median hi_lat, "ms", Array.length hi_lat);
        ("serve_p95_ms", Stats.quantile hi_lat 0.95, "ms", Array.length hi_lat);
        ("serve_p50_ms_low", Stats.median lo_lat, "ms", Array.length lo_lat);
        ("serve_p95_ms_low", Stats.quantile lo_lat 0.95, "ms", Array.length lo_lat);
        ("max_rate_rps", max_rate, "req/s", List.length searched);
        ("pool_capacity_rps", capacity, "req/s", Array.length burst_walls) ];
    attempted;
    failed;
    passes = List.length passes;
    wall =
      Array.fold_left ( +. ) 0.0 walls +. List.fold_left (fun a p -> a +. p.pr_wall) 0.0 probes;
    det;
    repeat_ok;
    layers =
      machine_layer last.p_snap ~minor_words:(sum (fun s -> s.sv_words) (ok last))
        ~per:last.p_snap.retired
      @ cache_layer last.p_snap ~bytes:last.p_bytes
      @ [ ("sched.wait_p50_ms", Stats.median wait);
          ("sched.wait_p95_ms", Stats.quantile wait 0.95);
          ("sched.queue_peak", float_of_int high.pr_peak);
          ("serve.service_p50_ms", Stats.median hi_service);
          ("serve.service_p95_ms", Stats.quantile hi_service 0.95);
          ("serve.warm_frac", ratio warm n);
          ("serve.gen_late_p95_ms", Stats.quantile gen_late 0.95) ] }

(* Every distinct program is rewritten once per probe (each probe starts
   from an empty cache), for the disassembler probe. *)
let rewritten t = List.map (fun p -> p.bin) t.programs
