(* Always-on metrics: per-domain shards merged by addition at snapshot
   time.

   The recording discipline is the one the repo already trusts twice over:
   hot paths write plain ints into storage only their own domain touches
   (like the per-machine counters flush_run_stats folds), and aggregation
   is per-key addition — commutative, associative, so deterministic and
   independent of merge order (like Counters.add). The difference from
   lib/obs is the concurrency story: there is no ring and no sink, so
   nothing forces -j 1; every domain gets its own shard lazily through
   domain-local storage and a snapshot sums whatever shards exist.

   A shard is created per domain per process — worker domains spawned by
   successive Par.map calls each get a fresh one — so the shard list grows
   with domain *spawns*, not metrics. Shards are a few hundred bytes plus
   one bucket array per histogram actually touched; the list is only
   walked at snapshot/reset time. *)

type mkind = Kcounter | Kgauge | Khist

let kind_name = function
  | Kcounter -> "counter"
  | Kgauge -> "gauge"
  | Khist -> "histogram"

type def = { d_name : string; d_help : string; d_kind : mkind; d_slot : int }

(* Registry and shard list share one mutex: both are touched only at
   module-init (registration), domain spawn (shard creation) and
   snapshot/reset time — never on the recording path. *)
let mu = Mutex.create ()

let locked f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let defs : def list ref = ref [] (* newest first *)
let n_scalars = ref 0 (* counters + gauges: one slot each *)
let n_hists = ref 0

type counter = int
type gauge = int
type histogram = int

let register kind ?(help = "") name =
  locked (fun () ->
      match List.find_opt (fun d -> d.d_name = name) !defs with
      | Some d ->
          if d.d_kind <> kind then
            invalid_arg
              (Printf.sprintf "Metrics: %s already registered as a %s" name
                 (kind_name d.d_kind));
          d.d_slot
      | None ->
          let slot =
            match kind with
            | Khist ->
                let s = !n_hists in
                incr n_hists;
                s
            | Kcounter | Kgauge ->
                let s = !n_scalars in
                incr n_scalars;
                s
          in
          defs := { d_name = name; d_help = help; d_kind = kind; d_slot = slot } :: !defs;
          slot)

let counter ?help name = register Kcounter ?help name
let gauge ?help name = register Kgauge ?help name
let histogram ?help name = register Khist ?help name

(* ------------------------------------------------------------------ *)
(* Bucket layout                                                       *)
(* ------------------------------------------------------------------ *)

module Buckets = struct
  (* Log-linear, HDR-style: exact buckets for [0, 16), then 16 linear
     sub-buckets per power of two. Relative width is <= 1/16 of the
     value, absolute width is 2^g for the g-th octave group. Covers the
     full non-negative int range (msb <= 61 on 64-bit OCaml). *)

  let sub_bits = 4
  let sub = 1 lsl sub_bits (* 16 *)
  let count = sub * 59 (* groups 0..57 plus the linear prefix *)

  let msb v =
    let v = ref v and r = ref 0 in
    if !v lsr 32 <> 0 then begin r := !r + 32; v := !v lsr 32 end;
    if !v lsr 16 <> 0 then begin r := !r + 16; v := !v lsr 16 end;
    if !v lsr 8 <> 0 then begin r := !r + 8; v := !v lsr 8 end;
    if !v lsr 4 <> 0 then begin r := !r + 4; v := !v lsr 4 end;
    if !v lsr 2 <> 0 then begin r := !r + 2; v := !v lsr 2 end;
    if !v lsr 1 <> 0 then incr r;
    !r

  let index v =
    if v < sub then if v < 0 then 0 else v
    else
      let g = msb v - sub_bits in
      (g * sub) + (v lsr g)

  let lo i =
    if i < sub then i
    else
      let g = (i lsr sub_bits) - 1 in
      (sub + (i land (sub - 1))) lsl g

  let hi i =
    if i < sub then i + 1
    else
      let g = (i lsr sub_bits) - 1 in
      let h = lo i + (1 lsl g) in
      (* the top bucket's bound is 2^62, one past max_int: clamp *)
      if h < 0 then max_int else h
end

(* ------------------------------------------------------------------ *)
(* Shards                                                              *)
(* ------------------------------------------------------------------ *)

(* Per-histogram storage is the bucket array plus two trailing cells for
   the sample count and sum (kept exactly, not reconstructed from
   buckets). *)
let hist_cells = Buckets.count + 2

type shard = {
  mutable s_scalars : int array; (* indexed by counter/gauge slot *)
  mutable s_hists : int array array; (* per histogram slot; [||] until touched *)
}

let shards : shard list ref = ref []

let new_shard () =
  let s =
    {
      s_scalars = Array.make (max 8 !n_scalars) 0;
      s_hists = Array.make (max 4 !n_hists) [||];
    }
  in
  locked (fun () -> shards := s :: !shards);
  s

let dls : shard Domain.DLS.key = Domain.DLS.new_key new_shard
let my () = Domain.DLS.get dls

(* Late registration (after a shard exists) is legal: shards grow on
   demand. The growth path runs at most once per metric per shard. *)
let scalars_for sh slot =
  let a = sh.s_scalars in
  if slot < Array.length a then a
  else begin
    let b = Array.make (max (slot + 1) (2 * Array.length a)) 0 in
    Array.blit a 0 b 0 (Array.length a);
    sh.s_scalars <- b;
    b
  end

let hist_for sh slot =
  if slot >= Array.length sh.s_hists then begin
    let b = Array.make (max (slot + 1) (2 * Array.length sh.s_hists)) [||] in
    Array.blit sh.s_hists 0 b 0 (Array.length sh.s_hists);
    sh.s_hists <- b
  end;
  let a = sh.s_hists.(slot) in
  if Array.length a <> 0 then a
  else begin
    let a = Array.make hist_cells 0 in
    sh.s_hists.(slot) <- a;
    a
  end

let add c n =
  if n < 0 then invalid_arg "Metrics.add: negative amount";
  if n <> 0 then begin
    let sh = my () in
    let a = scalars_for sh c in
    a.(c) <- a.(c) + n
  end

let incr c = add c 1

let gauge_add g n =
  if n <> 0 then begin
    let sh = my () in
    let a = scalars_for sh g in
    a.(g) <- a.(g) + n
  end

let observe h v =
  let sh = my () in
  let a = hist_for sh h in
  let v = if v < 0 then 0 else v in
  let i = Buckets.index v in
  a.(i) <- a.(i) + 1;
  a.(Buckets.count) <- a.(Buckets.count) + 1;
  a.(Buckets.count + 1) <- a.(Buckets.count + 1) + v

let reset () =
  locked (fun () ->
      List.iter
        (fun sh ->
          Array.fill sh.s_scalars 0 (Array.length sh.s_scalars) 0;
          Array.iter
            (fun a -> if Array.length a <> 0 then Array.fill a 0 (Array.length a) 0)
            sh.s_hists)
        !shards)

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

type verdict = {
  v_rule : string;
  v_ok : bool;
  v_value : float;
  v_detail : string;
}

module Snapshot = struct
  type hist = { h_count : int; h_sum : int; h_buckets : int array }

  (* Name-keyed, sorted: a snapshot is self-describing and comparable
     independently of registration order. [t_help] carries the HELP text
     into the Prometheus exposition. *)
  type t = {
    t_counters : (string * int) list;
    t_gauges : (string * int) list;
    t_hists : (string * hist) list;
    t_help : (string * string) list;
  }

  let empty = { t_counters = []; t_gauges = []; t_hists = []; t_help = [] }

  let take () =
    let defs, shs = locked (fun () -> (!defs, !shards)) in
    let scalar slot =
      List.fold_left
        (fun acc sh ->
          acc + if slot < Array.length sh.s_scalars then sh.s_scalars.(slot) else 0)
        0 shs
    in
    let hist slot =
      let b = Array.make hist_cells 0 in
      List.iter
        (fun sh ->
          if slot < Array.length sh.s_hists then begin
            let a = sh.s_hists.(slot) in
            if Array.length a <> 0 then
              for i = 0 to hist_cells - 1 do
                b.(i) <- b.(i) + a.(i)
              done
          end)
        shs;
      {
        h_count = b.(Buckets.count);
        h_sum = b.(Buckets.count + 1);
        h_buckets = Array.sub b 0 Buckets.count;
      }
    in
    let by_name (a, _) (b, _) = compare a b in
    let counters = ref [] and gauges = ref [] and hists = ref [] and help = ref [] in
    List.iter
      (fun d ->
        if d.d_help <> "" then help := (d.d_name, d.d_help) :: !help;
        match d.d_kind with
        | Kcounter -> counters := (d.d_name, scalar d.d_slot) :: !counters
        | Kgauge -> gauges := (d.d_name, scalar d.d_slot) :: !gauges
        | Khist -> hists := (d.d_name, hist d.d_slot) :: !hists)
      defs;
    {
      t_counters = List.sort by_name !counters;
      t_gauges = List.sort by_name !gauges;
      t_hists = List.sort by_name !hists;
      t_help = !help;
    }

  let counter_value t name =
    match List.assoc_opt name t.t_counters with Some v -> v | None -> 0

  let gauge_value t name =
    match List.assoc_opt name t.t_gauges with Some v -> v | None -> 0

  let histogram_value t name = List.assoc_opt name t.t_hists

  let delta ~cur ~prev =
    let sub_scalars cur prev =
      List.map
        (fun (name, v) ->
          (name, v - (match List.assoc_opt name prev with Some p -> p | None -> 0)))
        cur
    in
    let sub_hists cur prev =
      List.map
        (fun (name, h) ->
          match List.assoc_opt name prev with
          | None -> (name, h)
          | Some p ->
              ( name,
                {
                  h_count = h.h_count - p.h_count;
                  h_sum = h.h_sum - p.h_sum;
                  h_buckets = Array.mapi (fun i v -> v - p.h_buckets.(i)) h.h_buckets;
                } ))
        cur
    in
    {
      t_counters = sub_scalars cur.t_counters prev.t_counters;
      t_gauges = sub_scalars cur.t_gauges prev.t_gauges;
      t_hists = sub_hists cur.t_hists prev.t_hists;
      t_help = cur.t_help;
    }

  let buckets h =
    let acc = ref [] in
    for i = Buckets.count - 1 downto 0 do
      if h.h_buckets.(i) <> 0 then
        acc := (Buckets.lo i, Buckets.hi i, h.h_buckets.(i)) :: !acc
    done;
    !acc

  let quantile h q =
    if h.h_count = 0 then 0.
    else begin
      let rank =
        let r = int_of_float (ceil (q *. float_of_int h.h_count)) in
        if r < 1 then 1 else if r > h.h_count then h.h_count else r
      in
      let est = ref 0. and seen = ref 0 and i = ref 0 and stop = ref false in
      while not !stop && !i < Buckets.count do
        seen := !seen + h.h_buckets.(!i);
        if !seen >= rank then begin
          est := (float_of_int (Buckets.lo !i) +. float_of_int (Buckets.hi !i)) /. 2.;
          stop := true
        end;
        i := !i + 1
      done;
      !est
    end

  (* --- Prometheus text exposition ------------------------------------ *)

  let esc_label s =
    let b = Buffer.create (String.length s) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  let to_prometheus ?health t =
    let b = Buffer.create 4096 in
    let preamble name typ =
      (match List.assoc_opt name t.t_help with
      | Some h -> Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" name h)
      | None -> ());
      Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name typ)
    in
    List.iter
      (fun (name, v) ->
        preamble name "counter";
        Buffer.add_string b (Printf.sprintf "%s %d\n" name v))
      t.t_counters;
    List.iter
      (fun (name, v) ->
        preamble name "gauge";
        Buffer.add_string b (Printf.sprintf "%s %d\n" name v))
      t.t_gauges;
    List.iter
      (fun (name, h) ->
        preamble name "histogram";
        let cum = ref 0 in
        List.iter
          (fun (_, hi, n) ->
            cum := !cum + n;
            Buffer.add_string b
              (Printf.sprintf "%s_bucket{le=\"%d\"} %d\n" name hi !cum))
          (buckets h);
        Buffer.add_string b
          (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" name h.h_count);
        Buffer.add_string b (Printf.sprintf "%s_sum %d\n" name h.h_sum);
        Buffer.add_string b (Printf.sprintf "%s_count %d\n" name h.h_count))
      t.t_hists;
    (match health with
    | None -> ()
    | Some verdicts ->
        Buffer.add_string b "# TYPE chimera_health gauge\n";
        List.iter
          (fun v ->
            Buffer.add_string b
              (Printf.sprintf "chimera_health{rule=\"%s\"} %d\n"
                 (esc_label v.v_rule)
                 (if v.v_ok then 1 else 0)))
          verdicts;
        Buffer.add_string b "# TYPE chimera_healthy gauge\n";
        Buffer.add_string b
          (Printf.sprintf "chimera_healthy %d\n"
             (if List.for_all (fun v -> v.v_ok) verdicts then 1 else 0)));
    Buffer.contents b

  (* --- JSON ----------------------------------------------------------- *)

  let esc_json s =
    let b = Buffer.create (String.length s) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\t' -> Buffer.add_string b "\\t"
        | '\r' -> Buffer.add_string b "\\r"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  let to_json ?health t =
    let b = Buffer.create 4096 in
    let scalar_map kvs =
      String.concat ","
        (List.map (fun (name, v) -> Printf.sprintf "\"%s\": %d" name v) kvs)
    in
    Buffer.add_string b "{\n  \"counters\": {";
    Buffer.add_string b (scalar_map t.t_counters);
    Buffer.add_string b "},\n  \"gauges\": {";
    Buffer.add_string b (scalar_map t.t_gauges);
    Buffer.add_string b "},\n  \"histograms\": {";
    Buffer.add_string b
      (String.concat ","
         (List.map
            (fun (name, h) ->
              Printf.sprintf
                "\"%s\": {\"count\": %d, \"sum\": %d, \"p50\": %g, \"p90\": \
                 %g, \"p99\": %g, \"p999\": %g, \"buckets\": [%s]}"
                name h.h_count h.h_sum (quantile h 0.5) (quantile h 0.9)
                (quantile h 0.99) (quantile h 0.999)
                (String.concat ","
                   (List.map
                      (fun (lo, hi, n) -> Printf.sprintf "[%d,%d,%d]" lo hi n)
                      (buckets h))))
            t.t_hists));
    Buffer.add_string b "}";
    (match health with
    | None -> ()
    | Some verdicts ->
        Buffer.add_string b ",\n  \"health\": [";
        Buffer.add_string b
          (String.concat ","
             (List.map
                (fun v ->
                  Printf.sprintf
                    "{\"rule\": \"%s\", \"ok\": %b, \"value\": %g, \
                     \"detail\": \"%s\"}"
                    (esc_json v.v_rule) v.v_ok v.v_value (esc_json v.v_detail))
                verdicts));
        Buffer.add_string b "]");
    Buffer.add_string b "\n}\n";
    Buffer.contents b
end

(* ------------------------------------------------------------------ *)
(* Watchdog                                                            *)
(* ------------------------------------------------------------------ *)

module Watchdog = struct
  type source = Counter of string | Gauge of string | Sum of string list

  type predicate =
    | Rate_below of { num : source; den : source; min_den : int; floor : float }
    | Rate_above of { num : source; den : source; min_den : int; ceil : float }
    | Stalled of { counter : string; while_counter : string; min_active : int }
    | Burst of { counter : string; max : int }

  type rule = { r_name : string; r_what : string; r_check : predicate }

  (* Thresholds are deliberately loose — the watchdog flags pathologies
     (a stalled dispatcher, a TLB whose hit rate halved), not ordinary
     variance; the regression gate owns fine-grained drift. Each rule is
     inactive below its activity floor so idle or tiny windows never
     alarm. *)
  let default_rules =
    [
      {
        r_name = "dispatch_stall";
        r_what = "block engine stopped dispatching while instructions retire";
        r_check =
          Stalled
            {
              counter = "chimera_dispatches_total";
              while_counter = "chimera_retired_total";
              min_active = 1_000_000;
            };
      };
      {
        r_name = "side_exit_regression";
        r_what = "taken side exits per superblock dispatch";
        r_check =
          Rate_above
            {
              num = Counter "chimera_side_exits_total";
              den = Counter "chimera_dispatches_total";
              min_den = 10_000;
              ceil = 0.5;
            };
      };
      {
        r_name = "cache_reject_burst";
        r_what = "persistent-cache lookups failing in one window";
        r_check = Burst { counter = "chimera_cache_rejects_total"; max = 256 };
      };
      {
        r_name = "queue_saturation";
        r_what = "scheduler queue growth per admitted serve request";
        r_check =
          Rate_above
            {
              (* Gauge delta over the window: positive when the run ends
                 with more queued work than it started with. A server that
                 drains before snapshotting reads 0 regardless of transient
                 depth, so only a persistently growing backlog alarms. The
                 floor keeps runs that never serve (every bench experiment
                 but serve) inactive. *)
              num = Gauge "chimera_sched_queue_depth";
              den = Counter "chimera_serve_admitted_total";
              min_den = 64;
              ceil = 0.5;
            };
      };
      {
        r_name = "tlb_collapse";
        r_what = "software-TLB hit rate";
        r_check =
          Rate_below
            {
              num = Counter "chimera_tlb_hits_total";
              den =
                Sum [ "chimera_tlb_hits_total"; "chimera_tlb_misses_total" ];
              min_den = 100_000;
              floor = 0.5;
            };
      };
    ]

  let source_value snap = function
    | Counter n -> Snapshot.counter_value snap n
    | Gauge n -> Snapshot.gauge_value snap n
    | Sum ns ->
        List.fold_left (fun acc n -> acc + Snapshot.counter_value snap n) 0 ns

  let evaluate ?(rules = default_rules) ~prev ~cur () =
    let d = Snapshot.delta ~cur ~prev in
    List.map
      (fun r ->
        let ok, value, detail =
          match r.r_check with
          | Rate_below { num; den; min_den; floor } ->
              let dv = source_value d den in
              if dv < min_den then
                (true, 0., Printf.sprintf "inactive (%d < %d samples)" dv min_den)
              else
                let rate = float_of_int (source_value d num) /. float_of_int dv in
                ( rate >= floor,
                  rate,
                  Printf.sprintf "%.4f over %d samples (floor %.4f)" rate dv floor )
          | Rate_above { num; den; min_den; ceil } ->
              let dv = source_value d den in
              if dv < min_den then
                (true, 0., Printf.sprintf "inactive (%d < %d samples)" dv min_den)
              else
                let rate = float_of_int (source_value d num) /. float_of_int dv in
                ( rate <= ceil,
                  rate,
                  Printf.sprintf "%.4f over %d samples (ceiling %.4f)" rate dv ceil )
          | Stalled { counter; while_counter; min_active } ->
              let active = Snapshot.counter_value d while_counter in
              let moved = Snapshot.counter_value d counter in
              if active < min_active then
                ( true,
                  float_of_int moved,
                  Printf.sprintf "inactive (%s advanced %d < %d)" while_counter
                    active min_active )
              else
                ( moved > 0,
                  float_of_int moved,
                  Printf.sprintf "%s advanced %d while %s advanced %d" counter
                    moved while_counter active )
          | Burst { counter; max } ->
              let v = Snapshot.counter_value d counter in
              ( v <= max,
                float_of_int v,
                Printf.sprintf "%s advanced %d (burst ceiling %d)" counter v max )
        in
        if !Obs.enabled then
          Obs.emit
            (if ok then Obs.Health_ok { rule = r.r_name }
             else Obs.Health_degraded { rule = r.r_name; reason = detail });
        { v_rule = r.r_name; v_ok = ok; v_value = value; v_detail = detail })
      rules

  let healthy verdicts = List.for_all (fun v -> v.v_ok) verdicts
end
