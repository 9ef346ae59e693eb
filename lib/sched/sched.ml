type core_class = Base | Extension

let core_class_name = function Base -> "base" | Extension -> "extension"

type step = Done of { cycles : int; accelerated : bool } | Migrate of { cycles : int }

type task = { t_id : int; t_prefer_ext : bool; t_run : core_class -> step }

type config = {
  base_cores : int;
  ext_cores : int;
  steal : bool;
  migrate_cost : int;
  steal_ext_tasks : bool;
}

let default_config =
  { base_cores = 4;
    ext_cores = 4;
    steal = true;
    migrate_cost = Costs.default.Costs.migrate;
    steal_ext_tasks = true }

type result = {
  latency : int;
  cpu_time : int;
  tasks_total : int;
  tasks_accelerated : int;
  migrations : int;
  per_core_busy : (core_class * int) array;
}

type item = { task : task; mutable forced_ext : bool }

type core = { id : int; cls : core_class; mutable clock : int; mutable busy : int }

(* FIFO queue with predicate-driven extraction. *)
module Q = struct
  type 'a t = { mutable front : 'a list; mutable back : 'a list }

  let create () = { front = []; back = [] }
  let push q x = q.back <- x :: q.back

  let normalize q =
    if q.front = [] then begin
      q.front <- List.rev q.back;
      q.back <- []
    end

  let is_empty q =
    normalize q;
    q.front = []

  let take_first q pred =
    normalize q;
    let rec split acc = function
      | [] -> None
      | x :: rest ->
          if pred x then begin
            q.front <- List.rev_append acc rest;
            Some x
          end
          else split (x :: acc) rest
    in
    match split [] q.front with
    | Some x -> Some x
    | None ->
        (* the element may be in [back] *)
        normalize q;
        if q.back = [] then None
        else begin
          q.front <- q.front @ List.rev q.back;
          q.back <- [];
          split [] q.front
        end

  let take q = take_first q (fun _ -> true)
end

let m_steals =
  Metrics.counter ~help:"Base-queue tasks stolen by extension cores"
    "chimera_sched_steals_total"

let m_migrates =
  Metrics.counter ~help:"Tasks migrated to extension cores mid-run"
    "chimera_sched_migrates_total"

let m_queue_depth =
  Metrics.gauge ~help:"Tasks currently queued (both classes)"
    "chimera_sched_queue_depth"

let run config tasks =
  let base_q : item Q.t = Q.create () and ext_q : item Q.t = Q.create () in
  List.iter
    (fun t ->
      let item = { task = t; forced_ext = false } in
      Metrics.gauge_add m_queue_depth 1;
      if t.t_prefer_ext then Q.push ext_q item else Q.push base_q item)
    tasks;
  let cores =
    Array.init
      (config.base_cores + config.ext_cores)
      (fun i ->
        { id = i;
          cls = (if i < config.base_cores then Base else Extension);
          clock = 0;
          busy = 0 })
  in
  let accelerated = ref 0 and migrations = ref 0 and completed = ref 0 in
  (* what work could the given core take right now? *)
  let stolen core it =
    Metrics.incr m_steals;
    if !Obs.enabled then
      Obs.emit
        (Obs.Sched_steal
           { core = core.id;
             cls = core_class_name core.cls;
             task = it.task.t_id });
    Some it
  in
  let take_for core =
    match core.cls with
    | Extension -> (
        match Q.take ext_q with
        | Some it -> Some it
        | None ->
            if config.steal then
              match Q.take base_q with
              | Some it -> stolen core it
              | None -> None
            else None)
    | Base -> (
        match Q.take base_q with
        | Some it -> Some it
        | None ->
            if config.steal && config.steal_ext_tasks then
              match Q.take_first ext_q (fun it -> not it.forced_ext) with
              | Some it -> stolen core it
              | None -> None
            else None)
  in
  let could_take core =
    match core.cls with
    | Extension -> (not (Q.is_empty ext_q)) || (config.steal && not (Q.is_empty base_q))
    | Base ->
        (not (Q.is_empty base_q))
        || config.steal && config.steal_ext_tasks
           &&
           (* at least one non-forced item in the extension queue *)
           (match Q.take_first ext_q (fun it -> not it.forced_ext) with
           | Some it ->
               (* put it back at the front *)
               ext_q.Q.front <- it :: ext_q.Q.front;
               true
           | None -> false)
  in
  let continue_ = ref true in
  while !continue_ do
    if Q.is_empty base_q && Q.is_empty ext_q then continue_ := false
    else begin
      (* earliest-clock core that can take something; on ties prefer a core
         whose own pool has work, so stealing happens only when needed *)
      let own_work c =
        match c.cls with
        | Base -> not (Q.is_empty base_q)
        | Extension -> not (Q.is_empty ext_q)
      in
      let better c c' =
        c.clock < c'.clock || (c.clock = c'.clock && own_work c && not (own_work c'))
      in
      let chosen = ref None in
      Array.iter
        (fun c ->
          if could_take c then
            match !chosen with
            | None -> chosen := Some c
            | Some c' -> if better c c' then chosen := Some c)
        cores;
      match !chosen with
      | None -> continue_ := false  (* only forced work remains but no ext core *)
      | Some core -> (
          match take_for core with
          | None -> continue_ := false
          | Some item -> (
              Metrics.gauge_add m_queue_depth (-1);
              match item.task.t_run core.cls with
              | Done { cycles; accelerated = acc } ->
                  core.clock <- core.clock + cycles;
                  core.busy <- core.busy + cycles;
                  incr completed;
                  if acc then incr accelerated
              | Migrate { cycles } ->
                  core.clock <- core.clock + cycles + config.migrate_cost;
                  core.busy <- core.busy + cycles + config.migrate_cost;
                  incr migrations;
                  Metrics.incr m_migrates;
                  Metrics.gauge_add m_queue_depth 1;
                  if !Obs.enabled then
                    Obs.emit
                      (Obs.Sched_migrate { task = item.task.t_id; cycles });
                  item.forced_ext <- true;
                  Q.push ext_q item))
    end
  done;
  let latency = Array.fold_left (fun acc c -> max acc c.clock) 0 cores in
  let cpu_time = Array.fold_left (fun acc c -> acc + c.busy) 0 cores in
  { latency;
    cpu_time;
    tasks_total = !completed;
    tasks_accelerated = !accelerated;
    migrations = !migrations;
    per_core_busy = Array.map (fun c -> (c.cls, c.busy)) cores }

let pp_result fmt r =
  Format.fprintf fmt
    "latency %d, cpu %d, tasks %d (%d accelerated), migrations %d" r.latency
    r.cpu_time r.tasks_total r.tasks_accelerated r.migrations

(* ------------------------------------------------------------------ *)
(* Domain pool                                                         *)
(* ------------------------------------------------------------------ *)

(* The executor twin of [run]: the same two-class/steal shape, but over
   real [Domain]s executing real work instead of simulated cycles. It
   shares the simulator's telemetry — [chimera_sched_queue_depth] moves
   +1 on submit and -1 on dequeue, cross-class pulls count into
   [chimera_sched_steals_total] — so the watchdog's queue-saturation rule
   reads one gauge regardless of which scheduler produced the load.

   Obs events are deliberately absent here: the ring sink is
   single-domain, and jobs complete on worker domains. Callers that want
   per-job events (lib/serve) emit them from the submitting domain. *)
module Pool = struct
  type job = { j_prefer_ext : bool; j_run : core_class -> unit }

  type t = {
    mu : Mutex.t;
    nonempty : Condition.t;  (* new job, or shutdown *)
    idle : Condition.t;  (* pending hit zero *)
    base_q : job Queue.t;
    ext_q : job Queue.t;
    steal : bool;
    base_workers : int;
    ext_workers : int;
    mutable queued : int;
    mutable peak : int;
    mutable pending : int;  (* queued + running *)
    mutable stop : bool;
    mutable workers : unit Domain.t list;
  }

  (* Own queue first; the other class's queue only when stealing is on.
     Unlike the simulator there is no [forced_ext]: pool jobs carry their
     whole configuration, so any worker class can run any job and the
     class is a placement preference, not a capability. *)
  let take_locked t cls =
    let own, other =
      match cls with
      | Base -> (t.base_q, t.ext_q)
      | Extension -> (t.ext_q, t.base_q)
    in
    match Queue.take_opt own with
    | Some j -> Some (j, false)
    | None -> (
        if not t.steal then None
        else
          match Queue.take_opt other with
          | Some j -> Some (j, true)
          | None -> None)

  let worker t cls =
    let running = ref true in
    while !running do
      Mutex.lock t.mu;
      let rec pick () =
        match take_locked t cls with
        | Some _ as r -> r
        | None ->
            if t.stop then None
            else begin
              Condition.wait t.nonempty t.mu;
              pick ()
            end
      in
      match pick () with
      | None ->
          Mutex.unlock t.mu;
          running := false
      | Some (j, stolen) ->
          t.queued <- t.queued - 1;
          Mutex.unlock t.mu;
          Metrics.gauge_add m_queue_depth (-1);
          if stolen then Metrics.incr m_steals;
          (* A raising job must not kill the worker or wedge [drain];
             callers that care about failures capture them in the closure
             (lib/serve folds them into the outcome). *)
          (try j.j_run cls with _ -> ());
          Mutex.lock t.mu;
          t.pending <- t.pending - 1;
          if t.pending = 0 then Condition.broadcast t.idle;
          Mutex.unlock t.mu
    done

  let create ?(steal = true) ~base ~ext () =
    if base < 0 || ext < 0 || base + ext = 0 then
      invalid_arg "Sched.Pool.create: need at least one worker";
    let t =
      {
        mu = Mutex.create ();
        nonempty = Condition.create ();
        idle = Condition.create ();
        base_q = Queue.create ();
        ext_q = Queue.create ();
        steal;
        base_workers = base;
        ext_workers = ext;
        queued = 0;
        peak = 0;
        pending = 0;
        stop = false;
        workers = [];
      }
    in
    let spawn cls = Domain.spawn (fun () -> worker t cls) in
    t.workers <-
      List.init base (fun _ -> spawn Base)
      @ List.init ext (fun _ -> spawn Extension);
    t

  let submit t ~prefer_ext f =
    Mutex.lock t.mu;
    if t.stop then begin
      Mutex.unlock t.mu;
      invalid_arg "Sched.Pool.submit: pool is shut down"
    end;
    let j = { j_prefer_ext = prefer_ext; j_run = f } in
    (* A class with no workers only drains through steals; route around it
       entirely when stealing is off so the job cannot strand. *)
    let q =
      if j.j_prefer_ext then if t.ext_workers > 0 || t.steal then t.ext_q else t.base_q
      else if t.base_workers > 0 || t.steal then t.base_q
      else t.ext_q
    in
    Queue.push j q;
    t.queued <- t.queued + 1;
    if t.queued > t.peak then t.peak <- t.queued;
    t.pending <- t.pending + 1;
    Condition.signal t.nonempty;
    Mutex.unlock t.mu;
    Metrics.gauge_add m_queue_depth 1

  let queue_depth t =
    Mutex.lock t.mu;
    let d = t.queued in
    Mutex.unlock t.mu;
    d

  let peak_depth t =
    Mutex.lock t.mu;
    let d = t.peak in
    Mutex.unlock t.mu;
    d

  let drain t =
    Mutex.lock t.mu;
    while t.pending > 0 do
      Condition.wait t.idle t.mu
    done;
    Mutex.unlock t.mu

  let shutdown t =
    Mutex.lock t.mu;
    if not t.stop then begin
      t.stop <- true;
      Condition.broadcast t.nonempty;
      Mutex.unlock t.mu;
      List.iter Domain.join t.workers;
      t.workers <- []
    end
    else Mutex.unlock t.mu
end
