(** Workload runners: execute the paper's microbenchmark loop (§5) against
    a data structure, either on the simulated multicore (figures) or on
    real domains (stress testing).

    Methodology reproduced from the paper:
    - every iteration picks a key uniformly (or zipf, a = 0.9, largest
      keys most popular) from a range {e twice} the initial size;
    - insert and delete percentages are equal, so the size stays near the
      initial size and roughly half the updates fail;
    - the {e effective} update rate (updates that modified the structure)
      is what gets reported;
    - all threads use the same backoff policy (inside the structures) and
      wait a short moment between iterations;
    - per-thread latency buffers of 16K samples, summarized as boxplot
      percentiles. *)

type dist = Uniform | Zipf of float

type set_workload = {
  init_size : int;
  range : int;
  update_pct : int;  (** attempted updates, percent: split evenly ins/del *)
  dist : dist;
  capacity : int option;  (** map slots / hash-table buckets *)
}

let uniform_workload ?capacity ~init_size ~update_pct () =
  { init_size; range = 2 * init_size; update_pct; dist = Uniform; capacity }

let skewed_workload ?capacity ~init_size ~update_pct () =
  { init_size; range = 2 * init_size; update_pct; dist = Zipf 0.9; capacity }

(* Latency classes, as in Figure 7. *)
let n_classes = 6

let class_names =
  [| "srch-suc"; "srch-fal"; "insr-suc"; "insr-fal"; "delt-suc"; "delt-fal" |]

(** How the measured run ended. [Aborted] carries the scheduler's stall
    report — verdict, per-thread progress, dead lock holders, partial
    stats — so fault-injection and watchdog experiments get structured
    results instead of escaped exceptions. *)
type outcome = Complete | Aborted of Sim.Sched.report

type measurement = {
  name : string;
  topo_name : string;  (** topology the run simulated, or ["native"] *)
  seed : int;
  threads : int;
  mops : float;
  ops : int;
  wall_s : float;
  eff_update_pct : float;
  reads : int;
  writes : int;
  cas : int;
  cas_failed : int;
  faa : int;
  events : int;  (** scheduler (slow-path) events; 0 for native runs *)
  host_s : float;
      (** host wall-clock seconds the measured window took to simulate
          (or, for native runs, to execute — there it equals [wall_s]);
          simulated-ops/host-second is [ops /. host_s] *)
  lat : Pstats.summary array;  (** indexed like {!lat_classes} *)
  lat_classes : string array;
      (** names of the latency classes [lat] is indexed by *)
  counters : (string * int) list;
  final_size : int;
  valid : bool;
  outcome : outcome;
  obs : Obs.Profile.summary option;
      (** present when the run was made with [~record_obs:true]:
          the journal summary, for trace export and hot-line reports *)
}

let aborted m = match m.outcome with Aborted _ -> true | Complete -> false

let sampler w seed =
  match w.dist with
  | Uniform ->
      fun rng -> 1 + Rng.below rng w.range
  | Zipf a ->
      let z = Zipf.create ~range:w.range ~alpha:a in
      ignore seed;
      fun rng -> Zipf.sample z rng

(* Fill the structure to [init_size] distinct keys, drawing from the
   workload distribution (so skewed runs start with the popular keys
   present). Runs outside any simulation: zero simulated cost. *)
let prefill (type a) (module S : Registry.SET_OPS with type t = a) (t : a) w
    ~seed =
  let rng = Rng.create (seed + 7919) in
  let sample = sampler w seed in
  let n = ref 0 in
  let attempts = ref 0 in
  while !n < w.init_size && !attempts < w.init_size * 1000 do
    incr attempts;
    let k = sample rng in
    if S.insert t k k then incr n
  done;
  if !n < w.init_size then
    failwith
      (Printf.sprintf "prefill: only %d/%d keys inserted (capacity?)" !n
         w.init_size)

(* One benchmark iteration; returns the latency class. *)
let one_op (type a) (module S : Registry.SET_OPS with type t = a) (t : a) rng
    sample upd_half upd_total =
  let key = sample rng in
  let p = Rng.below rng 100 in
  if p < upd_half then if S.insert t key key then 2 else 3
  else if p < upd_total then
    match S.delete t key with Some _ -> 4 | None -> 5
  else
    match S.search t key with Some _ -> 0 | None -> 1

(* --------------------------------------------------------------- *)
(* Simulator runner                                                 *)

let collect_sim_counters () = Sim.Sim_rt.Probe.dump ()

(* Per-operation latency in cycles, as a probe histogram: shows up in
   --trace exports as samples and in counter dumps via [buckets]. *)
let op_cycles = Sim.Sim_rt.Probe.histogram "runner.op-cycles"

(* When [Timeout] predates the structured reports (or the abort happened
   before a report was built), synthesize an empty one so [Aborted] always
   carries something printable. *)
let synthetic_report reason : Sim.Sched.report =
  {
    Sim.Sched.r_verdict = Sim.Sched.Progress;
    r_reason = reason;
    r_stats =
      {
        Sim.Sched.wall_cycles = 0;
        ops = 0;
        reads = 0;
        writes = 0;
        cas = 0;
        cas_failed = 0;
        faa = 0;
        events = 0;
      };
    r_threads = [];
    r_dead_holders = [];
    r_waiters = [];
    r_hot_lines = [];
  }

(* Run a simulation to a structured ([stats], [outcome]) pair: watchdog
   verdicts and budget exhaustion become [Aborted] with partial stats,
   never an escaped exception. [faults] installs a fault plan for the
   duration of the run. *)
let run_sim_guarded ?faults ?watchdog ?max_events ?quantum ?read_slack
    ?max_inline_ops ~topology ~nthreads ~ops_target body :
    Sim.Sched.stats * outcome =
  let go () =
    Sim.Sched.run ?watchdog ?max_events ?quantum ?read_slack ?max_inline_ops
      ~topology ~nthreads ~ops_target body
  in
  let go =
    match faults with
    | None -> go
    | Some plan -> fun () -> Sim.Fault.with_plan plan go
  in
  match go () with
  | st -> (st, Complete)
  | exception Sim.Sched.Stalled r -> (r.Sim.Sched.r_stats, Aborted r)
  | exception Sim.Sched.Timeout msg ->
      let r =
        match Sim.Sched.last_abort_report () with
        | Some r -> r
        | None -> synthetic_report msg
      in
      (r.Sim.Sched.r_stats, Aborted r)

let run_guarded = run_sim_guarded

(* Wrap a guarded run in an observability recording when requested; the
   journal summary rides back alongside the stats. [run_sim_guarded]
   never raises, but stop the recorder on escape anyway so a crashed
   harness doesn't leave it armed for the next run. *)
let with_obs record_obs go =
  if not record_obs then
    let stats, outcome = go () in
    (stats, outcome, None)
  else (
    Obs.Journal.start ();
    match go () with
    | stats, outcome ->
        let r = Obs.Journal.stop () in
        (stats, outcome, Some (Obs.Profile.summarize r))
    | exception e ->
        ignore (Obs.Journal.stop ());
        raise e)

let run_set_sim ~topology ~nthreads ~ops ?(seed = 42) ?faults ?watchdog
    ?max_events ?(record_obs = false) (module S : Registry.SET_OPS)
    (w : set_workload) : measurement =
  (* An ops target of 0 runs until the watchdog's verdict, which only a
     fault plan can provoke: without one the run would never end. *)
  let reject what =
    invalid_arg ("Runner.run_set_sim: " ^ what ^ " must be positive")
  in
  if nthreads < 1 then reject "threads";
  if ops < 0 || (ops = 0 && faults = None) then reject "ops";
  if w.init_size < 1 then reject "size";
  let t =
    match w.capacity with
    | Some capacity -> S.create ~capacity ()
    | None -> S.create ()
  in
  prefill (module S) t w ~seed;
  (* reset after prefill so counters reflect only the measured window *)
  Sim.Sim_rt.Probe.reset_all ();
  let upd_half = w.update_pct / 2 in
  let upd_total = w.update_pct in
  let sample = sampler w seed in
  let lat = Array.init nthreads (fun _ -> Array.init n_classes (fun _ -> Pstats.create ())) in
  let effective = Array.make nthreads 0 in
  let myops = Array.make nthreads 0 in
  let host0 = Unix.gettimeofday () in
  let stats, outcome, obs =
    with_obs record_obs (fun () ->
        run_sim_guarded ?faults ?watchdog ?max_events ~topology ~nthreads
          ~ops_target:ops (fun tid ->
            let rng = Rng.create ((seed * 65_599) + tid) in
            while not (Sim.Sched.stop_requested ()) do
              let t0 = Sim.Sched.now () in
              let cls = one_op (module S) t rng sample upd_half upd_total in
              let t1 = Sim.Sched.now () in
              Pstats.record lat.(tid).(cls) (t1 - t0);
              Sim.Sim_rt.Probe.observe op_cycles (t1 - t0);
              if cls = 2 || cls = 4 then effective.(tid) <- effective.(tid) + 1;
              myops.(tid) <- myops.(tid) + 1;
              Sim.Sched.tick ();
              (* Short wait between iterations (avoids long runs, §5). *)
              Sim.Sched.work (64 + Rng.below rng 64)
            done))
  in
  let host_s = Float.max 1e-9 (Unix.gettimeofday () -. host0) in
  let total_ops = Array.fold_left ( + ) 0 myops in
  let total_eff = Array.fold_left ( + ) 0 effective in
  let wall_s =
    float_of_int stats.wall_cycles /. (topology.Sim.Topology.ghz *. 1e9)
  in
  {
    name = S.name;
    topo_name = topology.Sim.Topology.name;
    seed;
    threads = nthreads;
    mops = Sim.Sched.mops topology stats;
    ops = total_ops;
    wall_s;
    eff_update_pct =
      (if total_ops = 0 then 0.
       else 100. *. float_of_int total_eff /. float_of_int total_ops);
    reads = stats.reads;
    writes = stats.writes;
    cas = stats.cas;
    cas_failed = stats.cas_failed;
    faa = stats.faa;
    events = stats.events;
    host_s;
    lat =
      Array.init n_classes (fun c ->
          Pstats.summarize (Array.to_list (Array.map (fun l -> l.(c)) lat)));
    lat_classes = class_names;
    counters = collect_sim_counters ();
    final_size = S.size t;
    valid = S.validate t;
    outcome;
    obs;
  }

(* Queue workloads (Figure 12): enqueue percentage picks between
   decreasing (40), stable (50) and increasing (60) size. *)

let queue_init_size = 65_536

type queue_measurement = measurement
(* classes: 0 = enqueue, 1 = dequeue-nonempty, 2 = dequeue-empty *)

let queue_class_names = [| "enqueue"; "dequeue-suc"; "dequeue-fal" |]

let run_queue_sim ~topology ~nthreads ~ops ?(seed = 42) ?(init = queue_init_size)
    ?faults ?watchdog ?max_events ?(record_obs = false) ~enqueue_pct
    (module Qu : Registry.QUEUE_OPS) : queue_measurement =
  let q = Qu.create () in
  let rng0 = Rng.create (seed + 13) in
  for _ = 1 to init do
    Qu.enqueue q (Rng.below rng0 1_000_000)
  done;
  Sim.Sim_rt.Probe.reset_all ();
  let lat = Array.init nthreads (fun _ -> Array.init 3 (fun _ -> Pstats.create ())) in
  let myops = Array.make nthreads 0 in
  let host0 = Unix.gettimeofday () in
  let stats, outcome, obs =
    with_obs record_obs (fun () ->
        run_sim_guarded ?faults ?watchdog ?max_events ~topology ~nthreads
          ~ops_target:ops (fun tid ->
            let rng = Rng.create ((seed * 65_599) + tid) in
            while not (Sim.Sched.stop_requested ()) do
              let t0 = Sim.Sched.now () in
              let cls =
                if Rng.below rng 100 < enqueue_pct then (
                  Qu.enqueue q (Rng.below rng 1_000_000);
                  0)
                else match Qu.dequeue q with Some _ -> 1 | None -> 2
              in
              let t1 = Sim.Sched.now () in
              Pstats.record lat.(tid).(cls) (t1 - t0);
              Sim.Sim_rt.Probe.observe op_cycles (t1 - t0);
              myops.(tid) <- myops.(tid) + 1;
              Sim.Sched.tick ();
              Sim.Sched.work (64 + Rng.below rng 64)
            done))
  in
  let host_s = Float.max 1e-9 (Unix.gettimeofday () -. host0) in
  let total_ops = Array.fold_left ( + ) 0 myops in
  {
    name = Qu.name;
    topo_name = topology.Sim.Topology.name;
    seed;
    threads = nthreads;
    mops = Sim.Sched.mops topology stats;
    ops = total_ops;
    wall_s =
      float_of_int stats.wall_cycles /. (topology.Sim.Topology.ghz *. 1e9);
    eff_update_pct = 100.;
    reads = stats.reads;
    writes = stats.writes;
    cas = stats.cas;
    cas_failed = stats.cas_failed;
    faa = stats.faa;
    events = stats.events;
    host_s;
    lat =
      Array.init 3 (fun c ->
          Pstats.summarize (Array.to_list (Array.map (fun l -> l.(c)) lat)));
    lat_classes = queue_class_names;
    counters = collect_sim_counters ();
    final_size = Qu.size q;
    valid = true;
    outcome;
    obs;
  }

(* Stack workloads (§5.5): push percentage plays the role enqueue_pct
   plays for queues. Latency classes: 0 = push, 1 = pop-nonempty,
   2 = pop-empty. *)
let run_stack_sim ~topology ~nthreads ~ops ?(seed = 42) ?(init = 4096)
    ?faults ?watchdog ?max_events ?(record_obs = false) ~push_pct
    (module St : Registry.STACK_OPS) : measurement =
  let st = St.create () in
  let rng0 = Rng.create (seed + 13) in
  for _ = 1 to init do
    St.push st (Rng.below rng0 1_000_000)
  done;
  Sim.Sim_rt.Probe.reset_all ();
  let lat = Array.init nthreads (fun _ -> Array.init 3 (fun _ -> Pstats.create ())) in
  let myops = Array.make nthreads 0 in
  let host0 = Unix.gettimeofday () in
  let stats, outcome, obs =
    with_obs record_obs (fun () ->
        run_sim_guarded ?faults ?watchdog ?max_events ~topology ~nthreads
          ~ops_target:ops (fun tid ->
            let rng = Rng.create ((seed * 65_599) + tid) in
            while not (Sim.Sched.stop_requested ()) do
              let t0 = Sim.Sched.now () in
              let cls =
                if Rng.below rng 100 < push_pct then (
                  St.push st (Rng.below rng 1_000_000);
                  0)
                else match St.pop st with Some _ -> 1 | None -> 2
              in
              let t1 = Sim.Sched.now () in
              Pstats.record lat.(tid).(cls) (t1 - t0);
              Sim.Sim_rt.Probe.observe op_cycles (t1 - t0);
              myops.(tid) <- myops.(tid) + 1;
              Sim.Sched.tick ();
              Sim.Sched.work (64 + Rng.below rng 64)
            done))
  in
  let host_s = Float.max 1e-9 (Unix.gettimeofday () -. host0) in
  let total_ops = Array.fold_left ( + ) 0 myops in
  {
    name = St.name;
    topo_name = topology.Sim.Topology.name;
    seed;
    threads = nthreads;
    mops = Sim.Sched.mops topology stats;
    ops = total_ops;
    wall_s =
      float_of_int stats.wall_cycles /. (topology.Sim.Topology.ghz *. 1e9);
    eff_update_pct = 100.;
    reads = stats.reads;
    writes = stats.writes;
    cas = stats.cas;
    cas_failed = stats.cas_failed;
    faa = stats.faa;
    events = stats.events;
    host_s;
    lat =
      Array.init 3 (fun c ->
          Pstats.summarize (Array.to_list (Array.map (fun l -> l.(c)) lat)));
    lat_classes = queue_class_names;
    counters = collect_sim_counters ();
    final_size = St.size st;
    valid = true;
    outcome;
    obs;
  }

(* --------------------------------------------------------------- *)
(* Native runner (real domains)                                     *)

(* A sense-reversing barrier so all domains enter the measured section
   together. *)
let barrier n =
  let count = Atomic.make n in
  let sense = Atomic.make 0 in
  fun () ->
    let s = Atomic.get sense in
    if Atomic.fetch_and_add count (-1) = 1 then (
      Atomic.set count n;
      Atomic.incr sense)
    else
      while Atomic.get sense = s do
        Domain.cpu_relax ()
      done

let run_set_native ~nthreads ~ops_per_thread ?(seed = 42)
    (module S : Registry.SET_OPS) (w : set_workload) : measurement =
  let t =
    match w.capacity with
    | Some capacity -> S.create ~capacity ()
    | None -> S.create ()
  in
  prefill (module S) t w ~seed;
  let upd_half = w.update_pct / 2 in
  let upd_total = w.update_pct in
  let sample = sampler w seed in
  let effective = Array.make nthreads 0 in
  Rt.Native_rt.set_nthreads nthreads;
  let bar = barrier nthreads in
  let t_start = ref 0. in
  let t_stop = ref 0. in
  let body tid () =
    Rt.Native_rt.set_tid tid;
    let rng = Rng.create ((seed * 65_599) + tid) in
    bar ();
    if tid = 0 then t_start := Unix.gettimeofday ();
    for _ = 1 to ops_per_thread do
      let cls = one_op (module S) t rng sample upd_half upd_total in
      if cls = 2 || cls = 4 then effective.(tid) <- effective.(tid) + 1
    done;
    bar ();
    if tid = 0 then t_stop := Unix.gettimeofday ()
  in
  let domains =
    List.init (nthreads - 1) (fun i -> Domain.spawn (body (i + 1)))
  in
  body 0 ();
  List.iter Domain.join domains;
  Rt.Native_rt.set_nthreads 1;
  let total_ops = nthreads * ops_per_thread in
  let wall_s = Float.max 1e-9 (!t_stop -. !t_start) in
  {
    name = S.name;
    topo_name = "native";
    seed;
    threads = nthreads;
    mops = float_of_int total_ops /. wall_s /. 1e6;
    ops = total_ops;
    wall_s;
    eff_update_pct =
      100.
      *. float_of_int (Array.fold_left ( + ) 0 effective)
      /. float_of_int total_ops;
    reads = 0;
    writes = 0;
    cas = 0;
    cas_failed = 0;
    faa = 0;
    events = 0;
    host_s = wall_s;
    lat = Array.make n_classes Pstats.empty_summary;
    lat_classes = class_names;
    counters = [];
    final_size = S.size t;
    valid = S.validate t;
    outcome = Complete;
    obs = None;
  }

let run_queue_native ~nthreads ~ops_per_thread ?(seed = 42) ?(init = 4096)
    ~enqueue_pct (module Qu : Registry.QUEUE_OPS) : measurement =
  let q = Qu.create () in
  let rng0 = Rng.create (seed + 13) in
  for _ = 1 to init do
    Qu.enqueue q (Rng.below rng0 1_000_000)
  done;
  Rt.Native_rt.set_nthreads nthreads;
  let bar = barrier nthreads in
  let t_start = ref 0. in
  let t_stop = ref 0. in
  let body tid () =
    Rt.Native_rt.set_tid tid;
    let rng = Rng.create ((seed * 65_599) + tid) in
    bar ();
    if tid = 0 then t_start := Unix.gettimeofday ();
    for _ = 1 to ops_per_thread do
      if Rng.below rng 100 < enqueue_pct then
        Qu.enqueue q (Rng.below rng 1_000_000)
      else ignore (Qu.dequeue q : int option)
    done;
    bar ();
    if tid = 0 then t_stop := Unix.gettimeofday ()
  in
  let domains =
    List.init (nthreads - 1) (fun i -> Domain.spawn (body (i + 1)))
  in
  body 0 ();
  List.iter Domain.join domains;
  Rt.Native_rt.set_nthreads 1;
  let total_ops = nthreads * ops_per_thread in
  let wall_s = Float.max 1e-9 (!t_stop -. !t_start) in
  {
    name = Qu.name;
    topo_name = "native";
    seed;
    threads = nthreads;
    mops = float_of_int total_ops /. wall_s /. 1e6;
    ops = total_ops;
    wall_s;
    eff_update_pct = 100.;
    reads = 0;
    writes = 0;
    cas = 0;
    cas_failed = 0;
    faa = 0;
    events = 0;
    host_s = wall_s;
    lat = Array.make n_classes Pstats.empty_summary;
    lat_classes = queue_class_names;
    counters = [];
    final_size = Qu.size q;
    valid = true;
    outcome = Complete;
    obs = None;
  }
