(** Workload runners: execute the paper's microbenchmark loop (§5) against
    a data structure on the simulated multicore (the figures).

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
let class_names =
  [| "srch-suc"; "srch-fal"; "insr-suc"; "insr-fal"; "delt-suc"; "delt-fal" |]

(* Queues and stacks: enqueue (push), dequeue (pop) non-empty and empty. *)
let queue_class_names = [| "enqueue"; "dequeue-suc"; "dequeue-fal" |]

(** How the measured run ended. [Aborted] carries the scheduler's stall
    report — verdict, per-thread progress, dead lock holders, partial
    stats — so fault-injection and watchdog experiments get structured
    results instead of escaped exceptions. *)
type outcome = Complete | Aborted of Sim.Sched.report

type measurement = {
  name : string;
  topo_name : string;  (** topology the run simulated *)
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
  events : int;  (** scheduler (slow-path) events *)
  host_s : float;
      (** host wall-clock seconds the measured window took to simulate;
          simulated-ops/host-second is [ops /. host_s] *)
  lat : Pstats.summary array;  (** indexed like {!lat_classes} *)
  lat_classes : string array;
      (** names of the latency classes [lat] is indexed by *)
  counters : (string * int) list;
  final_size : int;
  valid : bool;
  outcome : outcome;
  fired : Sim.Fault.event list;  (** the plan's injections that fired *)
  obs : Obs.Profile.summary option;
      (** present when the run was made with [~record_obs:true]:
          the journal summary, for trace export and hot-line reports *)
}

let aborted m = match m.outcome with Aborted _ -> true | Complete -> false

(* --------------------------------------------------------------- *)
(* The paper's loop                                                 *)

(** A workload bound to a built and filled structure: the loop calls
    [op] once per iteration, which draws from the thread's rng, performs
    one operation and returns its latency class. [effective] says which
    classes modified the structure; [None] counts every op. *)
type instance = {
  i_name : string;
  classes : string array;
  op : Rng.t -> int;
  effective : (int -> bool) option;
  size : unit -> int;
  valid : unit -> bool;
}

let sampler w =
  match w.dist with
  | Uniform -> fun rng -> 1 + Rng.below rng w.range
  | Zipf a ->
      let z = Zipf.create ~range:w.range ~alpha:a in
      fun rng -> Zipf.sample z rng

(* Fill the structure to [init_size] distinct keys, drawing from the
   workload distribution (so skewed runs start with the popular keys
   present). Runs outside any simulation: zero simulated cost. *)
let prefill (type a) (module S : Registry.SET_OPS with type t = a) (t : a)
    sample ~init_size ~seed =
  let rng = Rng.create (seed + 7919) in
  let n = ref 0 in
  let attempts = ref 0 in
  while !n < init_size && !attempts < init_size * 1000 do
    incr attempts;
    let k = sample rng in
    if S.insert t k k then incr n
  done;
  if !n < init_size then
    failwith
      (Printf.sprintf "prefill: only %d/%d keys inserted (capacity?)" !n
         init_size)

(* Sets: a key, then the op. Insert and delete split [update_pct]
   evenly; classes 2 and 4 (a successful insert or delete) modified the
   structure. *)
let set_instance (module S : Registry.SET_OPS) w ~seed =
  let t =
    match w.capacity with
    | Some capacity -> S.create ~capacity ()
    | None -> S.create ()
  in
  let sample = sampler w in
  prefill (module S) t sample ~init_size:w.init_size ~seed;
  let upd_half = w.update_pct / 2 in
  let op rng =
    let key = sample rng in
    let p = Rng.below rng 100 in
    if p < upd_half then if S.insert t key key then 2 else 3
    else if p < w.update_pct then
      match S.delete t key with Some _ -> 4 | None -> 5
    else match S.search t key with Some _ -> 0 | None -> 1
  in
  {
    i_name = S.name;
    classes = class_names;
    op;
    effective = Some (fun cls -> cls = 2 || cls = 4);
    size = (fun () -> S.size t);
    valid = (fun () -> S.validate t);
  }

(* Queues and stacks: [init] random values, then [add_pct] percent puts
   of a random value, the rest takes. *)
let pool_instance (module P : Registry.POOL_OPS) ~seed ~init ~add_pct =
  let p = P.create () in
  let rng0 = Rng.create (seed + 13) in
  for _ = 1 to init do
    P.put p (Rng.below rng0 1_000_000)
  done;
  let op rng =
    if Rng.below rng 100 < add_pct then (
      P.put p (Rng.below rng 1_000_000);
      0)
    else match P.take p with Some _ -> 1 | None -> 2
  in
  {
    i_name = P.name;
    classes = queue_class_names;
    op;
    effective = None;
    size = (fun () -> P.size p);
    valid = (fun () -> true);
  }

(* --------------------------------------------------------------- *)
(* Simulator runner                                                 *)

(* Run a simulation to a structured ([stats], [outcome]) pair: watchdog
   verdicts and budget exhaustion become [Aborted] with partial stats,
   never an escaped exception. *)
let run_guarded ?watchdog ?max_events ?quantum ?read_slack ?max_inline_ops
    ~topology ~nthreads ~ops_target body : Sim.Sched.stats * outcome =
  match
    Sim.Sched.run ?watchdog ?max_events ?quantum ?read_slack ?max_inline_ops
      ~topology ~nthreads ~ops_target body
  with
  | st -> (st, Complete)
  | exception Sim.Sched.Aborted r -> (r.Sim.Sched.r_stats, Aborted r)

(* The one simulated-run envelope. The caller has built and filled its
   structure; from here on probe counters count the measured window only.
   [body lat tid] runs as thread [tid] with that thread's collectors, one
   per class. The host timer brackets the journal and the guarded run and
   nothing else: allocating the collectors, summarizing the journal and
   merging the collectors all happen outside it. [faults] is installed
   for the guarded run only, and what fired comes back in [fired].
   [run_guarded] never raises, but a body may; the journal is stopped on
   escape so it is not left armed for the next run. *)
let simulate ~name ~(topology : Sim.Topology.t) ~nthreads ~ops ~seed ?faults
    ?watchdog ?max_events ?quantum ?read_slack ?max_inline_ops
    ?(record_obs = false) ~classes body =
  Sim.Sim_rt.Probe.reset_all ();
  let lat =
    Array.init nthreads (fun _ -> Array.map (fun _ -> Pstats.create ()) classes)
  in
  let host0 = Unix.gettimeofday () in
  if record_obs then Obs.Journal.start ();
  let run () =
    let guarded () =
      run_guarded ?watchdog ?max_events ?quantum ?read_slack ?max_inline_ops
        ~topology ~nthreads ~ops_target:ops (fun tid -> body lat.(tid) tid)
    in
    match faults with
    | None -> (guarded (), [])
    | Some plan -> Sim.Fault.with_plan plan guarded
  in
  let (stats, outcome), fired =
    match run () with
    | r -> r
    | exception e ->
        if record_obs then ignore (Obs.Journal.stop ());
        raise e
  in
  let record = if record_obs then Some (Obs.Journal.stop ()) else None in
  let host_s = Float.max 1e-9 (Unix.gettimeofday () -. host0) in
  {
    name;
    topo_name = topology.name;
    seed;
    threads = nthreads;
    mops = Sim.Sched.mops topology stats;
    ops = stats.ops;
    wall_s = float_of_int stats.wall_cycles /. (topology.ghz *. 1e9);
    eff_update_pct = 100.;
    reads = stats.reads;
    writes = stats.writes;
    cas = stats.cas;
    cas_failed = stats.cas_failed;
    faa = stats.faa;
    events = stats.events;
    host_s;
    lat =
      Array.mapi
        (fun c _ ->
          Pstats.summarize (Array.to_list (Array.map (fun l -> l.(c)) lat)))
        classes;
    lat_classes = classes;
    counters = Sim.Sim_rt.Probe.dump ();
    final_size = 0;
    valid = true;
    outcome;
    fired;
    obs = Option.map Obs.Profile.summarize record;
  }

let reject fn what =
  invalid_arg (Printf.sprintf "Runner.%s: %s must be positive" fn what)

(* The paper's loop on the simulator: every thread draws from its own
   seeded rng, times each op into its latency collectors, and waits a
   short random moment between iterations (avoids long runs, §5).
   [instance] builds and fills the structure once the arguments are
   checked. An ops target of 0 runs until the watchdog's verdict, which
   only a fault plan can provoke: without one the run would never end. *)
let run_sim fn ~topology ~nthreads ~ops ~seed ?faults ?watchdog ?max_events
    ~record_obs instance =
  if nthreads < 1 then reject fn "threads";
  if ops < 0 || (ops = 0 && faults = None) then reject fn "ops";
  let i = instance () in
  let effective = ref 0 in
  let counts = Option.value i.effective ~default:(fun _ -> false) in
  let m =
    simulate ~name:i.i_name ~topology ~nthreads ~ops ~seed ?faults ?watchdog
      ?max_events ~record_obs ~classes:i.classes (fun lat tid ->
        let rng = Rng.create ((seed * 65_599) + tid) in
        while not (Sim.Sched.stop_requested ()) do
          let t0 = Sim.Sched.now () in
          let cls = i.op rng in
          let t1 = Sim.Sched.now () in
          Pstats.record lat.(cls) (t1 - t0);
          (* The op's latency as a trace sample; [Pstats] keeps the
             statistic. *)
          if Obs.Journal.recording () then
            Sim.Sched.obs_emit
              (Obs.Journal.Sample ("runner.op-cycles", t1 - t0));
          if counts cls then incr effective;
          Sim.Sched.tick ();
          Sim.Sched.work (64 + Rng.below rng 64)
        done)
  in
  let valid = i.valid () in
  let final_size = i.size () in
  let eff_update_pct =
    match i.effective with
    | None -> 100.
    | Some _ when m.ops = 0 -> 0.
    | Some _ -> 100. *. float_of_int !effective /. float_of_int m.ops
  in
  { m with eff_update_pct; final_size; valid }

let run_set_sim ~topology ~nthreads ~ops ?(seed = 42) ?faults ?watchdog
    ?max_events ?(record_obs = false) (module S : Registry.SET_OPS)
    (w : set_workload) : measurement =
  run_sim "run_set_sim" ~topology ~nthreads ~ops ~seed ?faults ?watchdog
    ?max_events ~record_obs (fun () ->
      if w.init_size < 1 then reject "run_set_sim" "size";
      if w.update_pct < 0 || w.update_pct > 100 then
        invalid_arg "Runner.run_set_sim: update_pct must be in [0,100]";
      set_instance (module S) w ~seed)

(* Pool workloads: [add_pct] picks between decreasing (40), stable (50)
   and increasing (60) size. The default prefill is Figure 12's 65,536
   for a queue and 4,096 for a stack. *)
let run_pool_sim ~topology ~nthreads ~ops ?(seed = 42) ?init ?faults ?watchdog
    ?max_events ?(record_obs = false) ~add_pct
    ((module P : Registry.POOL_OPS) as p) =
  let init = Option.value init ~default:(if P.lifo then 4_096 else 65_536) in
  run_sim "run_pool_sim" ~topology ~nthreads ~ops ~seed ?faults ?watchdog
    ?max_events ~record_obs (fun () -> pool_instance p ~seed ~init ~add_pct)
