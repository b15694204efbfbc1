(** Workload runners: execute the paper's microbenchmark loop (§5)
    against a data structure on the simulated multicore (the figures;
    [bench/perf] keeps the timed loop on real domains).

    Methodology reproduced from the paper: keys are drawn uniformly (or
    zipf, a = 0.9) from a range twice the initial size; insert and delete
    percentages are equal so the size stays put and roughly half the
    updates fail; the {e effective} update rate is what gets reported;
    per-thread latency buffers are summarized as boxplot percentiles. *)

(** {1 Workloads} *)

type dist = Uniform | Zipf of float

type set_workload = {
  init_size : int;
  range : int;
  update_pct : int;  (** attempted updates, percent: split evenly ins/del *)
  dist : dist;
  capacity : int option;  (** map slots / hash-table buckets *)
}

val uniform_workload :
  ?capacity:int -> init_size:int -> update_pct:int -> unit -> set_workload

val skewed_workload :
  ?capacity:int -> init_size:int -> update_pct:int -> unit -> set_workload
(** Zipfian keys, a = 0.9: the largest keys are the most popular. *)

(** {1 Measurements} *)

val class_names : string array
(** Names of the latency classes, indexed like {!measurement.lat}. *)

val queue_class_names : string array
(** Latency class names for queue/stack workloads: enqueue (push),
    dequeue (pop) non-empty, dequeue (pop) empty. *)

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
          simulated-ops/host-second is [ops /. host_s] — the
          engine-throughput figure tracked by [optik_bench hostperf] *)
  lat : Pstats.summary array;  (** indexed like {!lat_classes} *)
  lat_classes : string array;
      (** names of the latency classes [lat] is indexed by
          ({!class_names} or {!queue_class_names}) *)
  counters : (string * int) list;
      (** non-zero probe counters, sorted by name *)
  final_size : int;
  valid : bool;
  outcome : outcome;
  obs : Obs.Profile.summary option;
      (** present when the run was made with [~record_obs:true]: the
          observability journal summary, for trace export and hot-line
          reports *)
}

val aborted : measurement -> bool

val run_guarded :
  ?faults:Sim.Fault.plan ->
  ?watchdog:Sim.Sched.watchdog ->
  ?max_events:int ->
  ?quantum:int ->
  ?read_slack:int ->
  ?max_inline_ops:int ->
  topology:Sim.Topology.t ->
  nthreads:int ->
  ops_target:int ->
  (int -> unit) ->
  Sim.Sched.stats * outcome
(** A bare guarded simulation run: execute [body tid] under an optional
    fault plan, turning watchdog verdicts and budget exhaustion into
    [Aborted] with partial stats — never an escaped exception. The
    building block under {!simulate}; the chaos engine uses it directly
    with its own workloads and oracles. *)

val simulate :
  name:string ->
  topology:Sim.Topology.t ->
  nthreads:int ->
  ops:int ->
  seed:int ->
  ?faults:Sim.Fault.plan ->
  ?watchdog:Sim.Sched.watchdog ->
  ?max_events:int ->
  ?record_obs:bool ->
  classes:string array ->
  (Pstats.t array -> int -> unit) ->
  measurement
(** One measured simulation of an already built structure: the envelope
    every simulated workload (the runners below, the KV service, the
    transaction bank, the self-driven figures) runs through. It resets
    the probe counters, gives each thread one latency collector per name
    in [classes], and runs [body lat tid] under {!run_guarded} with an
    ops target of [ops]. [host_s] brackets the guarded run and the
    [record_obs] journal only.

    The measurement carries the scheduler's stats (throughput, virtual
    wall time, coherence counts, [ops]), the probe counters as the run
    left them, the per-class latency summaries merged across threads and
    the journal summary in [obs] when [record_obs]. Callers override
    what only they can measure: [eff_update_pct] (100 here),
    [final_size] (0) and [valid] ([true]). [seed] is recorded, not used:
    [body] draws its own randomness. *)

(** {1 Simulator runners}

    Both run the paper's loop: each thread draws from its own rng
    seeded from [seed], times every operation into a latency class, and
    waits 64-127 cycles between iterations. They raise [Invalid_argument]
    unless [nthreads] and [ops] are positive; [ops = 0] is allowed only
    with [faults], and then runs until the watchdog calls the verdict.

    Deterministic: identical arguments (including [seed]) give identical
    measurements. [record_obs] additionally records the observability
    journal — probe events, checkpoint stream, per-line contention —
    into {!measurement.obs}; recording never perturbs the virtual clock,
    so it does not change the measured figures. *)

val run_set_sim :
  topology:Sim.Topology.t ->
  nthreads:int ->
  ops:int ->
  ?seed:int ->
  ?faults:Sim.Fault.plan ->
  ?watchdog:Sim.Sched.watchdog ->
  ?max_events:int ->
  ?record_obs:bool ->
  (module Registry.SET_OPS) ->
  set_workload ->
  measurement
(** Also raises [Invalid_argument] unless the workload's [init_size] is
    positive. *)

val run_pool_sim :
  topology:Sim.Topology.t ->
  nthreads:int ->
  ops:int ->
  ?seed:int ->
  ?init:int ->
  ?faults:Sim.Fault.plan ->
  ?watchdog:Sim.Sched.watchdog ->
  ?max_events:int ->
  ?record_obs:bool ->
  add_pct:int ->
  (module Registry.POOL_OPS) ->
  measurement
(** Queue and stack workloads: [init] random values (default 65,536 for
    a queue, 4,096 for a stack), then [add_pct] percent puts, the rest
    takes. For queues (Figure 12), [add_pct] picks between decreasing
    (40), stable (50) and increasing (60) size. *)
