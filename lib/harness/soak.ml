(** Randomized soak sweeps: one sampler draws each run's structure,
    machine, thread count and workload from a seeded rng. The bounded
    sweep of [optik_bench soak], its pin ledger rows and the time-bounded
    [test/soak.exe] all draw through it, so a failure tuple printed by
    one replays in the others. *)

(** How wide a sweep samples. *)
type shape = {
  max_threads : int;  (** threads are drawn from [1 .. max_threads] *)
  size_shifts : int;  (** initial sizes are [4 lsl k], [k < size_shifts] *)
  min_ops : int;
  ops_span : int;  (** ops are drawn from [min_ops .. min_ops + ops_span - 1] *)
  structures : Registry.entry list;
}

module SB = Registry.Sim_backend

(** The deterministic sweep: up to 16 threads, sizes 4-256, the map,
    list and hash-table lineups. *)
let bounded =
  {
    max_threads = 16;
    size_shifts = 7;
    min_ops = 1_000;
    ops_span = 4_000;
    structures = List.concat_map SB.lineup [ "map"; "list"; "hashtable" ];
  }

(** The time-bounded sweep: up to 64 threads, sizes 4-1024, the lineup
    of every set family. *)
let wide =
  {
    max_threads = 64;
    size_shifts = 9;
    min_ops = 2_000;
    ops_span = 8_000;
    structures =
      List.concat_map SB.lineup
        [ "map"; "list"; "hashtable"; "skiplist"; "bst" ];
  }

let topologies =
  [ Sim.Topology.xeon; Sim.Topology.opteron; Sim.Topology.uniform ~n:4 () ]

(** One sampled run. *)
type case = {
  structure : Registry.entry;
  topology : Sim.Topology.t;
  threads : int;
  size : int;
  updates : int;  (** attempted update percentage *)
  skewed : bool;
  ops : int;
  seed : int;
}

(* The draws happen in this order; every recorded tuple depends on it. *)
let sample shape rng =
  let seed = Rng.next rng land 0xFFFFFF in
  let topology = List.nth topologies (Rng.below rng 3) in
  let threads = 1 + Rng.below rng shape.max_threads in
  let size = 4 lsl Rng.below rng shape.size_shifts in
  let updates = 10 + Rng.below rng 80 in
  let skewed = Rng.below rng 2 = 0 in
  let ops = shape.min_ops + Rng.below rng shape.ops_span in
  let structure =
    List.nth shape.structures (Rng.below rng (List.length shape.structures))
  in
  { structure; topology; threads; size; updates; skewed; ops; seed }

(** The replayable tuple: structure [family/name], machine, threads,
    size, updates, skew, ops and seed. *)
let describe c =
  Printf.sprintf "%s topo=%s thr=%d size=%d upd=%d skew=%b ops=%d seed=%d"
    (Registry.id c.structure) c.topology.Sim.Topology.name c.threads c.size
    c.updates c.skewed c.ops c.seed

(* A loose watchdog turns a hang into a fast failure with a per-thread
   progress dump instead of a silent event-budget burn. *)
let watchdog = { Sim.Sched.check_events = 500_000; starve_cycles = 50_000_000 }

(** Run a case from a pristine world ({!World.reset}). Maps get twice the
    size in slots for headroom, hash tables as many buckets. *)
let run c =
  let workload =
    if c.skewed then Runner.skewed_workload else Runner.uniform_workload
  in
  let w =
    workload ~capacity:(2 * c.size) ~init_size:c.size ~update_pct:c.updates ()
  in
  World.reset ();
  Runner.run_set_sim ~topology:c.topology ~nthreads:c.threads ~ops:c.ops
    ~seed:c.seed ~watchdog
    (Registry.set_ops c.structure)
    w
