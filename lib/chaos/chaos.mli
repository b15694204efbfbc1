(** Chaos engine: randomized fault/schedule fuzzing with crash-aware
    oracles and counterexample shrinking, over three trial families —
    registry structures (sets and pools: queues and stacks), the sharded
    KV service and optimistic transactions.

    A family is a {!TRIAL}: a trial type with a one-line replayable
    string form, a seeded generator, greedy shrink steps and a [run] that
    applies the family's oracles to one run of the simulated-run envelope
    ({!Harness.Runner.simulate}). One driver — {!fuzz}, {!shrink},
    {!replay} — runs any family.

    Determinism: a trial's outcome is a pure function of its string form
    — fuzzing twice with the same seed produces byte-identical output,
    and {!replay} of an emitted repro string reproduces the identical
    verdict. *)

type failure = { f_oracle : string; f_detail : string }

(** What one trial of any family gives. *)
type result = {
  failures : failure list;  (** empty = every oracle passed *)
  detail : string;  (** the detail line {!replay} prints *)
  measurement : Harness.Runner.measurement;
      (** the trial's run: ops, accesses, events, virtual wall time, CAS
          counts, how it ended ([outcome]) and its host time *)
}

module type TRIAL = sig
  type t

  val name : string
  (** Summary label: ["chaos"], ["chaos-kv"], ["chaos-txn"]. *)

  val command : string
  (** The [optik_bench] subcommand whose [--replay] takes {!to_string}'s
      output (printed in repro lines). *)

  val to_string : t -> string
  (** One-line replayable form: [name@topo] followed by one-letter
      fields. *)

  val of_string : string -> t
  (** Inverse of {!to_string}; raises [Invalid_argument] on parse errors,
      unknown names and out-of-range fields. *)

  val gen : Harness.Rng.t -> t
  (** Draw a random trial from the given rng state. *)

  val shrink_steps : t -> t list
  (** Candidate reductions of a trial, most aggressive first. *)

  val shrink_budget : int
  (** How many runs {!shrink} may spend. *)

  val run : t -> result
  (** Execute one trial and judge it. Deterministic but for the
      measurement's [host_s]; never raises for well-formed trials. *)
end

(** {1 One verdict per run} *)

val liveness : Harness.Runner.measurement -> failure list
(** The one liveness rule: an aborted run fails [liveness] with
    ["VERDICT — reason"], the scheduler's verdict and reason. *)

val run_failures : Harness.Runner.measurement -> failure list
(** {!liveness}, then [validate] unless the measurement is [valid]: the
    judge of a set run ([optik_bench run], [soak], [test/soak.exe]) and
    where the KV and transaction judges start. *)

val report_failures : Format.formatter -> failure list -> unit
(** One [oracle NAME DETAIL] line per failure, as {!replay} prints it. *)

(** {1 The driver} *)

val fuzz :
  ?jobs:int ->
  (module TRIAL) ->
  runs:int ->
  seed:int ->
  int * string * Harness.Runner.measurement list
(** Run [runs] independent random trials (trial [i] is drawn from seed
    [seed + i * 1_000_003]), shrinking and reporting each failure with a
    one-line repro ([optik_bench COMMAND --replay '...']), then a
    ["NAME: F/T trials failed (seed S)"] summary line. Returns the number
    of failing trials, the whole output and each drawn trial's
    measurement in trial order (shrink runs are not among them). The
    trials are farmed in contiguous ranges over [jobs] worker domains
    ({!Harness.Fleet.map}; default {!Harness.Fleet.default_jobs}); every
    trial starts from [Harness.World.reset], so the output and the
    measurements' simulated counts are deterministic for a given family,
    [runs] and [seed], whatever [jobs]. A trial that raises surfaces as
    {!Harness.Fleet.Task_failed} labelled [NAME[FIRST..LAST]], its range.
    Raises [Invalid_argument] if [jobs < 1]. *)

val shrink : (module TRIAL with type t = 'a) -> 'a -> 'a
(** Greedily minimize a failing trial: take the first shrink step that
    still fails some oracle and start over from it, until no step fails
    or the budget is spent. Returns the trial unchanged if it does not
    fail. *)

val replay : (module TRIAL) -> string -> Format.formatter -> int
(** Parse a repro string, run it, report the verdict; returns the number
    of oracle failures (0 = passes). Raises [Invalid_argument] on a
    malformed string. *)

(** {1 Registry structures}

    Each trial bundles a structure, a machine topology, a small workload,
    scheduler perturbation knobs (quantum, read slack, noise amplitude)
    and a fault plan. Oracles:

    - {e liveness by family}: {!liveness}, except that a blocking
      structure's aborted run is excused when a thread crashed inside an
      operation (everyone behind a dead lock holder may starve);
    - {e crash-aware linearizability}: the recorded history, with crashed
      threads' in-flight operations as pending (include-or-exclude), must
      linearize against the sequential spec;
    - {e invariant sweeps}: size accounting against the history, the
      structure's own [validate], and QSBR's
      [retired = freed + pending]. *)

val default_names : string list
(** One representative per family and figure: lists, hash tables, skip
    lists, array map, BST, queues, stacks, in the order the default draws
    pick from. *)

val quick_names : string list
(** {!default_names} minus the slow representatives (skip lists, BST);
    the CI smoke set. *)

val all_names : string list
(** {!default_names} followed by the other registered structures in
    {!Harness.Registry.ForRt.entries} order, so that every entry appears
    exactly once. *)

val select : string list -> Harness.Registry.entry list
(** The entries named, in {!all_names} order and each once, whatever the
    order and repeats of [names]. Raises the registry's
    [Invalid_argument] on the first unknown name. *)

type trial = {
  t_entry : Harness.Registry.entry;
  t_topo : string;  (** topology name: u2, u4, xeon, opteron *)
  t_threads : int;
  t_ops : int;  (** operations per thread *)
  t_keys : int;  (** key range for set workloads; twice the prefill for pools *)
  t_quantum : int;
  t_read_slack : int;
  t_noise_bits : int;
  t_wseed : int;  (** workload seed *)
  t_plan : Sim.Fault.plan;
}

val knobs : trial Harness.Knob.t list
(** The table {!sets}' trial strings are printed, parsed and checked by. *)

val sets : Harness.Registry.entry list -> (module TRIAL with type t = trial)
(** The family over [entries]: [gen] draws from them and [of_string]
    resolves any registered structure; the entry's guarantee picks the
    liveness oracle. Strings read
    [family/name@topo tN oN kN qN rN nN wN fPLAN] with [PLAN] in
    {!Sim.Fault.to_string} syntax; the detail line reads
    [run completed; crashed threads [..]]; the shrink steps drop fault
    specs, halve stall/storm durations and hit counts, and reduce
    threads/ops/keys. A history too large for the linearizability
    checker adds [; linearizability unchecked (N ops > 62)] to the
    detail line. *)

val run_trial : trial -> result
(** The family's [run]. *)

(** {1 KV service}

    Randomized trials over the sharded KV service ({!Kv}): sequences of
    shard crashes per pair (the resync path re-arms the f = 1 budget,
    so multi-crash schedules are legal), deliberate crash-during-resync
    schedules ([resynccrash]), client crashes (op-boundary only),
    stalls and storms. The oracles are the service's own: the run
    terminates, the stores stay valid, no acknowledged write is lost or
    duplicated while its pair is under warranty, and a pair that took a
    crash mid-resync ends Voided (anything else is a forged re-arm). *)

module Kv_trial : sig
  include TRIAL with type t = Kv.config

  val judge : t -> Harness.Runner.measurement * Kv.result -> failure list
  (** The oracles above over one [Kv.run] of the config: {!run_failures},
      [acked-write], then [warranty] (must-drop), which reads the
      measurement's fired injections. [run] and [optik_bench kv] apply
      it. *)
end
(** A trial is the service's own configuration. Strings read
    [kv/FAMILY/NAME@topo sN tN oN kN RN CN wN DN BN fPLAN]: shards,
    client threads, requests, keys, read and scan percentages, workload
    seed, degraded cycles, resync batch and the fault plan (a config
    without one prints no [f] token), by {!Kv.knobs}. [of_string] judges
    the result with {!Kv.check}, so a string and a [Kv.run] out of range
    get the same message. The detail line is {!Kv.pp_oracle}'s. *)

(** {1 Transactions}

    Randomized trials over the multi-key optimistic transaction manager
    ({!Txn.Workload}): contended bank transfers plus snapshot audits over
    several registry structures. The oracle is strict serializability —
    every committed transfer replays in commit-ticket order against a
    sequential model, every snapshot audit matches some model state
    inside its clock window, and account balances are conserved. *)

module Txn_trial : sig
  include TRIAL with type t = Txn.Workload.config

  val judge :
    t -> Harness.Runner.measurement * Txn.Workload.result -> failure list
  (** {!run_failures}, then [serializability], over one
      [Txn.Workload.run] of the config. [run] and [optik_bench txn]
      apply it. *)
end
(** A trial is the workload's own configuration. Strings read
    [txn/FAMILY/NAME@topo bN aN tN oN XN wN [!]]: objects, accounts per
    object, threads, transactions, transfer percentage and workload
    seed; a trailing [!] marks the broken-commit negative control; by
    {!Txn.Workload.knobs}. [of_string] judges the result with
    {!Txn.Workload.check}. The detail line is {!Txn.Workload.pp_oracle}'s. *)
