(** Runtime abstraction for OPTIK algorithms.

    Every lock and data structure in this library is a functor over {!RT}, a
    small signature capturing the shared-memory operations concurrent
    algorithms need. Two backends implement it:

    - {!Native_rt}: the real thing, on top of [Stdlib.Atomic] and
      [Stdlib.Domain]. Use this in applications.
    - [Sim.Sim_rt]: a deterministic multicore simulator used to regenerate
      the paper's scalability figures on a single-core host, and to drive
      the linearizability checker over controlled schedules.

    The abstraction deliberately mirrors what the paper's C code assumes of
    x86: word-sized atomic loads/stores with acquire/release semantics,
    compare-and-swap, and fetch-and-add. *)

(** What a counter counts. Readers sum counters by kind, never by name:
    the run report's wasted work takes the restart class ([Restart],
    [Abort], [Snapshot_retry]), [Vfail] and [Lock_fail]; request
    attribution flags a request retried on [Retry], [Abort] or
    [Snapshot_retry] and failed over on [Failover]; the timeline's
    tracks count [Retry], [Abort], [Timeout], [Shed] and [Failover].
    DESIGN.md ("Wasted-work metrics") lists each counter's kind. *)
type counter_kind =
  | Tally  (** a count that is none of the below *)
  | Restart  (** an attempt thrown away and redone *)
  | Vfail  (** a validation that failed *)
  | Lock_fail  (** a lock acquisition that failed *)
  | Abort  (** a transaction thrown away and redone *)
  | Snapshot_retry  (** a read-only transaction re-reading stale keys *)
  | Retry  (** a service request retried *)
  | Failover  (** a service request served by the replica *)
  | Timeout  (** a service request past its retries or deadline *)
  | Shed  (** a service request refused under load *)

(** The probe API, the single statistics/instrumentation surface of the
    runtime: named counters and named lock-wait spans.

    Probes are out-of-band channels: they {e never} perturb the simulated
    clock, so algorithms can report events (operation restarts, node-cache
    hits, validation failures, lock-acquire phases) without affecting the
    measured behaviour. On the native backend counters are plain atomics
    and the tracing operations are no-ops; on the simulator backend every
    probe additionally feeds a deterministic, virtual-time-stamped event
    journal (see [Obs.Journal]) when a recording is active. *)
module type PROBE = sig
  (** {2 Counters} *)

  type counter

  val counter : ?kind:counter_kind -> string -> counter
  (** [counter ~kind name] registers a counter of [kind] (default
      [Tally]) under [name], of the form [<owner>.<metric>]. Counters
      with the same name share storage within a backend. The simulator
      rejects a malformed name, and a name registered before with
      another kind, with [Invalid_argument]; the native backend ignores
      kinds. *)

  val incr : counter -> unit
  val add : counter -> int -> unit

  val count : counter -> int
  (** Current value. *)

  (** {2 Tracing} *)

  val span : string -> (unit -> 'a) -> 'a
  (** [span name f] runs [f] inside a named span (e.g. ["mcs.acquire"]),
      closed on exceptions too. A no-op on the native backend; on the
      simulator it journals a begin and an end at the calling thread's
      virtual time whenever a recording is active, and costs nothing (not
      even virtual time) otherwise. *)

  (** {2 Allocation-site attribution} *)

  val with_site : string -> (unit -> 'a) -> 'a
  (** [with_site site f] names the shared-memory cells allocated by [f]
      (e.g. ["ll-optik.node"]). The simulator uses the label to attribute
      per-cache-line contention profiles ("hot lines") back to the
      allocating structure/field; the native backend ignores it. *)
end

(** Instrumentation checkpoints reported by locks, backoff and the
    memory operations themselves. They serve two purposes at once: a
    fault-injection layer can act at a checkpoint (crash / stall /
    storm-preempt the calling thread — see [Sim.Fault]), and a liveness
    watchdog uses them to track which threads hold locks, which are
    spinning behind one, and which keep restarting. The native backend
    ignores them entirely. *)
type fault_point =
  | Before_cas  (** about to issue a CAS (reported by the simulator) *)
  | After_cas  (** a CAS (successful or not) just completed *)
  | Critical_enter  (** a lock was just acquired (any lock module) *)
  | Critical_exit  (** a lock is about to be released *)
  | Lock_wait  (** one probe iteration spent waiting behind a lock *)
  | Restart  (** one optimistic-retry backoff episode ({!Backoff.once}) *)
  | Op_boundary  (** a benchmark operation completed (scheduler tick) *)

(** Every checkpoint with its name, in declaration order: the one
    vocabulary the journal, the trace exporters, the fault-plan grammar
    and the chaos fuzzer's draws (which index into this order) share. *)
let fault_points =
  [
    (Before_cas, "before-cas");
    (After_cas, "after-cas");
    (Critical_enter, "critical-enter");
    (Critical_exit, "critical-exit");
    (Lock_wait, "lock-wait");
    (Restart, "restart");
    (Op_boundary, "op-boundary");
  ]

let fault_point_name p = List.assoc p fault_points

module type RT = sig
  val backend_name : string

  (** {1 Atomic locations} *)

  type 'a atomic
  (** A shared mutable cell with sequentially-consistent atomic access. On
      the simulator backend each cell occupies its own cache line unless
      created with {!atomic_with}. *)

  val atomic : ?streaming:bool -> 'a -> 'a atomic
  (** [atomic v] allocates a fresh atomic cell holding [v], on its own cache
      line (the common case for lock words and node fields that are written
      concurrently). [streaming] (default false) marks the line as
      array-like data whose cached reads pipeline (~1 cycle) rather than
      paying the full load-to-use latency of pointer chasing; it holds
      for every cell later put on the line with {!atomic_with}. The
      native backend ignores it. *)

  val atomic_with : 'b atomic -> 'a -> 'a atomic
  (** [atomic_with other v] allocates a cell on the {e same cache line}
      as [other] — the layout a C struct gives the fields of one node, or
      an array gives neighbouring slots (the array map anchors each line
      on its first key cell). Essential for modeling fidelity: a
      traversal that reads a node's version and next pointer touches one
      line on real hardware, and must cost one line access on the
      simulator too. The native backend ignores the anchor. *)

  type 'a cells
  (** A fixed-size block of private-line atomics, e.g. one per thread id. *)

  val cells : int -> 'a -> 'a cells
  (** [cells n v] is a block of [n] cells, each holding [v] on its own
      cache line, as [n] calls of {!atomic} would give. On the simulator
      the [n] line ids are reserved at once and the active
      {!PROBE.with_site} site is remembered, but a cell's line is only
      built when {!cell} first touches it, and the block's own array
      starts empty and doubles (from 8, capped at [n]) when a touch lands
      past its end: a structure that sizes a block for every possible
      thread pays host memory only up to the highest thread that uses
      it, while line ids — hence stall reports and the pin ledger — and
      access pricing stay what eager creation gives (an untouched line
      is cold either way). Like any location, a block
      reserved before [Sched.reset_world] must not be touched after it:
      its reserved ids would collide with new ones. The native backend
      allocates every cell eagerly, so concurrent first touches cannot
      race. Raises [Invalid_argument] if [n < 0]. *)

  val cell : 'a cells -> int -> 'a atomic
  (** [cell c i] is the [i]-th cell of [c], [0 <= i < n]. On the
      simulator an [i] outside that range raises [Invalid_argument]
      naming [Sched.cell], [i] and [n]. *)

  val get : 'a atomic -> 'a
  (** Atomic load with acquire semantics. *)

  val set : 'a atomic -> 'a -> unit
  (** Atomic store with release semantics. *)

  val cas : 'a atomic -> 'a -> 'a -> bool
  (** [cas r expected desired] atomically replaces the contents of [r] with
      [desired] iff it is physically equal to [expected]; returns whether it
      did. Failed CAS still costs a coherence transaction on the simulator,
      which is essential to reproduce contention behaviour. *)

  val faa : int atomic -> int -> int
  (** [faa r n] atomically adds [n] and returns the previous value. *)

  val exchange : 'a atomic -> 'a -> 'a
  (** Atomic swap; returns the previous value. *)

  (** {1 Execution} *)

  val pause : unit -> unit
  (** CPU relax: a polite busy-wait hint ([PAUSE] on x86). Charged a small
      fixed cost on the simulator. *)

  val pause_n : int -> unit
  (** [pause_n n] relaxes for approximately [n] pause slots; building block
      for backoff. *)

  val yield : unit -> unit
  (** Give up the processor; on the simulator this also ends the thread's
      scheduling quantum, on the native backend it calls [Domain.cpu_relax]
      (OCaml domains have no cooperative yield). *)

  val work : int -> unit
  (** [work n] burns [n] cycles of thread-private computation (no shared
      memory traffic). Used by benchmarks to model the non-synchronized
      sections between operations. *)

  val noise : unit -> int
  (** A small non-negative pseudo-random value for timing jitter in
      backoff. On the simulator it is a pure function of the calling
      thread's id and virtual clock, so runs stay bit-reproducible; on
      the native backend it is a cheap thread-local xorshift. Timing
      noise is what keeps contending threads from phase-locking into
      deterministic starvation (see {!Backoff}). *)

  (** {1 Thread identity} *)

  val tid : unit -> int
  (** Dense id of the calling thread, in [0 .. nthreads () - 1]. Valid only
      inside a runner-managed thread. *)

  val nthreads : unit -> int
  (** Number of threads in the current run; 1 outside a run. *)

  (** {1 Fault / liveness instrumentation} *)

  val on_fault : fault_point -> unit
  (** [on_fault p] reports that the calling thread reached checkpoint [p].
      On the simulator this feeds the liveness watchdog and gives the
      fault-injection layer a chance to crash or stall the thread (so the
      call may raise, or may suspend for a long virtual time). The native
      backend makes it a no-op. Locks and backoff call this; algorithm
      code normally does not need to. *)

  (** {1 Statistics and tracing} *)

  module Probe : PROBE
end

(** Interface of the classic (non-OPTIK) locks in [lib/locks], used by the
    baseline data structures. *)
module type LOCK = sig
  type t

  val create : unit -> t
  val lock : t -> unit
  val unlock : t -> unit
  val trylock : t -> bool
  val is_locked : t -> bool
end
