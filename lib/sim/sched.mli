(** Deterministic multicore simulator: discrete-event scheduling of
    effect-handler virtual threads over a cache-coherence cost model.

    See the implementation header and DESIGN.md ("Simulator techniques")
    for the model: per-cache-line MESI-like state, NUMA-priced line
    transfers, per-line serialization of atomic read-modify-writes,
    scheduling quanta for oversubscription, and the inline fast path with
    bounded read slack.

    Typical use goes through {!Sim_rt} (the {!Rt.Rt_intf.RT} backend) and
    {!run}; the raw location operations here are what {!Sim_rt} delegates
    to. Outside of a {!run}, all operations apply directly with zero
    simulated cost, which is how benchmark prefills and unit tests build
    structures cheaply. *)

exception Crashed
(** Raise from a fault checkpoint (via a {!set_fault_hook} handler, i.e.
    the [Fault] module) to kill the calling virtual thread: it never runs
    again, and any locks it holds stay held — modeling a thread that dies
    or is descheduled forever inside its critical section. Only
    meaningful inside a {!run}; the scheduler absorbs it. *)

(** {1 Locations} *)

type 'a loc
(** A simulated shared-memory cell. Every cell lives on a cache line;
    {!loc} gives it a private line and {!loc_with} models C-style
    contiguity. *)

val loc : ?streaming:bool -> 'a -> 'a loc
(** A cell on a fresh line. [streaming] (default false) marks the line as
    array-like data whose cached reads pipeline at ~1 cycle. *)

val loc_with : 'b loc -> 'a -> 'a loc
(** Same line as an existing cell — one node, one line; or the slots of
    one array line, anchored on the first. *)

type 'a cells
(** A block of private-line cells built on first touch. *)

val cells : int -> 'a -> 'a cells
(** [cells n v] reserves [n] consecutive line ids now — the ids [n]
    calls of [loc v] would take — and remembers the active
    [Probe.with_site] site, but builds no cell: the block's array starts
    empty and doubles (from 8, capped at [n]) when {!cell} touches an
    index past its end. Raises [Invalid_argument] if [n < 0]. *)

val cell : 'a cells -> int -> 'a loc
(** [cell c i] is cell [i] of [c], holding [v] on line [base + i + 1]
    and attributed to the reserved site when first touched. Its first
    access is priced exactly like that of an eagerly created cell (both
    are cold). Raises [Invalid_argument "Sched.cell: index i is out of
    range (n = n)"] unless [0 <= i < n]. *)

(** {1 Memory operations}

    Atomic, sequentially consistent; priced by the coherence model when
    executed inside a {!run}. [cas] and [exchange] compare/return by
    physical equality, like [Stdlib.Atomic]. *)

val read : 'a loc -> 'a
val write : 'a loc -> 'a -> unit
val cas : 'a loc -> 'a -> 'a -> bool
val faa : int loc -> int -> int
val exchange : 'a loc -> 'a -> 'a

(** {1 Thread-local execution} *)

val work : int -> unit
(** Burn [n] cycles of private computation. *)

val pause : unit -> unit
val pause_n : int -> unit
val yield : unit -> unit

(** {1 Run control (callable from inside a run)} *)

val now : unit -> int
(** The calling virtual thread's clock, in cycles; 0 outside a run. *)

val tick : unit -> unit
(** Count one completed benchmark operation toward [ops_target]. *)

val noise : unit -> int
(** Deterministic timing noise: a pure hash of the calling thread's id
    and clock (0 outside a run). *)

val stop_requested : unit -> bool
val tid : unit -> int
val nthreads : unit -> int

val ops_so_far : unit -> int
(** Operations {!tick}ed so far in the current run; 0 outside a run. *)

val set_noise_bits : int -> unit
(** Set the noise amplitude as a bit width in [0..62]: {!noise} masks its
    hash to the low [n] bits. 62 (default) is full amplitude; 0 disables
    noise, removing the jitter that prevents phase-locked starvation
    (watchdog tests use it to reproduce that incident deterministically);
    intermediate widths coarsen the jitter toward the phase-locking
    regime, a fuzzing knob for the chaos engine. Restore afterwards. *)

val noise_bits : unit -> int
(** The current noise amplitude, for save/restore. *)

(** {1 Fault checkpoints}

    Locks, backoff and the simulator's own CAS report instrumentation
    checkpoints ({!Rt.Rt_intf.fault_point}) through {!fault_point}. The
    scheduler uses them to maintain per-thread liveness counters; an
    installed hook (see the [Fault] module) can additionally act on them —
    burn virtual time, or raise {!Crashed}. *)

val fault_point : Rt.Rt_intf.fault_point -> unit
(** Report a checkpoint for the calling thread (no-op outside a run).
    This is [Sim_rt.on_fault]. May raise {!Crashed} or suspend if a hook
    decides so. When an observability recording is active the checkpoint
    is also journaled (see {!obs_emit}). *)

(** {1 Observability}

    The scheduler timestamps the observability journal ([Obs.Journal]):
    probe calls and instrumentation checkpoints become journal entries
    stamped with the calling virtual thread's clock and id. Emitting an
    entry never advances the clock, so traced and untraced runs are
    cycle-identical. *)

val obs_emit : Obs.Journal.kind -> unit
(** Append a journal entry at the calling thread's current virtual time
    (time 0, thread 0 outside a run). No-op unless a recording is active.
    The one route into the journal: [Sim_rt.Probe]'s counters and spans,
    the kv and txn layers' phases, instants and request markers, and the
    scheduler's own checkpoints and thread instants. *)

val set_fault_hook : (Rt.Rt_intf.fault_point -> unit) option -> unit
(** Install (or clear) the calling domain's fault handler. The handler
    runs in the reporting thread's context. Prefer [Fault.with_plan],
    which manages installation and cleanup. *)

(** {1 World reset}

    All of the simulator's mutable state — the current run, the line
    counter, fault hook, noise width, the thread arena and event heap —
    is {e domain-local}: every OCaml domain carries an independent
    simulator world, and a fresh domain starts pristine. *)

val reset_world : unit -> unit
(** Restore the calling domain's simulator world to process-pristine
    state: line counter back to zero, fault hook cleared, noise width
    back to the default, oversized event heap storage compacted.
    Locations created {e before} the reset are invalidated (their line
    ids would collide with new ones) — drop every structure along with
    the reset. Used by the fleet runner so trial output is independent
    of which domain (and in what order) ran the trial. Raises
    [Invalid_argument] inside a {!run}. *)

(** {1 Results} *)

type stats = {
  wall_cycles : int;  (** virtual time when the last thread finished *)
  ops : int;  (** operations counted via {!tick} *)
  reads : int;
  writes : int;
  cas : int;
  cas_failed : int;
  faa : int;
  events : int;  (** scheduler (slow-path) events processed *)
}

val mops : Topology.t -> stats -> float
(** Throughput in million operations per second at the topology's clock
    frequency. *)

(** {1 Liveness watchdog}

    Per-thread progress counters (ops completed, cycles since the last
    completed op, restarts, locks held, lock probes) let the scheduler
    classify a run instead of silently spinning into the event budget. *)

type watchdog = {
  check_events : int;
      (** classify every N scheduler events; 0 (default) classifies only
          when a budget is exhausted *)
  starve_cycles : int;
      (** an unfinished thread with no completed op within this many
          cycles of the global time frontier counts as starved
          (default 8M cycles) *)
}

type verdict =
  | Progress  (** every unfinished thread completed an op recently *)
  | Starved of int list
      (** the listed threads are stuck while others progress, or stuck
          behind a crashed lock holder *)
  | Livelocked
      (** every surviving thread is burning cycles without completing
          operations, and no dead holder explains it *)

type thread_progress = {
  tp_tid : int;
  tp_ops : int;
  tp_clock : int;
  tp_last_op_clock : int;
  tp_restarts : int;
  tp_crit_depth : int;
  tp_waiting : bool;
  tp_crashed : bool;
  tp_finished : bool;
}

type report = {
  r_verdict : verdict;
  r_reason : string;
  r_stats : stats;  (** partial statistics at abort time *)
  r_threads : thread_progress list;
  r_dead_holders : int list;
      (** crashed threads still holding at least one lock — the "dead
          lock holder" a blocked run is stuck behind *)
  r_waiters : int list;  (** alive threads last seen probing a held lock *)
  r_hot_lines : (int * int) list;
      (** (cache-line id, serialized ops stalled on it), top eight *)
}

exception Aborted of report
(** Raised when a run aborts: its event or inline-operation budget ran
    out (the verdict says whether threads were still progressing; the
    reason names the budget and, for events, each thread's clock), or the
    periodic watchdog ([check_events > 0]) ruled it [Starved] or
    [Livelocked]. *)

val pp_verdict : Format.formatter -> verdict -> unit
val pp_report : Format.formatter -> report -> unit

(** {1 Running} *)

val default_quantum : int

val run :
  ?quantum:int ->
  ?ops_target:int ->
  ?max_events:int ->
  ?read_slack:int ->
  ?max_inline_ops:int ->
  ?watchdog:watchdog ->
  topology:Topology.t ->
  nthreads:int ->
  (int -> unit) ->
  stats
(** [run ~topology ~nthreads body] executes [body tid] as [nthreads]
    virtual threads until they all return (or [ops_target] operations
    have been {!tick}ed, observed via {!stop_requested}). Deterministic:
    identical inputs give identical results. Raises {!Aborted} on budget
    exhaustion or a watchdog verdict, [Invalid_argument] on nesting or a
    [quantum] below 1, and re-raises any exception escaping a thread body
    (except {!Crashed}, which kills only the raising thread). *)
