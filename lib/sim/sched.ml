(** Deterministic multicore simulator.

    Virtual threads are OCaml-5 effect-handler coroutines scheduled by a
    discrete-event loop over virtual cycle time. Shared-memory operations
    ({!read}, {!write}, {!cas}, {!faa}, {!exchange}) are priced by a
    cache-coherence cost model driven by a {!Topology.t}:

    - every atomic location lives on a cache line with MESI-like state
      (exclusive writer, sharer set);
    - a line transfer costs more the further apart the two hardware
      contexts are (SMT sibling < same die < same socket < cross-socket);
    - atomic read-modify-writes serialize per line through a [busy_until]
      timestamp — this is what makes contended CAS loops collapse, exactly
      the effect Figure 5 of the paper measures;
    - a {e failed} CAS costs a full coherence transaction, like on real
      hardware.

    When more threads run than the machine has hardware contexts, threads
    sharing a context are time-sliced with a fixed quantum. A thread whose
    turn it is not simply cannot start operations until its next window —
    which reproduces the multiprogramming collapse of fair locks (MCS hands
    the lock to a descheduled thread; §5.4 of the paper).

    {b Performance.} A naive DES would pay an effect-handler round trip per
    memory access; list traversals would then cost billions of scheduler
    events. Instead, a thread may execute operations {e inline} (no effect,
    no heap traffic) as long as the operation provably cannot interleave
    with any other thread's pending event: the operation must finish
    strictly before the earliest pending event timestamp and before the end
    of the thread's scheduling window. This fast path is exact — it admits
    only interleavings the slow path could also produce — and makes
    traversal-heavy simulations run at memory speed.

    {b Capacity.} Thread records live in a per-domain arena reused across
    runs and the event heap keeps (and compacts) its backing arrays — a
    10k-virtual-thread run allocates a handful of arrays up front and
    then runs with no per-thread or per-event churn.

    {b Isolation.} All of the simulator's mutable world state — current
    scheduler/thread, the line counter, the fault hook, noise width, the
    arena and the event heap — lives in one domain-local instance
    ({!dstate}). Each OCaml domain therefore carries an independent
    simulator: a fleet runner can farm seeded trials across real domains
    and each behaves exactly like a fresh process, which is what keeps
    fleet output byte-identical to serial output. *)

exception Crashed
(* Raised at a fault checkpoint to kill the current virtual thread. The
   run-loop handler marks the thread dead without unwinding shared state:
   whatever locks it held stay held, exactly like a thread that dies (or
   is descheduled forever) inside its critical section on real hardware. *)

exception Budget of string
(* Internal marker: a budget was exhausted mid-operation. The run loop
   catches it, classifies the run's liveness, and re-raises it as
   [Aborted] with that verdict. *)

module Fp = Rt.Rt_intf

type line = {
  id : int;  (** stable identity for stall reports ("hot lines") *)
  mutable epoch : int;
  mutable writer : int;  (** ctx holding the line exclusively; -1 if none *)
  mutable sharers : int;  (** bitmask of ctxs sharing the line *)
  mutable exclusive : bool;
  mutable busy_until : int;  (** line serialization point for RMWs *)
  mutable stalls : int;
      (** serialized ops that stalled behind [busy_until] this run; the
          per-line counter replacing the old per-access Hashtbl lookup *)
  streaming : bool;
      (** contiguous array data: cached reads cost ~1 cycle —
          independent loads pipeline — whereas pointer-chasing reads pay
          the full L1 load-to-use latency *)
  site : string option;
      (** allocating structure/field ([Probe.with_site] scope at
          creation), for hot-line profiles *)
}

type 'a loc = { mutable v : 'a; line : line }

(** Liveness-watchdog configuration. The watchdog classifies a run from
    per-thread progress counters; [check_events = 0] (the default) only
    classifies when a budget is exhausted, a positive value additionally
    checks every that-many scheduler events so genuinely stuck runs abort
    long before [max_events]. *)
type watchdog = {
  check_events : int;
  starve_cycles : int;
      (** an unfinished thread that has not completed an operation within
          this many cycles of the global frontier counts as starved *)
}

let default_watchdog = { check_events = 0; starve_cycles = 8_000_000 }

type thread = {
  t_id : int;  (** equals the arena index; never changes *)
  mutable ctx : int;
  mutable rank : int;  (** position among threads sharing this context *)
  mutable residents : int;  (** number of threads sharing this context *)
  mutable clock : int;
  mutable window_end : int;
  mutable finished : bool;
  mutable last_line : line;
      (** the line this thread last accessed: back-to-back accesses to
          one line (a node's fields) pipeline at ~1 cycle, like the
          independent loads of a C struct's fields *)
  (* Liveness bookkeeping, maintained by [tick] and [fault_point]. The
     "since last completed op" counters reset at every tick: an operation
     boundary is by construction a point where the thread holds no locks
     on its own behalf (structures that intentionally leak a dead node's
     lock — OPTIK victim locks — must not count as holding). *)
  mutable ops_done : int;
  mutable last_op_clock : int;
  mutable restarts : int;  (** backoff episodes since last completed op *)
  mutable crit_depth : int;
      (** locks acquired minus released since last completed op *)
  mutable waiting : bool;  (** probed a held lock since last completed op *)
  mutable crashed : bool;  (** killed by fault injection; locks stay held *)
  mutable self : thread option;
      (** [Some th] for this very thread, tied once at creation so
          installing it as the current thread on every dispatched event
          reuses one option block instead of allocating a fresh one *)
}

type t = {
  topo : Topology.t;
  quantum : int;
  epoch : int;  (** the world epoch this run started under *)
  threads : thread array;
  q : (unit -> unit) Eheap.t;
  mutable live : int;
  mutable stop : bool;
  mutable max_events : int;
  mutable events : int;
  mutable ops : int;
  ops_target : int;
  mutable n_reads : int;
  mutable n_writes : int;
  mutable n_cas : int;
  mutable n_cas_failed : int;
  mutable n_faa : int;
  mutable end_time : int;
  read_slack : int;
  max_inline_ops : int;
  mutable inline_ops : int;
      (** fast-path ops since run start; bounds runaway pure-inline spins
          that would otherwise never hit the event-count timeout *)
  wd : watchdog;
  mutable hot_rev : line list;
      (** lines that stalled at least once this run, most recent first
          (i.e. reverse first-stall order); each carries its own [stalls]
          count, folded into the stall report's "hot lines" lazily *)
  (* Cost-model constants, hoisted out of [topo] so the per-access hot
     path reads flat immediate fields instead of chasing the topology
     record, plus the full transfer-cost matrix memoized into one flat
     int array: [xfer.((src + 1) * nctx + dst)] = [Topology.transfer]
     (row 0 is [src = -1], a cold miss from memory). *)
  nctx : int;
  xfer : int array;
  m_hit : int;
  m_store : int;
  m_rmw : int;
  m_inv : int;
}

(* ------------------------------------------------------------------ *)
(* The per-domain world instance                                       *)

(* Never accessed through an operation: it fills empty arena and cell
   slots and is replaced before any thread runs, so its mutable fields
   are never written (which also makes sharing it across domains safe). *)
let dummy_line =
  {
    id = 0;
    epoch = 0;
    writer = -1;
    sharers = 0;
    exclusive = false;
    busy_until = 0;
    stalls = 0;
    streaming = false;
    site = None;
  }

(* Everything the simulator mutates between and during runs, one record
   per domain. [d_thread = None] means "outside any simulation":
   operations then apply directly with no cost, which lets structures be
   built, inspected and unit-tested without a scheduler. A worker domain's
   first access builds a pristine instance, so every domain starts life
   exactly like a fresh process. *)
type dstate = {
  mutable d_sched : t option;
  mutable d_thread : thread option;
  mutable d_epoch : int;
      (** world epoch, bumped per run; lines from older epochs are cold *)
  mutable d_lines : int;  (** line-id counter *)
  mutable d_hook : (Fp.fault_point -> unit) option;
  mutable d_noise : int;  (** noise width in bits; 62 = full, 0 = off *)
  mutable d_arena : thread array;
      (** thread-record arena, grown to the high-water thread count and
          reused by every run on this domain; slot [i] has [t_id = i] *)
  d_heap : (unit -> unit) Eheap.t;
      (** the event heap, cleared (not freed) between runs *)
}

let dkey : dstate Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        d_sched = None;
        d_thread = None;
        d_epoch = 0;
        d_lines = 0;
        d_hook = None;
        d_noise = 62;
        d_arena = [||];
        d_heap = Eheap.create ~dummy:(fun () -> ());
      })

let[@inline] dstate () = Domain.DLS.get dkey

(* The one slow path: [Suspend (at, resume)] parks the calling thread
   until virtual time [at]. The run loop's handler queues an event at
   [at]; popping it moves the thread to its next scheduling window, runs
   [resume] (which executes the access or work against the state of that
   moment) and continues the thread. *)
type _ Effect.t += Suspend : int * (unit -> unit) -> unit Effect.t

(* Run [f] with [th] installed as the current virtual thread. Every event
   action is wrapped in this: thread code (resumed continuations) must see
   itself as [th], and the scheduler loop itself runs with no thread.
   Hand-rolled instead of [Fun.protect] so dispatching an event allocates
   nothing (no finally closure; [th.self] is tied at creation). Note that
   when [f] suspends (performs an effect), control returns here normally —
   the handler enqueues the continuation and returns — so the reset runs
   at every suspension point, exactly as the [~finally] did. *)
let dispatching d th f () =
  d.d_thread <- th.self;
  match f () with
  | () -> d.d_thread <- None
  | exception e ->
      d.d_thread <- None;
      raise e

(* ------------------------------------------------------------------ *)
(* Locations                                                           *)

let make_line d id ~streaming ~site =
  {
    id;
    epoch = d.d_epoch;
    writer = -1;
    sharers = 0;
    exclusive = false;
    busy_until = 0;
    stalls = 0;
    streaming;
    site;
  }

(* The line carries the allocation site named by the innermost
   [Probe.with_site] scope, if any (hot-line profiles). *)
let new_line d ~streaming =
  let id = d.d_lines + 1 in
  d.d_lines <- id;
  make_line d id ~streaming ~site:(Obs.Journal.current_site ())

let loc ?(streaming = false) v = { v; line = new_line (dstate ()) ~streaming }

(* A block of [n] cells whose line ids are reserved up front but whose
   lines are built on first touch. Reserving keeps the id sequence (and
   so every later line id, stall report and digest) exactly what [n]
   eager [loc]s would give; deferring the build keeps an untouched block
   to a few words, however large [n] is: [c_locs] starts empty and
   doubles (from 8, capped at [n]) when a touch lands past its end. A
   line built late is fresh — writer -1, no sharers — which is exactly
   the state [refresh] gives a line created in an earlier run, so its
   first access is priced the same. Unbuilt slots hold [c_unbuilt],
   recognised by its [dummy_line]. *)
type 'a cells = {
  c_base : int;  (** line id of cell [i] is [c_base + i + 1] *)
  c_n : int;  (** the block's size; [c_locs] may be shorter *)
  c_site : string option;  (** [with_site] scope active at reservation *)
  c_unbuilt : 'a loc;
  mutable c_locs : 'a loc array;
}

let cells n v =
  if n < 0 then invalid_arg "Sched.cells: negative count";
  let d = dstate () in
  let base = d.d_lines in
  d.d_lines <- base + n;
  {
    c_base = base;
    c_n = n;
    c_site = Obs.Journal.current_site ();
    c_unbuilt = { v; line = dummy_line };
    c_locs = [||];
  }

let grow_cells c i =
  let rec size len = if len > i then len else size (2 * len) in
  let len = min c.c_n (size (max 8 (2 * Array.length c.c_locs))) in
  let locs = Array.make len c.c_unbuilt in
  Array.blit c.c_locs 0 locs 0 (Array.length c.c_locs);
  c.c_locs <- locs

let cell c i =
  if i < 0 || i >= c.c_n then
    invalid_arg
      (Printf.sprintf "Sched.cell: index %d is out of range (n = %d)" i c.c_n);
  if i >= Array.length c.c_locs then grow_cells c i;
  let l = c.c_locs.(i) in
  if l.line != dummy_line then l
  else begin
    let line =
      make_line (dstate ()) (c.c_base + i + 1) ~streaming:false ~site:c.c_site
    in
    let l = { v = c.c_unbuilt.v; line } in
    c.c_locs.(i) <- l;
    l
  end

(* Allocate on the same line as an existing location: C-struct field
   co-location (one node = one line). *)
let loc_with (other : 'b loc) v = { v; line = other.line }

(* Reset stale coherence state when a line created in an earlier run is
   touched again: it is cold in every cache. *)
let refresh (s : t) (line : line) =
  if line.epoch <> s.epoch then (
    line.epoch <- s.epoch;
    line.writer <- -1;
    line.sharers <- 0;
    line.exclusive <- false;
    line.busy_until <- 0;
    line.stalls <- 0)

(* ------------------------------------------------------------------ *)
(* Observability                                                       *)

(* Stamp a journal entry with the calling virtual thread's clock and id.
   This is the simulator's half of the probe contract: entries carry the
   time an event happened at, but emitting one never advances the clock,
   so traced and untraced runs are cycle-identical. Outside a run (create,
   prefill, unit tests) entries land at time 0 on thread 0. *)
let obs_emit kind =
  if Obs.Journal.recording () then
    match (dstate ()).d_thread with
    | Some th -> Obs.Journal.emit ~at:th.clock ~tid:th.t_id kind
    | None -> Obs.Journal.emit ~at:0 ~tid:0 kind

(* ------------------------------------------------------------------ *)
(* Fault checkpoints                                                   *)

(* The fault-injection layer (Fault) installs a handler here; it runs in
   the reporting thread's own context, so it may burn virtual time
   ([work]) or raise [Crashed]. The indirection keeps the scheduler free
   of injection policy while letting lock/backoff code report through a
   single entry point. *)
let set_fault_hook h = (dstate ()).d_hook <- h

let fault_point (p : Fp.fault_point) =
  let d = dstate () in
  match d.d_thread with
  | None -> ()
  | Some th ->
      (match p with
      | Fp.Critical_enter ->
          th.crit_depth <- th.crit_depth + 1;
          th.waiting <- false
      | Fp.Lock_wait -> th.waiting <- true
      | Fp.Restart -> th.restarts <- th.restarts + 1
      | Fp.Critical_exit | Fp.Before_cas | Fp.After_cas | Fp.Op_boundary ->
          ());
      (* Journal the checkpoint before the hook runs: a hook that crashes
         the thread still leaves the reached checkpoint in the trace. The
         recording test guards the [Point] block allocation itself: with
         tracing off a checkpoint costs one flag load, nothing more. *)
      if Obs.Journal.recording () then obs_emit (Obs.Journal.Point p);
      (match d.d_hook with None -> () | Some f -> f p);
      (* The depth decrement happens only after the hook ran: locks report
         [Critical_exit] before the releasing store, so a thread crashed at
         this checkpoint still holds the lock and must still count. *)
      (match p with
      | Fp.Critical_exit ->
          if th.crit_depth > 0 then th.crit_depth <- th.crit_depth - 1
      | _ -> ())

(* ------------------------------------------------------------------ *)
(* Scheduling windows (multiprogramming)                               *)

let window_ready th s t =
  if th.residents <= 1 then t
  else
    let q = s.quantum in
    let slot = t / q in
    let m = th.residents in
    if slot mod m = th.rank then t
    else
      let off = (th.rank - (slot mod m) + m) mod m in
      (slot + off) * q

let window_end_of th s t =
  if th.residents <= 1 then max_int else (((t / s.quantum) + 1) * s.quantum)

(* Resume [th] at virtual time [at], moved to the start of its next
   scheduling window. *)
let wake s th at =
  let ready = window_ready th s at in
  th.clock <- ready;
  th.window_end <- window_end_of th s ready

(* ------------------------------------------------------------------ *)
(* Cost model                                                          *)

let read_cost s th line =
  let me = th.ctx in
  let hit = if line.streaming || line == th.last_line then 1 else s.m_hit in
  if line.exclusive && line.writer = me then hit
  else if (not line.exclusive) && line.sharers land (1 lsl me) <> 0 then hit
  else
    let src = if line.writer >= 0 then line.writer else -1 in
    s.xfer.(((src + 1) * s.nctx) + me)

let apply_read th line =
  th.last_line <- line;
  let me = th.ctx in
  if line.exclusive && line.writer = me then ()
  else (
    (* Hot-line accounting: a read that misses (not a sharer, or the line
       is modified elsewhere) fetches the line — one coherence transfer. *)
    if
      Obs.Journal.recording ()
      && (line.exclusive || line.sharers land (1 lsl me) = 0)
    then Obs.Journal.on_transfer ~site:line.site line.id;
    (* A read of a modified line downgrades it to shared. *)
    if line.exclusive && line.writer >= 0 then
      line.sharers <- line.sharers lor (1 lsl line.writer);
    line.exclusive <- false;
    line.sharers <- line.sharers lor (1 lsl me))

let popcount n =
  let rec go n acc = if n = 0 then acc else go (n lsr 1) (acc + (n land 1)) in
  go n 0

let own_cost s th line ~rmw =
  let me = th.ctx in
  let base =
    if line.exclusive && line.writer = me then s.m_store
    else
      let transfer = s.xfer.(((line.writer + 1) * s.nctx) + me) in
      let others =
        let mask = line.sharers land lnot (1 lsl me) in
        popcount mask
      in
      transfer + (others * s.m_inv)
  in
  if rmw then base + s.m_rmw else base

let apply_own th line =
  th.last_line <- line;
  (* Hot-line accounting: taking ownership of a line we did not already
     own is a transfer; taking it from another writer is an owner bounce
     (the ping-pong pattern of contended locks and CAS words). *)
  (if Obs.Journal.recording () then
     let mine = line.exclusive && line.writer = th.ctx in
     if not mine then begin
       Obs.Journal.on_transfer ~site:line.site line.id;
       if line.writer >= 0 && line.writer <> th.ctx then
         Obs.Journal.on_bounce ~site:line.site line.id
     end);
  line.exclusive <- true;
  line.writer <- th.ctx;
  line.sharers <- 1 lsl th.ctx

(* ------------------------------------------------------------------ *)
(* Operation engine                                                    *)

let budget_msg = "simulation exceeded the inline-operation budget"

let[@inline] charge_budget s =
  s.inline_ops <- s.inline_ops + 1;
  if s.inline_ops > s.max_inline_ops then raise (Budget budget_msg)

(* Execute a line operation for thread [th]: wait for the line if needed,
   charge [cost]; the caller applies the semantic action afterwards.
   Split from the old closure-taking [exec_now] so the fast path runs
   with no [option]/tuple/closure traffic at all. *)
let exec_line s th (l : line) cost ~serialize =
  charge_budget s;
  let start =
    if l.busy_until > th.clock then begin
      if serialize then begin
        if l.stalls = 0 then s.hot_rev <- l :: s.hot_rev;
        l.stalls <- l.stalls + 1;
        if Obs.Journal.recording () then
          Obs.Journal.on_stall ~site:l.site l.id
      end;
      l.busy_until
    end
    else th.clock
  in
  let fin = start + cost in
  if serialize then l.busy_until <- fin;
  th.clock <- fin;
  if fin > s.end_time then s.end_time <- fin

(* Thread-private work: no line, never serializes. *)
let exec_work s th cost =
  charge_budget s;
  let fin = th.clock + cost in
  th.clock <- fin;
  if fin > s.end_time then s.end_time <- fin

(* The inline fast path: run the op without touching the scheduler iff it
   finishes before the earliest pending event and before the end of the
   thread's scheduling window.

   State-changing operations (stores, RMWs — [serialize = true]) are
   strict: they may only run inline while no other thread has a pending
   event that could interleave, so the global interleaving of writes is
   exactly what the event queue would have produced.

   Reads (and thread-private [work]) get {e bounded slack}: they may run
   up to [s.read_slack] cycles past the earliest pending event. A read
   applied early returns a value that is stale by at most the slack
   window — indistinguishable from ordinary cache latency — and never
   mutates shared state, so every execution remains a legal concurrent
   history. This is what lets traversal-heavy workloads (large linked
   lists) simulate at memory speed instead of one scheduler event per
   node. *)
let[@inline] can_inline_line s th (l : line) cost ~serialize =
  let start = if l.busy_until > th.clock then l.busy_until else th.clock in
  let fin = start + cost in
  fin <= th.window_end
  &&
  let bound = Eheap.min_time s.q in
  (* [bound] is [max_int] when the heap is empty: this thread is the
     only runnable one, so any interleaving question is moot — always
     inline. (Runaway pure-inline spins are caught by the inline-op
     budget in [charge_budget].) *)
  bound = max_int
  || if serialize then fin < bound else fin <= bound + s.read_slack

let[@inline] can_inline_work s th cost =
  let fin = th.clock + cost in
  fin <= th.window_end
  &&
  let bound = Eheap.min_time s.q in
  bound = max_int || fin <= bound + s.read_slack

(* ------------------------------------------------------------------ *)
(* Public memory operations                                            *)

(* One shared access by [th], in four steps: refresh the line, price it,
   execute it inline when the fast path admits it or else suspend until
   the scheduler pops the thread's event (which re-prices the access
   against the line state of that moment before executing it), then
   apply the coherence transition. The caller bumps its counter and runs
   its semantic action after [access] returns: on the slow path that is
   still inside the popped event, before any other thread runs. The
   [Suspend] closure is built only on the slow path, which allocates a
   heap event and a continuation anyway; the inline path allocates
   nothing. *)
type access = Read | Store | Rmw

let[@inline] price s th line = function
  | Read -> read_cost s th line
  | Store -> own_cost s th line ~rmw:false
  | Rmw -> own_cost s th line ~rmw:true

let access s th line kind =
  refresh s line;
  let serialize = match kind with Read -> false | Store | Rmw -> true in
  let cost = price s th line kind in
  if can_inline_line s th line cost ~serialize then
    exec_line s th line cost ~serialize
  else
    Effect.perform
      (Suspend
         ( th.clock,
           fun () -> exec_line s th line (price s th line kind) ~serialize ));
  match kind with Read -> apply_read th line | Store | Rmw -> apply_own th line

let[@inline] sched d = match d.d_sched with Some s -> s | None -> assert false

let read (l : 'a loc) : 'a =
  let d = dstate () in
  (match d.d_thread with
  | None -> ()
  | Some th ->
      let s = sched d in
      s.n_reads <- s.n_reads + 1;
      access s th l.line Read);
  l.v

let write (l : 'a loc) (v : 'a) : unit =
  let d = dstate () in
  (match d.d_thread with
  | None -> ()
  | Some th ->
      let s = sched d in
      s.n_writes <- s.n_writes + 1;
      access s th l.line Store);
  l.v <- v

(* Unlike the other operations, a CAS inside a run also reports its
   checkpoints and accounts a failure, so its two paths stay apart. *)
let cas (l : 'a loc) (expected : 'a) (desired : 'a) : bool =
  let d = dstate () in
  match d.d_thread with
  | None ->
      if l.v == expected then (
        l.v <- desired;
        true)
      else false
  | Some th ->
      let s = sched d in
      fault_point Fp.Before_cas;
      s.n_cas <- s.n_cas + 1;
      access s th l.line Rmw;
      let ok = l.v == expected in
      if ok then l.v <- desired
      else begin
        s.n_cas_failed <- s.n_cas_failed + 1;
        if Obs.Journal.recording () then
          Obs.Journal.on_cas_fail ~site:l.line.site l.line.id
      end;
      fault_point Fp.After_cas;
      ok

let faa (l : int loc) (n : int) : int =
  let d = dstate () in
  (match d.d_thread with
  | None -> ()
  | Some th ->
      let s = sched d in
      s.n_faa <- s.n_faa + 1;
      access s th l.line Rmw);
  let old = l.v in
  l.v <- old + n;
  old

let exchange (l : 'a loc) (v : 'a) : 'a =
  let d = dstate () in
  (match d.d_thread with
  | None -> ()
  | Some th ->
      let s = sched d in
      s.n_cas <- s.n_cas + 1;
      access s th l.line Rmw);
  let old = l.v in
  l.v <- v;
  old

let work (n : int) : unit =
  if n > 0 then
    let d = dstate () in
    match d.d_thread with
    | None -> ()
    | Some th ->
        let s = sched d in
        if can_inline_work s th n then exec_work s th n
        else Effect.perform (Suspend (th.clock, fun () -> exec_work s th n))

let pause_cost = 8

let pause () = work pause_cost
let pause_n n = work (pause_cost * n)

(* Yield gives up the rest of the scheduling window (when oversubscribed)
   or acts as a pause (when not): the thread sleeps until its next
   window after the current quantum. *)
let yield () =
  let d = dstate () in
  match d.d_thread with
  | None -> ()
  | Some th ->
      if th.residents <= 1 then pause ()
      else
        let s = sched d in
        let q = s.quantum in
        Effect.perform
          (Suspend
             ( window_ready th s (((th.clock / q) + 1) * q),
               fun () -> if th.clock > s.end_time then s.end_time <- th.clock
             ))

(* ------------------------------------------------------------------ *)
(* Run-control helpers exposed to harness code                         *)

let now () =
  match (dstate ()).d_thread with None -> 0 | Some th -> th.clock

let stop_requested () =
  match (dstate ()).d_sched with None -> false | Some s -> s.stop

let tick () =
  let d = dstate () in
  match d.d_sched with
  | None -> ()
  | Some s ->
      s.ops <- s.ops + 1;
      if s.ops_target > 0 && s.ops >= s.ops_target then s.stop <- true;
      (match d.d_thread with
      | None -> ()
      | Some th ->
          th.ops_done <- th.ops_done + 1;
          th.last_op_clock <- th.clock;
          th.restarts <- 0;
          th.waiting <- false;
          th.crit_depth <- 0;
          fault_point Fp.Op_boundary)

let tid () = match (dstate ()).d_thread with None -> 0 | Some th -> th.t_id

(* Noise width in bits: 62 = full amplitude (the default), 0 = off.
   Intermediate widths coarsen the jitter — consumers compute
   [noise () mod span], so few-bit noise repeats over short spans and
   weakens the decorrelation, which is exactly the degraded-timing regime
   the chaos engine fuzzes. *)
let set_noise_bits n =
  if n < 0 || n > 62 then invalid_arg "Sched.set_noise_bits: want 0..62";
  (dstate ()).d_noise <- n

let noise_bits () = (dstate ()).d_noise

(* Deterministic timing noise: a pure hash of (thread id, virtual clock).
   Identical schedules yield identical noise, preserving run-to-run
   reproducibility, while co-scheduled threads see decorrelated values. *)
let noise () =
  let d = dstate () in
  match d.d_thread with
  | None -> 0
  | Some _ when d.d_noise = 0 -> 0
  | Some th ->
      let x = (th.clock * 0x9E3779B1) lxor ((th.t_id + 1) * 0x85EBCA77) in
      let x = x lxor (x lsr 13) in
      let x = (x * 0xC2B2AE35) land max_int in
      (x lxor (x lsr 16)) land ((1 lsl d.d_noise) - 1)

let nthreads () =
  match (dstate ()).d_sched with
  | None -> 1
  | Some s -> Array.length s.threads

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)

type stats = {
  wall_cycles : int;
  ops : int;
  reads : int;
  writes : int;
  cas : int;
  cas_failed : int;
  faa : int;
  events : int;
}

(* Throughput in million operations per second at the topology's clock. *)
let mops topo (st : stats) =
  if st.wall_cycles = 0 then 0.
  else
    let seconds = float_of_int st.wall_cycles /. (topo.Topology.ghz *. 1e9) in
    float_of_int st.ops /. seconds /. 1e6

let stats_of s =
  {
    wall_cycles = s.end_time;
    ops = s.ops;
    reads = s.n_reads;
    writes = s.n_writes;
    cas = s.n_cas;
    cas_failed = s.n_cas_failed;
    faa = s.n_faa;
    events = s.events;
  }

let ops_so_far () =
  match (dstate ()).d_sched with None -> 0 | Some s -> s.ops

(* ------------------------------------------------------------------ *)
(* Liveness watchdog                                                   *)

type verdict =
  | Progress  (** every unfinished thread completed an op recently *)
  | Starved of int list
      (** the listed threads are stuck while others progress, or threads
          are queued behind a lock whose holder crashed *)
  | Livelocked
      (** every surviving thread is stuck and no dead holder explains it:
          they are burning cycles without completing operations *)

type thread_progress = {
  tp_tid : int;
  tp_ops : int;  (** operations completed *)
  tp_clock : int;  (** the thread's virtual clock *)
  tp_last_op_clock : int;  (** clock at its last completed op *)
  tp_restarts : int;  (** backoff episodes since last completed op *)
  tp_crit_depth : int;  (** locks held since last completed op *)
  tp_waiting : bool;  (** probed a held lock since last completed op *)
  tp_crashed : bool;
  tp_finished : bool;
}

type report = {
  r_verdict : verdict;
  r_reason : string;  (** which check aborted the run *)
  r_stats : stats;  (** partial statistics at abort time *)
  r_threads : thread_progress list;
  r_dead_holders : int list;
      (** crashed threads that still hold at least one lock *)
  r_waiters : int list;  (** alive threads last seen probing a held lock *)
  r_hot_lines : (int * int) list;
      (** (line id, serialized ops that stalled on it), most contended
          first, capped at eight lines *)
}

(* The one way a run aborts: a budget was exhausted (the verdict says
   whether threads were still progressing) or the periodic watchdog ruled
   the run starved or livelocked. *)
exception Aborted of report

(* Classification runs on the periodic watchdog path (every
   [check_events] scheduler events when enabled), so the Progress case —
   the overwhelmingly common one — is a single counting pass over the
   thread array with no list allocation at all. The starved-tid list is
   only materialized on the abort path. *)
let classify s =
  let n = Array.length s.threads in
  let alive = ref 0 and starved = ref 0 and dead_holders = ref 0 in
  for i = 0 to n - 1 do
    let th = s.threads.(i) in
    if not th.finished then begin
      incr alive;
      if s.end_time - th.last_op_clock > s.wd.starve_cycles then incr starved
    end;
    if th.crashed && th.crit_depth > 0 then incr dead_holders
  done;
  if !starved = 0 then Progress
  else if !dead_holders > 0 || !starved < !alive then begin
    let tids = ref [] in
    for i = n - 1 downto 0 do
      let th = s.threads.(i) in
      if
        (not th.finished)
        && s.end_time - th.last_op_clock > s.wd.starve_cycles
      then tids := th.t_id :: !tids
    done;
    Starved !tids
  end
  else Livelocked

let build_report s verdict reason =
  (* One reverse pass over the thread array builds all three lists in
     ascending-tid order, instead of the old 5 [Array.to_list]/
     [List.filter] traversals. *)
  let threads = ref [] and dead = ref [] and waiters = ref [] in
  for i = Array.length s.threads - 1 downto 0 do
    let th = s.threads.(i) in
    threads :=
      {
        tp_tid = th.t_id;
        tp_ops = th.ops_done;
        tp_clock = th.clock;
        tp_last_op_clock = th.last_op_clock;
        tp_restarts = th.restarts;
        tp_crit_depth = th.crit_depth;
        tp_waiting = th.waiting;
        tp_crashed = th.crashed;
        tp_finished = th.finished && not th.crashed;
      }
      :: !threads;
    if th.crashed && th.crit_depth > 0 then dead := th.t_id :: !dead;
    if (not th.finished) && th.waiting then waiters := th.t_id :: !waiters
  done;
  let hot =
    (* The per-line [stalls] counters are folded through a scratch table
       whose keys are inserted in first-stall order — the same insertion
       sequence the retired per-access Hashtbl saw — so the fold order,
       and with it the tie ordering of equal stall counts under the
       stable sort below, is byte-identical to the historical report. *)
    let scratch = Hashtbl.create 64 in
    List.iter
      (fun l -> Hashtbl.replace scratch l.id l.stalls)
      (List.rev s.hot_rev);
    Hashtbl.fold (fun id n acc -> (id, n) :: acc) scratch []
    |> List.sort (fun (_, a) (_, b) -> compare b a)
    |> List.filteri (fun i _ -> i < 8)
  in
  {
    r_verdict = verdict;
    r_reason = reason;
    r_stats = stats_of s;
    r_threads = !threads;
    r_dead_holders = !dead;
    r_waiters = !waiters;
    r_hot_lines = hot;
  }

let pp_verdict ppf = function
  | Progress -> Format.pp_print_string ppf "progress"
  | Starved tids ->
      Format.fprintf ppf "starved[%s]"
        (String.concat "," (List.map string_of_int tids))
  | Livelocked -> Format.pp_print_string ppf "livelocked"

let pp_report ppf r =
  let ids l = String.concat "," (List.map string_of_int l) in
  Format.fprintf ppf "verdict: %a (%s)@\n" pp_verdict r.r_verdict r.r_reason;
  Format.fprintf ppf "partial stats: ops=%d events=%d wall=%d cycles@\n"
    r.r_stats.ops r.r_stats.events r.r_stats.wall_cycles;
  if r.r_dead_holders <> [] then
    Format.fprintf ppf "dead lock holders: t[%s]@\n" (ids r.r_dead_holders);
  if r.r_waiters <> [] then
    Format.fprintf ppf "queued waiters: t[%s]@\n" (ids r.r_waiters);
  if r.r_hot_lines <> [] then
    Format.fprintf ppf "hot lines: %s@\n"
      (String.concat " "
         (List.map
            (fun (id, n) -> Printf.sprintf "line%d(%d stalls)" id n)
            r.r_hot_lines));
  List.iter
    (fun tp ->
      Format.fprintf ppf
        "  t%d: ops=%d last-op@%d clock=%d restarts=%d crit-depth=%d%s%s%s@\n"
        tp.tp_tid tp.tp_ops tp.tp_last_op_clock tp.tp_clock tp.tp_restarts
        tp.tp_crit_depth
        (if tp.tp_waiting then " waiting" else "")
        (if tp.tp_crashed then " CRASHED" else "")
        (if tp.tp_finished then " done" else ""))
    r.r_threads

(* Classify the aborting run and build its report. *)
let abort_exn s reason = Aborted (build_report s (classify s) reason)

(* ------------------------------------------------------------------ *)
(* World reset                                                         *)

(* Restore this domain's simulator world to process-pristine state:
   counters to zero, hook and noise back to defaults, oversized heap
   arrays compacted. The arena and the heap's (compacted) backing arrays
   are retained — they are invisible to output. Locations created before
   the reset must not be used after it: their line ids would collide
   with newly allocated ones. *)
let reset_world () =
  let d = dstate () in
  if d.d_sched <> None then
    invalid_arg "Sched.reset_world: cannot reset inside a run";
  d.d_thread <- None;
  d.d_epoch <- 0;
  d.d_lines <- 0;
  d.d_hook <- None;
  d.d_noise <- 62;
  Eheap.clear d.d_heap;
  Eheap.compact d.d_heap

(* ------------------------------------------------------------------ *)
(* The run loop                                                        *)

let default_quantum = 1_000_000
let default_max_events = 400_000_000
let default_read_slack = 1_000
let default_max_inline_ops = 40_000_000_000

(* Grow the thread arena to hold [n] records. Records are created once
   and reset in [run]; slot [i]'s [t_id] is [i] forever, and [self] is
   tied here so dispatching never allocates an option. *)
let ensure_arena d n =
  let len = Array.length d.d_arena in
  if n > len then begin
    let arena =
      Array.init n (fun i ->
          if i < len then d.d_arena.(i)
          else begin
            let th =
              {
                t_id = i;
                ctx = 0;
                rank = 0;
                residents = 0;
                clock = 0;
                window_end = 0;
                finished = false;
                last_line = dummy_line;
                ops_done = 0;
                last_op_clock = 0;
                restarts = 0;
                crit_depth = 0;
                waiting = false;
                crashed = false;
                self = None;
              }
            in
            th.self <- Some th;
            th
          end)
    in
    d.d_arena <- arena
  end

let run ?(quantum = default_quantum) ?(ops_target = 0)
    ?(max_events = default_max_events) ?(read_slack = default_read_slack)
    ?(max_inline_ops = default_max_inline_ops) ?(watchdog = default_watchdog)
    ~topology ~nthreads:n body =
  if n <= 0 then invalid_arg "Sched.run: nthreads must be positive";
  let d = dstate () in
  if quantum < 1 then
    invalid_arg
      (Printf.sprintf "Sched.run: quantum must be positive (got %d)" quantum);
  if d.d_sched <> None then invalid_arg "Sched.run: nested simulations";
  d.d_epoch <- d.d_epoch + 1;
  let nctx = Topology.n_contexts topology in
  ensure_arena d n;
  let threads = Array.sub d.d_arena 0 n in
  let per_ctx = Array.make nctx 0 in
  (* Reset each arena record for this run. The loop runs 0..n-1 so the
     per-thread [new_line] calls happen in ascending t_id order — the
     same line-id sequence the old per-run [Array.init] produced, which
     the pin ledger depends on. *)
  for i = 0 to n - 1 do
    let th = threads.(i) in
    let ctx = i mod nctx in
    let rank = per_ctx.(ctx) in
    per_ctx.(ctx) <- rank + 1;
    th.ctx <- ctx;
    th.rank <- rank;
    th.residents <- 0 (* patched below *);
    th.clock <- 0;
    th.window_end <- 0;
    th.finished <- false;
    th.last_line <- new_line d ~streaming:false;
    th.ops_done <- 0;
    th.last_op_clock <- 0;
    th.restarts <- 0;
    th.crit_depth <- 0;
    th.waiting <- false;
    th.crashed <- false
  done;
  Array.iter
    (fun th ->
      th.residents <- per_ctx.(th.ctx);
      th.window_end <- max_int)
    threads;
  (* Memoize the full transfer matrix: the hot path replaces every
     [Topology.transfer] call (context-record chasing and branch ladder)
     with one flat array load. Row 0 is [src = -1], the cold miss. *)
  let xfer = Array.make ((nctx + 1) * nctx) 0 in
  for src = -1 to nctx - 1 do
    for dst = 0 to nctx - 1 do
      xfer.(((src + 1) * nctx) + dst) <- Topology.transfer topology ~src ~dst
    done
  done;
  (* Reuse the domain's event heap: clearing resets the sequence counter,
     so a reused heap pops in exactly the order a fresh one would, and
     presizing absorbs the one-event-per-thread start burst without
     doubling mid-push. *)
  Eheap.clear d.d_heap;
  Eheap.ensure_capacity d.d_heap (n + 64);
  let s =
    {
      topo = topology;
      quantum;
      epoch = d.d_epoch;
      threads;
      q = d.d_heap;
      live = n;
      stop = false;
      max_events;
      events = 0;
      ops = 0;
      ops_target;
      n_reads = 0;
      n_writes = 0;
      n_cas = 0;
      n_cas_failed = 0;
      n_faa = 0;
      end_time = 0;
      read_slack;
      max_inline_ops;
      inline_ops = 0;
      wd = watchdog;
      hot_rev = [];
      nctx;
      xfer;
      m_hit = topology.Topology.c_hit;
      m_store = topology.Topology.c_store;
      m_rmw = topology.Topology.c_rmw;
      m_inv = topology.Topology.c_inv_per_sharer;
    }
  in
  let start_thread th =
    Effect.Deep.match_with
      (fun () -> body th.t_id)
      ()
      {
        retc =
          (fun () ->
            if Obs.Journal.recording () then
              obs_emit (Obs.Journal.Instant (Thread_finish, None));
            th.finished <- true;
            s.live <- s.live - 1);
        exnc =
          (fun e ->
            match e with
            | Crashed ->
                (* Killed by fault injection: the thread is gone but the
                   simulation is not. Shared state is left exactly as the
                   thread last wrote it — held locks stay held. The death
                   is journaled at the thread's clock so trace exporters
                   and analyzers close its open spans and in-flight
                   request at the right timestamp instead of carrying
                   them to end of trace; recording-gated, so untraced
                   (and crash-free) runs emit nothing. *)
                if Obs.Journal.recording () then
                  obs_emit (Obs.Journal.Instant (Thread_crash, None));
                th.crashed <- true;
                th.finished <- true;
                s.live <- s.live - 1
            | e -> raise e);
        effc =
          (fun (type a) (e : a Effect.t) ->
            match e with
            | Suspend (at, resume) ->
                Some
                  (fun (k : (a, unit) Effect.Deep.continuation) ->
                    Eheap.push s.q at
                      (dispatching d th (fun () ->
                           wake s th at;
                           resume ();
                           Effect.Deep.continue k ())))
            | _ -> None);
      }
  in
  let finalize () =
    d.d_sched <- None;
    d.d_thread <- None;
    (* Abandoned events (a run that stopped with work still queued) must
       not leak into the next run that reuses this heap. *)
    Eheap.clear d.d_heap
  in
  (* Everything from installing the run on the domain on is protected:
     whatever escapes, [finalize] leaves the domain free for the next run. *)
  (try
     d.d_sched <- Some s;
     (* Seed the heap with thread starts, staggered by their first window. *)
     Array.iter
       (fun th ->
         Eheap.push s.q (window_ready th s 0)
           (dispatching d th (fun () ->
                wake s th 0;
                start_thread th)))
       threads;
     while s.live > 0 && not (Eheap.is_empty s.q) do
       let action = Eheap.pop_payload s.q in
       s.events <- s.events + 1;
       if s.events > s.max_events then (
         let b = Buffer.create 256 in
         Printf.bprintf b "ops=%d " s.ops;
         Array.iteri
           (fun i th ->
             if i > 0 then Buffer.add_char b ' ';
             Printf.bprintf b "t%d@%d%s" th.t_id th.clock
               (if th.finished then "(done)" else ""))
           s.threads;
         raise
           (abort_exn s
              (Printf.sprintf "simulation exceeded %d events; threads: %s"
                 s.max_events (Buffer.contents b))));
       (* Periodic liveness check (opt-in): classify long before the event
          budget burns. Skipped while the run is winding down — once the
          ops target is hit, lagging threads are exiting, not starving. *)
       if
         s.wd.check_events > 0
         && (not s.stop)
         && s.events mod s.wd.check_events = 0
       then (
         match classify s with
         | Progress -> ()
         | v -> raise (Aborted (build_report s v "liveness watchdog")));
       action ()
     done
   with
   | Budget reason ->
       finalize ();
       raise (abort_exn s reason)
   | e ->
       finalize ();
       raise e);
  finalize ();
  if s.live > 0 then
    raise (abort_exn s "simulation ended with runnable threads (deadlock?)");
  stats_of s
