(** A transparent {!Rt.Rt_intf.RT} over {!Sim.Sim_rt} that splits each
    set operation's virtual cycles by OPTIK phase, from outside the
    structures.

    The lens forwards every call to [Sim.Sim_rt] unchanged and only
    watches two entry points the structures already call:
    - [on_fault]: the [Lock_wait], [Critical_enter], [Critical_exit] and
      [Restart] checkpoints the OPTIK lock, the classic locks and
      {!Rt.Backoff} report;
    - [pause_n]: the pause that follows a lock-wait probe or a restart.

    Each is stamped with {!Sim.Sched.now}, which reads the calling
    thread's clock without advancing it, so a lens run is cycle-identical
    to a plain run. Between [op_begin] and [op_end] the cycles of the
    calling virtual thread go to exactly one of four phases:
    - [lock_wait]: inside a pause that follows a [Lock_wait] probe (also
      when the probe's backoff reports [Restart], as in
      [Optik.lock_backoff]);
    - [restart]: inside a pause that follows a [Restart] checkpoint, that
      is, the backoff of a failed optimistic attempt;
    - [critical]: any other cycle while the thread holds a lock;
    - [traverse]: any other cycle, the optimistic unsynchronized part. *)

type split = {
  mutable traverse : int;
  mutable lock_wait : int;
  mutable critical : int;
  mutable restart : int;
  mutable restarts : int;  (** [Restart] checkpoints *)
  mutable acquires : int;  (** [Critical_enter] checkpoints *)
}

type pending = No_pause | Wait | Backoff

type thread = {
  op : split;
  mutable last : int;  (** clock at the last stamp *)
  mutable depth : int;  (** locks held *)
  mutable pending : pending;  (** what the next pause waits for *)
}

let zero () =
  { traverse = 0; lock_wait = 0; critical = 0; restart = 0; restarts = 0; acquires = 0 }

(* One record per virtual thread of the armed run. The simulator runs
   every virtual thread on the calling OS thread, so plain mutable state
   indexed by [Sched.tid] is safe. Empty when disarmed: the wrapped
   operations then only forward. *)
let threads : thread array ref = ref [||]

let arm ~nthreads =
  threads :=
    Array.init nthreads (fun _ ->
        { op = zero (); last = 0; depth = 0; pending = No_pause })

let disarm () = threads := [||]

(* Charge the cycles since the last stamp to the thread's base phase. *)
let charge th now =
  let d = now - th.last in
  if th.depth > 0 then th.op.critical <- th.op.critical + d
  else th.op.traverse <- th.op.traverse + d;
  th.last <- now

let current () =
  let ts = !threads in
  let tid = Sim.Sched.tid () in
  if tid < Array.length ts then Some ts.(tid) else None

(** Start attributing the calling thread's cycles to a fresh operation. *)
let op_begin () =
  match current () with
  | None -> ()
  | Some th ->
      let o = th.op in
      o.traverse <- 0;
      o.lock_wait <- 0;
      o.critical <- 0;
      o.restart <- 0;
      o.restarts <- 0;
      o.acquires <- 0;
      th.last <- Sim.Sched.now ();
      th.depth <- 0;
      th.pending <- No_pause

(** Close the calling thread's operation and return its split. The record
    is reused by the next [op_begin]: read it before then. *)
let op_end () =
  match current () with
  | None -> zero ()
  | Some th ->
      charge th (Sim.Sched.now ());
      th.op

let note (p : Rt.Rt_intf.fault_point) =
  match current () with
  | None -> ()
  | Some th -> (
      match p with
      | Lock_wait ->
          charge th (Sim.Sched.now ());
          th.pending <- Wait
      | Restart ->
          charge th (Sim.Sched.now ());
          th.op.restarts <- th.op.restarts + 1;
          if th.pending <> Wait then th.pending <- Backoff
      | Critical_enter ->
          charge th (Sim.Sched.now ());
          th.op.acquires <- th.op.acquires + 1;
          th.depth <- th.depth + 1;
          th.pending <- No_pause
      | Critical_exit ->
          charge th (Sim.Sched.now ());
          if th.depth > 0 then th.depth <- th.depth - 1
      | Before_cas | After_cas | Op_boundary -> ())

let timed_pause n =
  match current () with
  | None -> Sim.Sim_rt.pause_n n
  | Some th -> (
      charge th (Sim.Sched.now ());
      Sim.Sim_rt.pause_n n;
      let now = Sim.Sched.now () in
      let d = now - th.last in
      match th.pending with
      | No_pause -> ()
      | Wait ->
          th.op.lock_wait <- th.op.lock_wait + d;
          th.last <- now;
          th.pending <- No_pause
      | Backoff ->
          th.op.restart <- th.op.restart + d;
          th.last <- now;
          th.pending <- No_pause)

(* [skew] is the negative control of the exactness gate: with it set,
   every checkpoint burns one extra virtual cycle, so lens runs stop
   reproducing plain runs and the benchmark must refuse to report. *)
let skew = ref false

module Rt : Rt.Rt_intf.RT = struct
  include Sim.Sim_rt

  let on_fault p =
    note p;
    if !skew && Array.length !threads > 0 then Sim.Sched.work 1;
    Sim.Sim_rt.on_fault p

  let pause_n = timed_pause
end

(** Every registry structure, built over the lens. *)
module Registry = Harness.Registry.ForRt (Rt)
