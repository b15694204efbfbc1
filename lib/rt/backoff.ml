(** Exponential backoff, shared by every data structure in the library.

    The paper's methodology (§5) stresses that backoff schemes materially
    affect results, so all algorithms — OPTIK and baselines alike — use the
    exact same policy: exponentially increasing waits of [cur / 32]
    pauses, [cur] doubling up to [default_max] = 16384, so a wait is
    capped at 512 pauses (4096 cycles on the simulator, 8 cycles a pause)
    plus up to 513 more pauses of jitter. [Txn.Make.snapshot] paces its
    retries with it too, from the second retry on. *)

module Make (Rt : Rt_intf.RT) = struct
  (* Every wait carries timing jitter of up to ~50%, drawn from
     [Rt.noise] (on the simulator: a pure function of thread id and
     virtual clock, so runs stay bit-reproducible). On real hardware
     timing noise exists for free; in a deterministic simulation, jitter
     is what prevents contending threads from phase-locking into perfect
     starvation patterns (multiple waiters probing in lockstep so that
     one of them loses every single handoff, forever — observed on the
     Herlihy skip list's hot-pred locks before this was added). *)

  let jitter span = if span <= 1 then 0 else Rt.noise () mod span

  type t = { mutable cur : int; max : int }

  let default_max = 16_384
  let initial = 32

  let create ?(max = default_max) () = { cur = initial; max }

  let reset t = t.cur <- initial

  (* One backoff episode: pause for the current budget (plus jitter),
     then double it, saturating at [t.max]. *)
  let once t =
    (* [once] is the canonical "my optimistic attempt failed, retrying"
       signal, so it doubles as the watchdog's restart counter and as a
       fault-injection point. *)
    Rt.on_fault Rt_intf.Restart;
    let base = t.cur / 32 in
    Rt.pause_n (base + jitter (base + 2));
    let next = t.cur * 2 in
    t.cur <- (if next > t.max then t.max else next)

  (** Escalating pause for spin-wait loops ("wait until a flag changes"):
      starts at a single pause and doubles up to [max_pauses] pauses per
      probe. Keeps the uncontended path fast while bounding how often a
      long waiter re-probes — important on real hardware (coherence
      traffic) and essential for the discrete-event simulator (event
      count). *)
  type spin = { mutable sp : int; sp_max : int }

  let spin ?(max_pauses = 64) () = { sp = 1; sp_max = max_pauses }

  let spin_once s =
    Rt.pause_n (s.sp + jitter ((s.sp / 2) + 1));
    let n = s.sp * 2 in
    s.sp <- (if n > s.sp_max then s.sp_max else n)
end
