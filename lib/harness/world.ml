(** The calling domain's simulator world, reset as one.

    Every piece of mutable simulator state is domain-local: the scheduler
    (line counter, fault hook, noise, event heap), the fault engine, the
    observability journal, the probe cells, and the id sources runs
    allocate from (lock handles, skip-list level generators,
    elimination-stack slot counters). {!reset} restores
    all of it to process-pristine state, so whatever runs next behaves
    exactly as it would first thing in a fresh process — independent of
    which domain runs it and of what ran there before.

    Order-independent entry points call it first thing: [Kv.run],
    [Txn.Workload.run], {!Soak.run}, every chaos trial and every figure
    grid cell. Structures created before a reset must not be used after
    it. *)

let reset () =
  Sim.Sched.reset_world ();
  Sim.Fault.reset_world ();
  Obs.Journal.reset_world ();
  Sim.Sim_rt.Probe.reset_world ();
  Locks.Handle.reset_ids ();
  Dstruct.Sl_common.reset_states ();
  Dstruct.Stacks.reset_slot_seq ()
