(* Tests for the OPTIK lock abstraction — both the versioned and the
   ticket implementations, against the semantics of §3.2 of the paper. *)

module SimRt = Sim.Sim_rt
module Nat = Rt.Native_rt

let uniform4 = Sim.Topology.uniform ~n:4 ()

(* Run every semantic test against both implementations. *)
module Semantics (O : Optik.OPTIK) = struct
  let test_initial_unlocked () =
    let l = O.create () in
    let v = O.get_version l in
    Alcotest.(check bool) "fresh lock unlocked" false (O.is_locked v)

  let test_trylock_version_basics () =
    let l = O.create () in
    let v = O.get_version l in
    Alcotest.(check bool) "acquire on current version" true
      (O.trylock_version l v);
    Alcotest.(check bool) "now locked" true (O.is_locked (O.get_version l));
    Alcotest.(check bool) "re-acquire while locked fails" false
      (O.trylock_version l (O.get_version l));
    O.unlock l;
    Alcotest.(check bool) "unlocked after unlock" false
      (O.is_locked (O.get_version l));
    Alcotest.(check bool) "version advanced: stale trylock fails" false
      (O.trylock_version l v)

  let test_unlock_advances_version () =
    let l = O.create () in
    let v0 = O.get_version l in
    assert (O.trylock_version l v0);
    O.unlock l;
    let v1 = O.get_version l in
    Alcotest.(check bool) "version changed" false (O.same_version v0 v1)

  let test_revert_restores_version () =
    let l = O.create () in
    let v0 = O.get_version l in
    assert (O.trylock_version l v0);
    O.revert l;
    let v1 = O.get_version l in
    Alcotest.(check bool) "version preserved by revert" true
      (O.same_version v0 v1);
    Alcotest.(check bool) "and lock is free" false (O.is_locked v1);
    (* a reverted lock validates again against the old version *)
    Alcotest.(check bool) "old version still valid" true
      (O.trylock_version l v0);
    O.unlock l

  let test_lock_version_reports_change () =
    let l = O.create () in
    let v0 = O.get_version l in
    Alcotest.(check bool) "unchanged" true (O.lock_version l v0);
    O.unlock l;
    Alcotest.(check bool) "changed" false (O.lock_version l v0);
    O.unlock l

  let test_get_version_wait () =
    let l = O.create () in
    let v = O.get_version_wait l in
    Alcotest.(check bool) "returns free version" false (O.is_locked v)

  let test_locked_version_never_validates () =
    let l = O.create () in
    let v0 = O.get_version l in
    assert (O.trylock_version l v0);
    let locked_v = O.get_version l in
    Alcotest.(check bool) "locked snapshot is locked" true
      (O.is_locked locked_v);
    Alcotest.(check bool) "trylock with locked target fails" false
      (O.trylock_version l locked_v);
    O.unlock l

  let test_plain_lock_interface () =
    let l = O.create () in
    O.lock l;
    Alcotest.(check bool) "locked" true (O.is_locked (O.get_version l));
    O.unlock l;
    O.lock_backoff l;
    Alcotest.(check bool) "locked via backoff" true
      (O.is_locked (O.get_version l));
    O.unlock l

  let cases =
    [
      Alcotest.test_case "fresh unlocked" `Quick test_initial_unlocked;
      Alcotest.test_case "trylock_version" `Quick test_trylock_version_basics;
      Alcotest.test_case "unlock advances" `Quick test_unlock_advances_version;
      Alcotest.test_case "revert restores" `Quick test_revert_restores_version;
      Alcotest.test_case "lock_version reports" `Quick
        test_lock_version_reports_change;
      Alcotest.test_case "get_version_wait" `Quick test_get_version_wait;
      Alcotest.test_case "locked target never validates" `Quick
        test_locked_version_never_validates;
      Alcotest.test_case "classic interface" `Quick test_plain_lock_interface;
    ]
end

module VSem = Semantics (Optik.Versioned (Nat))
module TSem = Semantics (Optik.Ticket (Nat))

(* ------------------------------------------------------------------ *)
(* Ticket-specific behaviour                                           *)

module OT = Optik.Ticket (Nat)

let test_ticket_num_queued () =
  let l = OT.create () in
  Alcotest.(check int) "free" 0 (OT.num_queued l);
  OT.lock l;
  Alcotest.(check int) "held, no waiters" 0 (OT.num_queued l);
  OT.unlock l

let test_ticket_revert_with_waiter_falls_back () =
  (* With a queued waiter the ticket lock cannot keep the version on
     revert; it must degrade to a normal (version-advancing) release so
     the waiter can proceed. Simulated with two sim threads. *)
  let module SOT = Optik.Ticket (SimRt) in
  let l = SOT.create () in
  let got_lock = Sim.Sched.loc 0 in
  ignore
    (Sim.Sched.run ~topology:uniform4 ~nthreads:2 (fun tid ->
         if tid = 0 then (
           SOT.lock l;
           Sim.Sched.work 5_000;
           (* waiter queued by now *)
           SOT.revert l)
         else (
           Sim.Sched.work 100;
           SOT.lock l;
           ignore (Sim.Sched.faa got_lock 1 : int);
           SOT.unlock l)));
  Alcotest.(check int) "waiter eventually served" 1 (Sim.Sched.read got_lock)

(* Mutual exclusion through the blocking [lock]/[unlock] pair: a plain
   (non-atomic) cell incremented under the lock loses updates unless the
   ticket handoff excludes every other holder. *)
let test_ticket_mutex_sim () =
  let module SOT = Optik.Ticket (SimRt) in
  let l = SOT.create () in
  let cell = Sim.Sched.loc 0 in
  ignore
    (Sim.Sched.run ~topology:uniform4 ~nthreads:6 (fun _ ->
         for _ = 1 to 300 do
           SOT.lock l;
           let v = Sim.Sched.read cell in
           Sim.Sched.work 5;
           Sim.Sched.write cell (v + 1);
           SOT.unlock l
         done));
  Alcotest.(check int) "no lost updates" 1800 (Sim.Sched.read cell)

(* Waiters behind a holder see a positive [num_queued], the quantity the
   victim queue's threshold reads. *)
let test_ticket_queue_depth_sim () =
  let module SOT = Optik.Ticket (SimRt) in
  let l = SOT.create () in
  let max_seen = ref 0 in
  ignore
    (Sim.Sched.run ~topology:uniform4 ~nthreads:4 (fun _ ->
         for _ = 1 to 50 do
           let q = SOT.num_queued l in
           if q > !max_seen then max_seen := q;
           SOT.lock l;
           Sim.Sched.work 200;
           SOT.unlock l
         done));
  Alcotest.(check bool) "waiters observed" true (!max_seen > 0)

(* Both halves share one packed word, so the release must be an atomic
   increment: a read-modify-write release would lose a concurrent ticket
   grab, letting two threads hold the lock at once and leaving later
   tickets behind a [curr] that has passed them. Staggered work between
   acquisitions lands grabs inside releases; the inline-operation budget
   turns a stranded ticket into an abort rather than an endless spin.
   Every acquisition must be served and the lock must end free with
   nobody queued. *)
let test_ticket_no_lost_tickets_sim () =
  let module SOT = Optik.Ticket (SimRt) in
  let l = SOT.create () in
  let acquired = Sim.Sched.loc 0 in
  ignore
    (Sim.Sched.run ~topology:uniform4 ~nthreads:8 ~max_inline_ops:2_000_000
       (fun tid ->
         for i = 1 to 200 do
           SOT.lock l;
           ignore (Sim.Sched.faa acquired 1 : int);
           SOT.unlock l;
           Sim.Sched.work ((tid * 37) + (i * 11 mod 50))
         done));
  Alcotest.(check int) "every acquisition serviced" 1600
    (Sim.Sched.read acquired);
  Alcotest.(check bool) "lock free at end" false
    (SOT.is_locked (SOT.get_version l));
  Alcotest.(check int) "nobody queued at end" 0 (SOT.num_queued l)

(* The same exclusion on real domains. *)
let test_ticket_mutex_native () =
  let l = OT.create () in
  let counter = ref 0 in
  let nthreads = 4 and iters = 2_000 in
  Nat.set_nthreads nthreads;
  let body tid () =
    Nat.set_tid tid;
    for _ = 1 to iters do
      OT.lock l;
      counter := !counter + 1;
      OT.unlock l
    done
  in
  let doms = List.init (nthreads - 1) (fun i -> Domain.spawn (body (i + 1))) in
  body 0 ();
  List.iter Domain.join doms;
  Nat.set_nthreads 1;
  Alcotest.(check int) "native no lost updates" (nthreads * iters) !counter

(* ------------------------------------------------------------------ *)
(* The OPTIK pattern end-to-end: optimistic read + trylock-validate     *)

module VO = Optik.Versioned (SimRt)

let test_pattern_no_lost_updates () =
  (* The Figure-2 pattern protecting a plain cell: read version, read
     cell, compute, trylock-validate, write, unlock. Must be exact. *)
  let l = VO.create () in
  let cell = Sim.Sched.loc 0 in
  let restarts = ref 0 in
  ignore
    (Sim.Sched.run ~topology:uniform4 ~nthreads:6 (fun _ ->
         for _ = 1 to 300 do
           let rec attempt () =
             let vn = VO.get_version l in
             let v = Sim.Sched.read cell in
             Sim.Sched.work 10;
             if VO.trylock_version l vn then (
               Sim.Sched.write cell (v + 1);
               VO.unlock l)
             else (
               incr restarts;
               attempt ())
           in
           attempt ()
         done));
  Alcotest.(check int) "exact count" 1800 (Sim.Sched.read cell);
  Alcotest.(check bool) "some restarts happened under contention" true
    (!restarts > 0)

let test_pattern_readers_see_consistent_snapshots () =
  (* Two cells updated together under the lock; readers snapshot with
     version validation and must never see a torn pair. *)
  let l = VO.create () in
  let a = Sim.Sched.loc 0 and b = Sim.Sched.loc 0 in
  let torn = ref 0 in
  ignore
    (Sim.Sched.run ~topology:uniform4 ~nthreads:4 (fun tid ->
         if tid < 2 then
           for _ = 1 to 200 do
             let rec attempt () =
               let vn = VO.get_version l in
               if VO.trylock_version l vn then (
                 let v = Sim.Sched.read a in
                 Sim.Sched.write a (v + 1);
                 Sim.Sched.work 20;
                 Sim.Sched.write b (v + 1);
                 VO.unlock l)
               else attempt ()
             in
             attempt ()
           done
         else
           for _ = 1 to 400 do
             let rec snapshot () =
               let vn = VO.get_version_wait l in
               let va = Sim.Sched.read a in
               let vb = Sim.Sched.read b in
               if VO.same_version (VO.get_version l) vn then (va, vb)
               else snapshot ()
             in
             let va, vb = snapshot () in
             if va <> vb then incr torn
           done));
  Alcotest.(check int) "no torn snapshots" 0 !torn;
  Alcotest.(check int) "writers consistent" (Sim.Sched.read a)
    (Sim.Sched.read b)

(* qcheck: random single-threaded op sequences keep version parity
   invariants on the versioned lock. *)
let qcheck_versioned_invariants =
  Tutil.qcheck_case ~count:200 "versioned lock state machine"
    QCheck2.Gen.(list_size (int_range 0 40) (int_range 0 2))
    (fun ops ->
      let module V = Optik.Versioned (Nat) in
      let l = V.create () in
      let held = ref false in
      List.iter
        (fun op ->
          match op with
          | 0 ->
              (* trylock current version *)
              let v = V.get_version l in
              if not !held then (
                let ok = V.trylock_version l v in
                if ok then held := true)
          | 1 -> if !held then (V.unlock l; held := false)
          | _ -> if !held then (V.revert l; held := false))
        ops;
      (* invariant: locked iff held *)
      V.is_locked (V.get_version l) = !held)

(* qcheck: the packed ticket word is a faithful lock state machine. *)
let qcheck_ticket_invariants =
  Tutil.qcheck_case ~count:200 "ticket lock state machine"
    QCheck2.Gen.(list_size (int_range 0 60) (int_range 0 3))
    (fun ops ->
      let module T = Optik.Ticket (Nat) in
      let l = T.create () in
      let held = ref false in
      let committed = ref 0 in
      let model_version = ref 0 in
      List.iter
        (fun op ->
          match op with
          | 0 ->
              if not !held then (
                let v = T.get_version l in
                if T.trylock_version l v then held := true)
          | 1 ->
              if !held then (
                T.unlock l;
                held := false;
                incr committed;
                incr model_version)
          | 2 ->
              if !held then (
                T.revert l;
                held := false
                (* version preserved: no waiters in single-threaded use *))
          | _ ->
              (* blocking acquire when free *)
              if not !held then (
                T.lock l;
                held := true))
        ops;
      if !held then (
        T.unlock l;
        held := false;
        incr model_version);
      (not (T.is_locked (T.get_version l))) && T.num_queued l = 0)

let () =
  Alcotest.run "optik"
    [
      ("versioned semantics", VSem.cases);
      ("ticket semantics", TSem.cases);
      ( "ticket specifics",
        [
          Alcotest.test_case "num_queued" `Quick test_ticket_num_queued;
          Alcotest.test_case "revert with waiter" `Quick
            test_ticket_revert_with_waiter_falls_back;
          Alcotest.test_case "mutual exclusion (sim)" `Quick
            test_ticket_mutex_sim;
          Alcotest.test_case "queue depth under load" `Quick
            test_ticket_queue_depth_sim;
          Alcotest.test_case "no lost tickets" `Quick
            test_ticket_no_lost_tickets_sim;
          Alcotest.test_case "mutual exclusion (native)" `Slow
            test_ticket_mutex_native;
        ] );
      ( "pattern",
        [
          Alcotest.test_case "no lost updates" `Quick
            test_pattern_no_lost_updates;
          Alcotest.test_case "consistent snapshots" `Quick
            test_pattern_readers_see_consistent_snapshots;
          qcheck_versioned_invariants;
          qcheck_ticket_invariants;
        ] );
    ]
