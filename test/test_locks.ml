(* Tests for the classic lock baselines: mutual exclusion (a plain
   non-atomic counter incremented under the lock must come out exact),
   trylock semantics and MCS queue handoff.
   Each lock is exercised both under the simulator and on real domains,
   and every blocking structure baseline must see its held lock in
   [validate]. *)

module SimRt = Sim.Sim_rt
module Nat = Rt.Native_rt

module STas = Locks.Tas (SimRt)
module STtas = Locks.Ttas (SimRt)
module SMcs = Locks.Mcs (SimRt)
module NTas = Locks.Tas (Nat)
module NTtas = Locks.Ttas (Nat)
module NMcs = Locks.Mcs (Nat)

let uniform4 = Sim.Topology.uniform ~n:4 ()

(* Mutual exclusion in the simulator: increments of a *plain* shared cell
   under the lock. A plain Sched.loc with read + write (not CAS) loses
   updates unless the lock provides mutual exclusion. *)
let sim_mutex_test lock unlock =
  let cell = Sim.Sched.loc 0 in
  ignore
    (Sim.Sched.run ~topology:uniform4 ~nthreads:6 (fun _ ->
         for _ = 1 to 300 do
           lock ();
           let v = Sim.Sched.read cell in
           Sim.Sched.work 5;
           Sim.Sched.write cell (v + 1);
           unlock ()
         done));
  Alcotest.(check int) "no lost updates" 1800 (Sim.Sched.read cell)

let test_tas_mutex () =
  let l = STas.create () in
  sim_mutex_test (fun () -> STas.lock l) (fun () -> STas.unlock l)

let test_ttas_mutex () =
  let l = STtas.create () in
  sim_mutex_test (fun () -> STtas.lock l) (fun () -> STtas.unlock l)

let test_mcs_mutex () =
  let l = SMcs.create () in
  sim_mutex_test (fun () -> SMcs.lock l) (fun () -> SMcs.unlock l)

(* Trylock semantics, single-threaded. *)
let test_trylock_semantics () =
  let l = NTtas.create () in
  Alcotest.(check bool) "free trylock" true (NTtas.trylock l);
  Alcotest.(check bool) "held trylock" false (NTtas.trylock l);
  Alcotest.(check bool) "is_locked" true (NTtas.is_locked l);
  NTtas.unlock l;
  Alcotest.(check bool) "released" false (NTtas.is_locked l);
  let m = NMcs.create () in
  Alcotest.(check bool) "mcs free trylock" true (NMcs.trylock m);
  Alcotest.(check bool) "mcs held trylock" false (NMcs.trylock m);
  NMcs.unlock m;
  Alcotest.(check bool) "mcs released" false (NMcs.is_locked m)

(* MCS is FIFO: grab order equals service order. Verified by having each
   thread append its id under the lock after a deterministic staggered
   start; with FIFO handoff the sequence of (thread-id) bursts never
   interleaves a later arrival before an earlier one... we verify the
   weaker but meaningful property: exact mutual exclusion plus all
   threads complete (no lost wakeups in handoff). *)
let test_mcs_handoff_no_lost_wakeup () =
  let l = SMcs.create () in
  let order = ref [] in
  ignore
    (Sim.Sched.run ~topology:uniform4 ~nthreads:8 (fun tid ->
         for _ = 1 to 50 do
           SMcs.lock l;
           order := tid :: !order;
           Sim.Sched.work 20;
           SMcs.unlock l
         done));
  Alcotest.(check int) "all critical sections ran" 400 (List.length !order)

(* Native: real domains hammering each lock. *)
let native_mutex_test lock unlock =
  let counter = ref 0 in
  let nthreads = 4 and iters = 2_000 in
  Nat.set_nthreads nthreads;
  let body tid () =
    Nat.set_tid tid;
    for _ = 1 to iters do
      lock ();
      counter := !counter + 1;
      unlock ()
    done
  in
  let doms = List.init (nthreads - 1) (fun i -> Domain.spawn (body (i + 1))) in
  body 0 ();
  List.iter Domain.join doms;
  Nat.set_nthreads 1;
  Alcotest.(check int) "native no lost updates" (nthreads * iters) !counter

let test_native_tas () =
  let l = NTas.create () in
  native_mutex_test (fun () -> NTas.lock l) (fun () -> NTas.unlock l)

let test_native_ttas () =
  let l = NTtas.create () in
  native_mutex_test (fun () -> NTtas.lock l) (fun () -> NTtas.unlock l)

let test_native_mcs () =
  let l = NMcs.create () in
  native_mutex_test (fun () -> NMcs.lock l) (fun () -> NMcs.unlock l)

(* The blocking baselines fail [validate] while their lock is held, like
   their OPTIK twins: a quiescent structure with a held lock is broken.
   Covers mcs-gl-opt, the lazy-gl buckets, the mcs map, java and bst-gl. *)
let test_baselines_validate_lock () =
  let check name ~lock ~unlock validate =
    Alcotest.(check bool) (name ^ " free") true (validate ());
    lock ();
    Alcotest.(check bool) (name ^ " held") false (validate ());
    unlock ();
    Alcotest.(check bool) (name ^ " released") true (validate ())
  in
  let module L = Dstruct.Ll_gl.Pessimistic (Nat) (NMcs) in
  let l = L.create () in
  ignore (L.insert l 1 1 : bool);
  check "mcs-gl-opt"
    ~lock:(fun () -> NMcs.lock l.L.lock)
    ~unlock:(fun () -> NMcs.unlock l.L.lock)
    (fun () -> L.validate l);
  let module B = Dstruct.Ll_gl.Pessimistic (Nat) (NTas) in
  let module H = Dstruct.Ht.Of_bucket (B) (struct let create () = B.create () end) in
  let h = H.create ~capacity:4 () in
  ignore (H.insert h 1 1 : bool);
  let bucket = h.H.buckets.(2) in
  check "lazy-gl bucket"
    ~lock:(fun () -> NTas.lock bucket.B.lock)
    ~unlock:(fun () -> NTas.unlock bucket.B.lock)
    (fun () -> H.validate h);
  let module M = Dstruct.Maps.Lock_based (Nat) in
  let m = M.create () in
  ignore (M.insert m 1 1 : bool);
  check "mcs map"
    ~lock:(fun () -> M.Lock.lock m.M.lock)
    ~unlock:(fun () -> M.Lock.unlock m.M.lock)
    (fun () -> M.validate m);
  let module J = Dstruct.Ht.Java (Nat) in
  let j = J.create ~capacity:8 () in
  ignore (J.insert j 1 1 : bool);
  let seg = j.J.segs.(5) in
  check "java"
    ~lock:(fun () -> J.Lock.lock seg.J.lock)
    ~unlock:(fun () -> J.Lock.unlock seg.J.lock)
    (fun () -> J.validate j);
  let module T = Dstruct.Bst_optik.Global_lock (Nat) (NMcs) in
  let t = T.create () in
  ignore (T.insert t 1 1 : bool);
  check "bst-gl"
    ~lock:(fun () -> NMcs.lock t.T.lock)
    ~unlock:(fun () -> NMcs.unlock t.T.lock)
    (fun () -> T.validate t)

let () =
  Alcotest.run "locks"
    [
      ( "mutual exclusion (sim)",
        [
          Alcotest.test_case "tas" `Quick test_tas_mutex;
          Alcotest.test_case "ttas" `Quick test_ttas_mutex;
          Alcotest.test_case "mcs" `Quick test_mcs_mutex;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "trylock" `Quick test_trylock_semantics;
          Alcotest.test_case "mcs handoff" `Quick
            test_mcs_handoff_no_lost_wakeup;
        ] );
      ( "structures",
        [
          Alcotest.test_case "baselines validate their lock" `Quick
            test_baselines_validate_lock;
        ] );
      ( "native domains",
        [
          Alcotest.test_case "tas" `Slow test_native_tas;
          Alcotest.test_case "ttas" `Slow test_native_ttas;
          Alcotest.test_case "mcs" `Slow test_native_mcs;
        ] );
    ]
