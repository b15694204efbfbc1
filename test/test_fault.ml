(* Tests for the fault-injection subsystem (Sim.Fault) and the liveness
   watchdog (Sim.Sched): crash semantics, stall/storm timing, verdict
   classification, determinism of injected runs, and the structured
   Aborted outcome at the harness level. *)

module Sched = Sim.Sched
module Fault = Sim.Fault
module Fp = Rt.Rt_intf
module SimRt = Sim.Sim_rt
module Ttas = Locks.Ttas (SimRt)
module R = Harness.Registry.Sim_backend

let uniform4 = Sim.Topology.uniform ~n:4 ()

(* ------------------------------------------------------------------ *)
(* Crash: the victim dies at its Nth checkpoint, everyone else keeps
   going, and the run still returns normally. *)

let test_crash_kills_only_victim () =
  let c = Sched.loc 0 in
  let per = Array.make 4 0 in
  let plan = Fault.plan ~seed:1 [ Fault.crash ~tid:0 ~hits:5 Fp.Op_boundary ] in
  ignore
    (Fault.with_plan plan (fun () ->
         Sched.run ~topology:uniform4 ~nthreads:4 (fun tid ->
             for _ = 1 to 100 do
               ignore (Sched.faa c 1 : int);
               per.(tid) <- per.(tid) + 1;
               Sched.tick ()
             done))
      : Sched.stats);
  Alcotest.(check int) "victim stopped at its 5th op" 5 per.(0);
  Alcotest.(check int) "survivors unaffected" 100 per.(1);
  Alcotest.(check int) "counter = 5 + 3*100" 305 (Sched.read c);
  match Fault.events () with
  | [ e ] -> Alcotest.(check int) "crash hit tid 0" 0 e.Fault.e_tid
  | l -> Alcotest.failf "expected exactly one fired event, got %d" (List.length l)

(* ------------------------------------------------------------------ *)
(* Determinism: the same plan against the same workload produces
   identical stats and an identical fault log, twice. *)

let test_injected_run_deterministic () =
  let go () =
    let m =
      Harness.Runner.run_set_sim ~topology:uniform4 ~nthreads:4 ~ops:2_000
        ~faults:(Fault.plan ~seed:7 [ Fault.crash ~tid:1 Fp.Before_cas ])
        (Harness.Registry.set_ops (R.find "list/harris"))
        (Harness.Runner.uniform_workload ~init_size:128 ~update_pct:40 ())
    in
    ( m.Harness.Runner.ops,
      m.Harness.Runner.cas,
      m.Harness.Runner.cas_failed,
      m.Harness.Runner.final_size,
      Fault.events () )
  in
  let a = go () and b = go () in
  Alcotest.(check bool) "identical stats and fault log" true (a = b)

(* ------------------------------------------------------------------ *)
(* Crash inside a critical section: every other thread starves behind
   the held lock; the watchdog names the dead holder. *)

let test_dead_holder_named () =
  let l = Ttas.create () in
  let c = Sched.loc 0 in
  let plan =
    Fault.plan ~seed:1 [ Fault.crash ~tid:0 ~hits:3 Fp.Critical_enter ]
  in
  let wd = { Sched.check_events = 2_000; starve_cycles = 200_000 } in
  match
    Fault.with_plan plan (fun () ->
        Sched.run ~topology:uniform4 ~nthreads:4 ~watchdog:wd
          ~max_events:20_000_000 (fun _ ->
            while not (Sched.stop_requested ()) do
              Ttas.lock l;
              let v = Sched.read c in
              Sched.work 10;
              Sched.write c (v + 1);
              Ttas.unlock l;
              Sched.tick ();
              Sched.work 50
            done))
  with
  | (_ : Sched.stats) -> Alcotest.fail "expected Aborted"
  | exception Sched.Aborted r ->
      (match r.Sched.r_verdict with
      | Sched.Starved _ -> ()
      | v ->
          Alcotest.failf "wrong verdict: %s"
            (Format.asprintf "%a" Sched.pp_verdict v));
      Alcotest.(check (list int)) "dead holder named" [ 0 ] r.Sched.r_dead_holders;
      Alcotest.(check bool) "waiters reported" true (r.Sched.r_waiters <> []);
      let t0 =
        List.find (fun tp -> tp.Sched.tp_tid = 0) r.Sched.r_threads
      in
      Alcotest.(check bool) "t0 crashed holding a lock" true
        (t0.Sched.tp_crashed && t0.Sched.tp_crit_depth > 0)

(* ------------------------------------------------------------------ *)
(* Stall: the victim disappears for N cycles and resumes; the run
   completes, and the wall clock shows the stall. *)

let test_stall_recovers () =
  let c = Sched.loc 0 in
  let plan =
    Fault.plan ~seed:1 [ Fault.stall ~tid:0 ~hits:2 100_000 Fp.Op_boundary ]
  in
  let st =
    Fault.with_plan plan (fun () ->
        Sched.run ~topology:uniform4 ~nthreads:2 (fun _ ->
            for _ = 1 to 50 do
              ignore (Sched.faa c 1 : int);
              Sched.tick ()
            done))
  in
  Alcotest.(check int) "no ops lost" 100 (Sched.read c);
  Alcotest.(check bool) "wall clock includes the stall" true
    (st.Sched.wall_cycles >= 100_000);
  Alcotest.(check int) "exactly one injection" 1 (List.length (Fault.events ()))

(* ------------------------------------------------------------------ *)
(* Storm: a preemption window stalls its victims at every checkpoint
   they reach, then closes; deterministic and non-fatal. *)

let test_storm_completes_deterministically () =
  let go () =
    let c = Sched.loc 0 in
    let plan =
      Fault.plan ~seed:9
        [ Fault.storm ~tid:1 ~hits:4 ~victims:[ 0; 2 ] 50_000 Fp.Op_boundary ]
    in
    let st =
      Fault.with_plan plan (fun () ->
          Sched.run ~topology:uniform4 ~nthreads:4 (fun _ ->
              for _ = 1 to 200 do
                ignore (Sched.faa c 1 : int);
                Sched.tick ();
                Sched.work 20
              done))
    in
    (Sched.read c, st.Sched.wall_cycles, st.Sched.events)
  in
  let (ops_a, wall_a, ev_a) = go () in
  let (ops_b, wall_b, ev_b) = go () in
  Alcotest.(check int) "all ops complete despite the storm" 800 ops_a;
  Alcotest.(check bool) "two runs identical" true
    ((ops_a, wall_a, ev_a) = (ops_b, wall_b, ev_b))

(* ------------------------------------------------------------------ *)
(* Livelock verdict: every thread burns cycles forever without
   completing an operation and nobody holds a lock — Livelocked, with
   the contended line in the hot-line report. *)

let test_livelock_verdict () =
  let c = Sched.loc 0 in
  let wd = { Sched.check_events = 1_000; starve_cycles = 50_000 } in
  match
    Sched.run ~topology:uniform4 ~nthreads:3 ~watchdog:wd
      ~max_events:10_000_000 (fun _ ->
        while true do
          ignore (Sched.cas c 1 2 : bool);
          Sched.work 10
        done)
  with
  | (_ : Sched.stats) -> Alcotest.fail "expected Aborted"
  | exception Sched.Aborted r -> (
      match r.Sched.r_verdict with
      | Sched.Livelocked ->
          Alcotest.(check bool) "hot line reported" true
            (r.Sched.r_hot_lines <> [])
      | v ->
          Alcotest.failf "wrong verdict: %s"
            (Format.asprintf "%a" Sched.pp_verdict v))

(* ------------------------------------------------------------------ *)
(* The noise-off starvation incident (satellite of the watchdog work):
   with timing jitter disabled, the Herlihy skip list's hot-pred locks
   phase-lock under a zipf-hot update load at 40 threads. The watchdog
   must classify this as Starved or Livelocked — not let it burn the
   whole event budget and abort with a Progress verdict. *)

let test_herlihy_noise_off_classified () =
  Dstruct.Sl_common.reset_states ();
  let (module S : Harness.Registry.SET_OPS) =
    Harness.Registry.set_ops (R.find "skiplist/herlihy")
  in
  let t = S.create () in
  let z = Harness.Zipf.create ~range:16_384 ~alpha:0.9 in
  let rng0 = Harness.Rng.create (42 + 7919) in
  let n = ref 0 in
  while !n < 8_192 do
    if S.insert t (Harness.Zipf.sample z rng0) 1 then incr n
  done;
  Sched.set_noise_bits 0;
  Fun.protect
    ~finally:(fun () -> Sched.set_noise_bits 62)
    (fun () ->
      match
        Sched.run ~topology:Sim.Topology.xeon ~nthreads:40 ~ops_target:5_000
          ~max_events:120_000_000
          ~watchdog:{ Sched.check_events = 50_000; starve_cycles = 2_000_000 }
          (fun tid ->
            let rng = Harness.Rng.create ((42 * 65_599) + tid) in
            while not (Sched.stop_requested ()) do
              let k = Harness.Zipf.sample z rng in
              let p = Harness.Rng.below rng 100 in
              (if p < 20 then ignore (S.insert t k k : bool)
               else if p < 40 then ignore (S.delete t k : int option)
               else ignore (S.search t k : int option));
              Sched.tick ();
              Sched.work 64
            done)
      with
      | (_ : Sched.stats) ->
          (* jitter-free runs phase-lock; completing would mean the
             incident no longer reproduces and the test needs retuning *)
          Alcotest.fail "expected a watchdog verdict, run completed"
      | exception Sched.Aborted r -> (
          match r.Sched.r_verdict with
          | Sched.Starved _ | Sched.Livelocked -> ()
          | Sched.Progress ->
              Alcotest.failf "budget ran out with a Progress verdict: %s"
                r.Sched.r_reason))

(* ------------------------------------------------------------------ *)
(* Harness integration: a blocking structure under a critical-section
   crash comes back as a structured Aborted measurement with partial
   stats, not an exception. *)

let test_runner_aborted_outcome () =
  let m =
    Harness.Runner.run_set_sim ~topology:uniform4 ~nthreads:4 ~ops:0
      ~faults:(Fault.plan ~seed:3 [ Fault.crash ~tid:0 Fp.Critical_enter ])
      ~watchdog:{ Sched.check_events = 2_000; starve_cycles = 200_000 }
      ~max_events:20_000_000
      (Harness.Registry.set_ops (R.find "list/optik-gl"))
      (Harness.Runner.uniform_workload ~init_size:128 ~update_pct:50 ())
  in
  match m.Harness.Runner.outcome with
  | Harness.Runner.Complete -> Alcotest.fail "expected Aborted"
  | Harness.Runner.Aborted r ->
      Alcotest.(check bool) "dead holder is t0" true
        (List.mem 0 r.Sched.r_dead_holders);
      Alcotest.(check bool) "partial stats present" true
        (r.Sched.r_stats.Sched.reads > 0);
      Alcotest.(check bool) "some ops completed before the crash" true
        (m.Harness.Runner.ops > 0)

(* ------------------------------------------------------------------ *)
(* Plan serialization: to_string/of_string round-trip exactly, for the
   chaos engine's --replay repro strings. *)

let gen_plan =
  let open QCheck2.Gen in
  let gen_point =
    oneofl
      [
        Fp.Before_cas; Fp.After_cas; Fp.Critical_enter; Fp.Critical_exit;
        Fp.Lock_wait; Fp.Restart; Fp.Op_boundary;
      ]
  in
  let gen_action =
    oneof
      [
        return Fault.Crash;
        map (fun n -> Fault.Stall n) (int_range 1 1_000_000);
        map2
          (fun d v -> Fault.Storm { victims = v; duration = d })
          (int_range 1 1_000_000)
          (list_size (int_range 0 4) (int_range 0 63));
        map2
          (fun shard down_for -> Fault.Shard_crash { shard; down_for })
          (int_range 0 63)
          (* down_for = 0 means "down until explicit recovery" and prints
             without the duration field, so it must round-trip too *)
          (oneof [ return 0; int_range 1 1_000_000 ]);
        map (fun shard -> Fault.Shard_recover shard) (int_range 0 63);
        map2
          (fun shard down_for -> Fault.Resync_crash { shard; down_for })
          (int_range 0 63)
          (oneof [ return 0; int_range 1 1_000_000 ]);
      ]
  in
  let gen_spec =
    map
      (fun (tid, point, hits, action) ->
        { Fault.f_tid = tid; f_point = point; f_hits = hits; f_action = action })
      (quad (option (int_range 0 63)) gen_point (int_range 0 48) gen_action)
  in
  map2
    (fun seed specs -> { Fault.seed; specs })
    (int_range 0 1_000_000)
    (list_size (int_range 0 5) gen_spec)

let plan_roundtrip =
  Tutil.qcheck_case ~count:200 "plan to_string/of_string round-trip" gen_plan
    (fun p -> Fault.of_string (Fault.to_string p) = p)

let test_plan_string_examples () =
  let check s =
    Alcotest.(check string) s s (Fault.to_string (Fault.of_string s))
  in
  check "42";
  check "7;crash@critical-enter,t0";
  check "0;stall(5000)@before-cas,t2,h3";
  check "1;storm(800)@op-boundary;storm(900:v1.3)@lock-wait,h2";
  check "3;shardcrash(2:5000)@op-boundary,h7";
  check "3;shardcrash(0)@before-cas";
  check "1;shardrecover(4)@op-boundary,h9";
  check "5;resynccrash(1:15000)@op-boundary,h6";
  check "5;resynccrash(3)@op-boundary";
  (match Fault.of_string "1;crash@nowhere" with
  | (_ : Fault.plan) -> Alcotest.fail "expected parse error"
  | exception Invalid_argument _ -> ());
  (* A negative hit count is an error, not a request for the derived one. *)
  (match Fault.of_string "1;stall(45181)@lock-wait,h-3" with
  | (_ : Fault.plan) -> Alcotest.fail "expected parse error for h-3"
  | exception Invalid_argument msg ->
      Alcotest.(check string) "h-3 names the field"
        "Fault.of_string: hit count must be >= 0, got -3" msg);
  match Fault.of_string "1;shardcrash(x)@op-boundary" with
  | (_ : Fault.plan) -> Alcotest.fail "expected parse error"
  | exception Invalid_argument _ -> ()

let () =
  Alcotest.run "fault"
    [
      ( "serialization",
        [
          plan_roundtrip;
          Alcotest.test_case "plan string examples" `Quick
            test_plan_string_examples;
        ] );
      ( "injection",
        [
          Alcotest.test_case "crash kills only the victim" `Quick
            test_crash_kills_only_victim;
          Alcotest.test_case "injected run deterministic" `Quick
            test_injected_run_deterministic;
          Alcotest.test_case "stall recovers" `Quick test_stall_recovers;
          Alcotest.test_case "storm completes deterministically" `Quick
            test_storm_completes_deterministically;
        ] );
      ( "watchdog",
        [
          Alcotest.test_case "dead lock holder named" `Quick
            test_dead_holder_named;
          Alcotest.test_case "livelock verdict" `Quick test_livelock_verdict;
          Alcotest.test_case "herlihy noise-off classified" `Slow
            test_herlihy_noise_off_classified;
          Alcotest.test_case "runner aborted outcome" `Quick
            test_runner_aborted_outcome;
        ] );
    ]
