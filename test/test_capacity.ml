(* Capacity and world-reset tests: a 10k-virtual-thread run completes on
   the arena-allocated engine, every order-independent entry point starts
   from [Harness.World.reset] (sequential isolation — a run's output
   cannot depend on what ran before it), and the latency collectors stay
   cheap until fed. *)

module Sched = Sim.Sched

(* The simulated part of a measurement: everything but host time and
   the optional trace. *)
let sim (m : Harness.Runner.measurement) =
  ( (m.ops, m.mops, m.wall_s, m.eff_update_pct, m.reads, m.writes),
    (m.cas, m.cas_failed, m.faa, m.events, m.lat, m.counters),
    (m.final_size, m.valid, Harness.Runner.aborted m) )

(* ------------------------------------------------------------------ *)
(* 10k virtual threads                                                 *)

let test_10k_threads () =
  let nthreads = 10_000 in
  let topology = Sim.Topology.uniform ~n:4 () in
  let first = Sched.loc 0 in
  let locs =
    Array.init 64 (fun i -> if i = 0 then first else Sched.loc_with first 0)
  in
  let run () =
    Harness.Runner.simulate ~name:"faa-10k" ~topology ~nthreads ~ops:30_000
      ~seed:0 ~classes:[||] (fun _ tid ->
        let i = ref tid in
        while not (Sched.stop_requested ()) do
          ignore (Sched.faa locs.(!i land 63) 1);
          i := !i + 7;
          Sched.tick ();
          Sched.work 32
        done)
  in
  let m = run () in
  (match m.outcome with
  | Harness.Runner.Complete -> ()
  | Harness.Runner.Aborted r ->
      Alcotest.failf "10k run aborted: %s"
        (Format.asprintf "%a" Sched.pp_report r));
  Alcotest.(check bool) "hit the ops target" true (m.ops >= 30_000);
  (* every increment landed somewhere: the counters conserve the faas *)
  let total = Array.fold_left (fun a l -> a + Sched.read l) 0 locs in
  Alcotest.(check int) "counters conserve faas" m.faa total;
  (* identical reruns on the warm arena: the reused thread records,
     line table and event heap must not leak state between runs *)
  let m2 = run () in
  let m3 = run () in
  Alcotest.(check bool) "warm arena rerun deterministic" true
    (sim m2 = sim m3)

(* ------------------------------------------------------------------ *)
(* Sequential isolation                                                *)

(* The first [runs] trials of a fuzzing session with [seed], run through
   the family's [run] on the calling domain: fuzzing itself farms them
   out to fresh worker domains, so only a direct run can see (or leave)
   the calling domain's pollution. *)
let trials (module T : Chaos.TRIAL) ~runs ~seed =
  List.init runs (fun i ->
      let tr = T.gen (Harness.Rng.create (seed + (i * 1_000_003))) in
      let r = T.run tr in
      (T.to_string tr, r.failures, r.detail, sim r.measurement))

(* Leave the world as dirty as a process can: trials of every family
   (ids, journal, fault tables), an elimination stack (slot counters),
   a skip list (level generators), a leaked noise setting and a leaked
   fault plan that stalls thread 0. *)
let pollute () =
  List.iter
    (fun fam -> ignore (trials fam ~runs:2 ~seed:5))
    [ (module Chaos.Kv_trial : Chaos.TRIAL); (module Chaos.Txn_trial) ];
  ignore
    (Harness.Runner.run_pool_sim ~topology:(Sim.Topology.uniform ~n:4 ())
       ~nthreads:6 ~ops:2_000 ~init:64 ~add_pct:50
       Harness.Registry.(pool_ops (Sim_backend.find "stack/elimination")));
  ignore
    (Harness.Runner.run_set_sim ~topology:Sim.Topology.xeon ~nthreads:4
       ~ops:2_000 ~seed:3
       Harness.Registry.(set_ops (Sim_backend.find "skiplist/optik2"))
       (Harness.Runner.uniform_workload ~init_size:256 ~update_pct:40 ()));
  Sched.set_noise_bits 5;
  Sim.Fault.install
    (Sim.Fault.plan ~seed:1
       [ Sim.Fault.stall ~tid:0 ~hits:50 20_000 Rt.Rt_intf.Op_boundary ])

(* Each order-independent entry point must repeat its first run's
   output after the world was polluted, with no reset by the caller:
   the entry point resets the world itself. This is the property the
   fleet relies on. *)
let test_sequential_isolation () =
  let repeats what run =
    let first = run () in
    pollute ();
    Alcotest.(check bool) (what ^ " repeats after pollution") true
      (first = run ())
  in
  repeats "chaos trials" (fun () ->
      trials
        (Chaos.sets (Chaos.select Chaos.quick_names) :> (module Chaos.TRIAL))
        ~runs:3 ~seed:11);
  repeats "Kv.run" (fun () ->
      let m, r =
        Kv.run { Kv.default_config with ops = 1_500; rep = "skiplist/optik2" }
      in
      (sim m, r.Kv.res_oracle, r.Kv.res_events));
  repeats "Txn.Workload.run" (fun () ->
      let m, r =
        Txn.Workload.run
          { Txn.Workload.default_config with ops = 1_500; rep = "skiplist/optik2" }
      in
      (sim m, r.Txn.Workload.res_oracle, r.Txn.Workload.res_commits));
  repeats "Soak.run" (fun () ->
      sim
        (Harness.Soak.run
           {
             structure = Harness.Registry.Sim_backend.find "skiplist/optik2";
             topology = Sim.Topology.xeon;
             threads = 8;
             size = 256;
             updates = 40;
             skewed = true;
             ops = 3_000;
             seed = 9;
           }))

(* ------------------------------------------------------------------ *)
(* Latency collector growth                                            *)

let test_pstats_lazy_growth () =
  (* an unfed collector must stay tiny (10k threads x classes of them
     are allocated per run) and still summarize as empty *)
  let empties = List.init 10_000 (fun _ -> Harness.Pstats.create ()) in
  let s = Harness.Pstats.summarize empties in
  Alcotest.(check int) "empty summary" 0 s.Harness.Pstats.n;
  (* growth past the 16K cap wraps like the paper's bounded buffer *)
  let t = Harness.Pstats.create () in
  for i = 1 to 20_000 do
    Harness.Pstats.record t i
  done;
  Alcotest.(check int) "count" 20_000 (Harness.Pstats.count t);
  let s = Harness.Pstats.summarize [ t ] in
  Alcotest.(check int) "capped sample count" 16_384 s.Harness.Pstats.n

let () =
  Alcotest.run "capacity"
    [
      ( "capacity",
        [
          Alcotest.test_case "10k threads" `Quick test_10k_threads;
          Alcotest.test_case "sequential isolation" `Quick
            test_sequential_isolation;
          Alcotest.test_case "pstats lazy growth" `Quick
            test_pstats_lazy_growth;
        ] );
    ]
