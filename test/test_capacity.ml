(* Capacity and world-reset tests: a 10k-virtual-thread run completes on
   the arena-allocated engine, [Chaos.fresh_world] restores a domain to
   process-pristine state (sequential isolation — a run's output cannot
   depend on what ran before it), and the latency collectors stay cheap
   until fed. *)

module Sched = Sim.Sched

(* ------------------------------------------------------------------ *)
(* 10k virtual threads                                                 *)

let test_10k_threads () =
  let nthreads = 10_000 in
  let topology = Sim.Topology.uniform ~n:4 () in
  let group = Rt.Group.fresh () in
  let locs = Array.init 64 (fun _ -> Sched.loc_packed ~group 0) in
  let run () =
    Harness.Runner.run_guarded ~topology ~nthreads ~ops_target:30_000
      (fun tid ->
        let i = ref tid in
        while not (Sched.stop_requested ()) do
          ignore (Sched.faa locs.(!i land 63) 1);
          i := !i + 7;
          Sched.tick ();
          Sched.work 32
        done)
  in
  let stats, outcome = run () in
  (match outcome with
  | Harness.Runner.Complete -> ()
  | Harness.Runner.Aborted r ->
      Alcotest.failf "10k run aborted: %s"
        (Format.asprintf "%a" Sched.pp_report r));
  Alcotest.(check bool) "hit the ops target" true
    (stats.Sched.ops >= 30_000);
  (* every increment landed somewhere: the counters conserve the faas *)
  let total = Array.fold_left (fun a l -> a + Sched.read l) 0 locs in
  Alcotest.(check int) "counters conserve faas" stats.Sched.faa total;
  (* identical reruns on the warm arena: the reused thread records,
     line table and event heap must not leak state between runs *)
  let stats2, _ = run () in
  let stats3, _ = run () in
  Alcotest.(check bool) "warm arena rerun deterministic" true
    (stats2 = stats3)

(* ------------------------------------------------------------------ *)
(* Sequential isolation                                                *)

let render f =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  let failed = f ppf in
  Format.pp_print_flush ppf ();
  (failed, Buffer.contents buf)

(* The same seeded fuzz must produce identical bytes from a pristine
   world no matter what ran before the reset: here a different fuzzer
   (KV trials), a figure-style runner measurement, and nothing at all.
   This is the property the fleet's per-task reset relies on. *)
let test_sequential_isolation () =
  let probe () =
    render (fun ppf ->
        Chaos.fuzz
          (Chaos.sets Chaos.quick_entries :> (module Chaos.TRIAL))
          ~runs:3 ~seed:11 ppf)
  in
  Chaos.fresh_world ();
  let r1 = probe () in
  (* pollute the world: different structures, ids, journal, faults *)
  ignore (render (fun ppf -> Chaos.fuzz (module Chaos.Kv_trial) ~runs:2 ~seed:5 ppf));
  ignore (render (fun ppf -> Chaos.fuzz (module Chaos.Txn_trial) ~runs:2 ~seed:5 ppf));
  Chaos.fresh_world ();
  let r2 = probe () in
  Alcotest.(check bool) "same bytes from a pristine world" true (r1 = r2);
  (* and a polluted world generally does NOT give the pristine bytes
     for id-dependent output — the reset is load-bearing, not a no-op.
     (Only sameness after reset is contractual, so no assertion on the
     polluted run; it is here to catch crashes.) *)
  ignore (probe ())

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
