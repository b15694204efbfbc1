(* Tests for the harness substrate: RNG, zipf distribution, latency
   percentiles, workload accounting, and the runners themselves. *)

let test_rng_deterministic () =
  let a = Harness.Rng.create 42 and b = Harness.Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Harness.Rng.next a)
      (Harness.Rng.next b)
  done;
  let c = Harness.Rng.create 43 in
  Alcotest.(check bool) "different seed, different stream" false
    (Harness.Rng.next a = Harness.Rng.next c
    && Harness.Rng.next a = Harness.Rng.next c)

let test_rng_below_range () =
  let r = Harness.Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Harness.Rng.below r 17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of range: %d" v
  done

let test_zipf_largest_most_popular () =
  let z = Harness.Zipf.create ~range:100 ~alpha:0.9 in
  let r = Harness.Rng.create 3 in
  let counts = Array.make 101 0 in
  for _ = 1 to 50_000 do
    let k = Harness.Zipf.sample z r in
    if k < 1 || k > 100 then Alcotest.failf "zipf out of range: %d" k;
    counts.(k) <- counts.(k) + 1
  done;
  (* the paper's convention: the largest key is the most popular *)
  let max_idx = ref 0 in
  Array.iteri (fun i c -> if c > counts.(!max_idx) then max_idx := i) counts;
  Alcotest.(check int) "key 100 most popular" 100 !max_idx;
  Alcotest.(check bool) "popular key takes a disproportionate share" true
    (float_of_int counts.(100) /. 50_000. > 0.05)

let test_zipf_cdf_monotone () =
  let z = Harness.Zipf.create ~range:50 ~alpha:0.9 in
  (* sample ranks across the u range must be monotone *)
  let prev = ref (-1) in
  for i = 0 to 100 do
    let u = float_of_int i /. 100. in
    let rank = Harness.Zipf.rank_of z u in
    if rank < !prev then Alcotest.fail "rank not monotone in u";
    prev := rank
  done

(* The workload generators must be pure functions of the seed: the same
   seed replays the identical key sequence (the KV service's
   byte-determinism rests on this), and different seeds diverge. *)
let test_zipf_deterministic_across_seeds () =
  let draw seed =
    let z = Harness.Zipf.create ~range:1_000 ~alpha:0.9 in
    let r = Harness.Rng.create seed in
    List.init 200 (fun _ -> Harness.Zipf.sample z r)
  in
  Alcotest.(check (list int)) "same seed, same sequence" (draw 42) (draw 42);
  Alcotest.(check bool) "different seeds diverge" true (draw 42 <> draw 43)

let test_zipf_popular_ranks () =
  let z = Harness.Zipf.create ~range:100 ~alpha:0.9 in
  (* rank 0 is the hottest key, which by the paper's convention is the
     largest; ranks walk down from there *)
  Alcotest.(check int) "rank 0 = hottest" 100 (Harness.Zipf.popular z 0);
  Alcotest.(check int) "rank 7" 93 (Harness.Zipf.popular z 7);
  match Harness.Zipf.popular z 100 with
  | (_ : int) -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_pstats_percentiles () =
  let p = Harness.Pstats.create () in
  for i = 1 to 100 do
    Harness.Pstats.record p i
  done;
  let s = Harness.Pstats.summarize [ p ] in
  Alcotest.(check int) "n" 100 s.Harness.Pstats.n;
  Alcotest.(check int) "p50" 50 s.Harness.Pstats.p50;
  Alcotest.(check int) "p05" 5 s.Harness.Pstats.p05;
  Alcotest.(check int) "p95" 95 s.Harness.Pstats.p95;
  Alcotest.(check (float 0.6)) "mean" 50.5 s.Harness.Pstats.mean

let test_pstats_ring_overflow () =
  let p = Harness.Pstats.create () in
  for i = 1 to Harness.Pstats.capacity + 500 do
    Harness.Pstats.record p i
  done;
  Alcotest.(check int) "count tracks all" (Harness.Pstats.capacity + 500)
    (Harness.Pstats.count p);
  let s = Harness.Pstats.summarize [ p ] in
  Alcotest.(check int) "summary capped at capacity" Harness.Pstats.capacity
    s.Harness.Pstats.n

(* After wrapping, the summary must be computed from exactly the last
   [capacity] samples, numerically sorted: record 1..capacity+500 and the
   retained window is 501..capacity+500, so every percentile is pinned. *)
let test_pstats_wrap_percentiles () =
  let cap = Harness.Pstats.capacity in
  let p = Harness.Pstats.create () in
  for i = 1 to cap + 500 do
    Harness.Pstats.record p i
  done;
  let s = Harness.Pstats.summarize [ p ] in
  let expect pct = 500 + 1 + int_of_float (pct *. float_of_int (cap - 1)) in
  Alcotest.(check int) "p05" (expect 0.05) s.Harness.Pstats.p05;
  Alcotest.(check int) "p50" (expect 0.50) s.Harness.Pstats.p50;
  Alcotest.(check int) "p95" (expect 0.95) s.Harness.Pstats.p95;
  Alcotest.(check (float 0.01)) "mean of the retained window"
    (float_of_int (500 + 1 + cap + 500) /. 2.)
    s.Harness.Pstats.mean

(* [summarize] against a reference that keeps each collector's last
   [capacity] samples, sorts them with [Array.sort compare] and applies
   the same percentile ranks. The sample mixes cover the radix sort's
   edges: empty and singleton collectors, all-equal samples (no pass),
   negatives, heavy duplicates, wrap-around past the 16K window, values
   near [min_int]/[max_int], and ranges overflowing [int] (the
   [Array.sort] fallback). *)
let reference_summary (lists : int list list) : Harness.Pstats.summary =
  let cap = Harness.Pstats.capacity in
  let retained l =
    let n = List.length l in
    List.filteri (fun i _ -> i >= n - cap) l
  in
  let all = Array.of_list (List.concat_map retained lists) in
  let total = Array.length all in
  if total = 0 then Harness.Pstats.empty_summary
  else begin
    Array.sort compare all;
    let pct p = all.(int_of_float (p *. float_of_int (total - 1))) in
    let pct_hi p =
      let r = int_of_float (Float.ceil (p *. float_of_int total)) - 1 in
      all.(min (total - 1) (max 0 r))
    in
    {
      Harness.Pstats.n = total;
      p05 = pct 0.05;
      p25 = pct 0.25;
      p50 = pct 0.50;
      p75 = pct 0.75;
      p95 = pct 0.95;
      p99 = pct_hi 0.99;
      p999 = pct_hi 0.999;
      mean =
        float_of_int (Array.fold_left ( + ) 0 all) /. float_of_int total;
    }
  end

let qcheck_pstats_matches_reference =
  let open QCheck2.Gen in
  let samples =
    [
      int_range (-1_000) 1_000;
      int_bound 3;
      pure 42;
      map (fun d -> max_int - d) (int_bound 5_000);
      map (fun d -> min_int + d) (int_bound 5_000);
      oneofl [ min_int; min_int + 1; -1; 0; 1; max_int - 1; max_int ];
      int;
    ]
  in
  (* one distribution per collector, so all-equal and near-extreme
     collectors occur whole rather than diluted *)
  let collector =
    let* len = frequency [ (6, int_range 0 300); (1, int_range 16_385 20_000) ] in
    let* sample = oneofl samples in
    list_repeat len sample
  in
  Tutil.qcheck_case ~count:150 "summarize = Array.sort reference"
    (list_size (int_range 0 4) collector)
    (fun lists ->
      let ts =
        List.map
          (fun l ->
            let t = Harness.Pstats.create () in
            List.iter (Harness.Pstats.record t) l;
            t)
          lists
      in
      Harness.Pstats.summarize ts = reference_summary lists)

(* Tail percentiles use the ceiling nearest-rank rule, so a sparse
   latency class — a handful of timeouts, say — reports its maximum as
   p999 instead of interpolating below any observed sample. *)
let test_pstats_sparse_tail () =
  let p = Harness.Pstats.create () in
  List.iter (Harness.Pstats.record p) [ 10; 20; 30; 40; 5_000 ];
  let s = Harness.Pstats.summarize [ p ] in
  Alcotest.(check int) "p99 of 5 samples = max" 5_000 s.Harness.Pstats.p99;
  Alcotest.(check int) "p999 of 5 samples = max" 5_000 s.Harness.Pstats.p999;
  let q = Harness.Pstats.create () in
  for i = 1 to 100 do
    Harness.Pstats.record q i
  done;
  let s = Harness.Pstats.summarize [ q ] in
  Alcotest.(check int) "p99 of 1..100" 99 s.Harness.Pstats.p99;
  Alcotest.(check int) "p999 of 1..100 = max" 100 s.Harness.Pstats.p999;
  let r = Harness.Pstats.create () in
  for i = 1 to 1_000 do
    Harness.Pstats.record r i
  done;
  let s = Harness.Pstats.summarize [ r ] in
  Alcotest.(check int) "p99 of 1..1000" 990 s.Harness.Pstats.p99;
  Alcotest.(check int) "p999 of 1..1000" 999 s.Harness.Pstats.p999

let test_pstats_merge () =
  let a = Harness.Pstats.create () and b = Harness.Pstats.create () in
  for i = 1 to 10 do
    Harness.Pstats.record a i;
    Harness.Pstats.record b (90 + i)
  done;
  let s = Harness.Pstats.summarize [ a; b ] in
  Alcotest.(check int) "merged n" 20 s.Harness.Pstats.n;
  Alcotest.(check int) "p05 low" 1 s.Harness.Pstats.p05;
  Alcotest.(check int) "p95 high" 99 s.Harness.Pstats.p95;
  Alcotest.(check bool) "p50 between the groups" true
    (s.Harness.Pstats.p50 >= 10 && s.Harness.Pstats.p50 <= 91)

(* End-to-end: the sim runner measures an effective update rate near the
   configured one, and latency classes are populated. *)
let test_runner_effective_updates () =
  let (module S : Harness.Registry.SET_OPS) =
    Harness.Registry.Sim_backend.ll_optik
  in
  let w = Harness.Runner.uniform_workload ~init_size:64 ~update_pct:40 () in
  let m =
    Harness.Runner.run_set_sim ~topology:Tutil.uniform4 ~nthreads:4
      ~ops:10_000
      (module S)
      w
  in
  (* range = 2x size: about half the attempted updates succeed -> ~20% *)
  Alcotest.(check bool)
    (Printf.sprintf "effective updates ~20%% (%.1f)" m.Harness.Runner.eff_update_pct)
    true
    (m.Harness.Runner.eff_update_pct > 12.
    && m.Harness.Runner.eff_update_pct < 28.);
  Alcotest.(check bool) "throughput positive" true (m.Harness.Runner.mops > 0.);
  Alcotest.(check bool) "structure valid" true m.Harness.Runner.valid;
  let srch_suc = m.Harness.Runner.lat.(0) in
  Alcotest.(check bool) "latencies collected" true
    (srch_suc.Harness.Pstats.n > 0);
  Alcotest.(check bool) "p95 >= p50" true
    (srch_suc.Harness.Pstats.p95 >= srch_suc.Harness.Pstats.p50)

let test_runner_deterministic () =
  let (module S : Harness.Registry.SET_OPS) =
    Harness.Registry.(set_ops (Sim_backend.find "list/lazy"))
  in
  let w = Harness.Runner.uniform_workload ~init_size:32 ~update_pct:20 () in
  let run () =
    let m =
      Harness.Runner.run_set_sim ~topology:Tutil.uniform4 ~nthreads:4
        ~ops:3_000 ~seed:9
        (module S)
        w
    in
    (m.Harness.Runner.mops, m.Harness.Runner.ops, m.Harness.Runner.cas)
  in
  Alcotest.(check bool) "same measurement twice" true (run () = run ())

(* The set-run judge of [optik_bench run], [soak] and [test/soak.exe]:
   a complete, valid run has no failures, and the same run marked
   invalid fails [validate] alone. *)
let test_run_failures () =
  let m =
    Harness.Runner.run_set_sim ~topology:Tutil.uniform4 ~nthreads:4 ~ops:2_000
      ~seed:9 Harness.Registry.Sim_backend.ll_optik
      (Harness.Runner.uniform_workload ~init_size:32 ~update_pct:20 ())
  in
  let oracles m =
    List.map (fun f -> f.Chaos.f_oracle) (Chaos.run_failures m)
  in
  Alcotest.(check bool) "complete and valid" true
    ((not (Harness.Runner.aborted m)) && m.Harness.Runner.valid);
  Alcotest.(check (list string)) "no failures" [] (oracles m);
  Alcotest.(check (list string)) "invalid" [ "validate" ]
    (oracles { m with Harness.Runner.valid = false })

(* Arguments a run cannot honour are rejected up front: an ops target of
   0 without a fault plan would never end, and no threads or an empty
   key range cannot run at all. *)
let test_runner_rejects_bad_args () =
  let bad what ?(updates = 20) ~nthreads ~ops ~size () =
    match
      Harness.Runner.run_set_sim ~topology:Tutil.uniform4 ~nthreads ~ops
        Harness.Registry.Sim_backend.ll_optik
        (Harness.Runner.uniform_workload ~init_size:size ~update_pct:updates
           ())
    with
    | _ -> Alcotest.failf "expected Invalid_argument for %s" what
    | exception Invalid_argument _ -> ()
  in
  bad "ops 0" ~nthreads:2 ~ops:0 ~size:16 ();
  bad "threads 0" ~nthreads:0 ~ops:100 ~size:16 ();
  bad "size 0" ~nthreads:2 ~ops:100 ~size:0 ();
  bad "updates 150" ~updates:150 ~nthreads:2 ~ops:100 ~size:16 ();
  bad "updates -5" ~updates:(-5) ~nthreads:2 ~ops:100 ~size:16 ()

(* The simulated-run envelope every workload runs through: tracing
   never changes what a run measures, only the traced run carries the
   journal, and each class's per-thread collectors merge into one
   summary. *)
let test_simulate_envelope () =
  let module R = Harness.Runner in
  let run record_obs =
    Sim.Sched.reset_world ();
    let x = Sim.Sched.loc 0 in
    R.simulate ~name:"envelope" ~topology:Tutil.uniform4 ~nthreads:2 ~ops:2
      ~seed:1 ~record_obs ~classes:[| "a"; "b" |] (fun lat tid ->
        for i = 1 to 3 do
          ignore (Sim.Sched.faa x 1);
          Harness.Pstats.record lat.(0) ((100 * tid) + i)
        done;
        if tid = 1 then Harness.Pstats.record lat.(1) 7;
        Sim.Sched.tick ())
  in
  let plain = run false and traced = run true in
  let stats (m : R.measurement) =
    [ m.ops; m.reads; m.writes; m.cas; m.cas_failed; m.faa; m.events ]
  in
  Alcotest.(check (list int)) "same stats" (stats plain) (stats traced);
  Alcotest.(check (float 0.)) "same virtual time" plain.wall_s traced.wall_s;
  Alcotest.(check (list (pair string int)))
    "same counters" plain.counters traced.counters;
  Alcotest.(check bool) "same latency summaries" true (plain.lat = traced.lat);
  Alcotest.(check bool) "untraced run has no journal" true
    (Option.is_none plain.obs);
  Alcotest.(check bool) "traced run has the journal" true
    (Option.is_some traced.obs);
  Alcotest.(check (list int)) "two ops, six faa" [ 2; 6 ]
    [ plain.ops; plain.faa ];
  let a = plain.lat.(0) and b = plain.lat.(1) in
  (* class a holds 1 2 3 101 102 103 from the two threads *)
  Alcotest.(check (pair int int)) "class a: n, p50" (6, 3) (a.n, a.p50);
  Alcotest.(check (pair int int)) "class b: n, p50" (1, 7) (b.n, b.p50)

(* The envelope forwards the scheduler settings [run_guarded] takes: a
   tiny inline budget aborts the run with the budget's message, and
   each read slack gives the cycles and events the same bare
   [run_guarded] call gives (a slack of 0 and the default differ here,
   so a dropped setting would show). *)
let test_simulate_forwards_settings () =
  let module R = Harness.Runner in
  let body tid =
    let x = Sim.Sched.loc 0 in
    for _ = 1 to 40 do
      ignore (Sim.Sched.read x);
      if tid = 0 then Sim.Sched.write x tid;
      Sim.Sched.work 50;
      Sim.Sched.tick ()
    done
  in
  let run ?read_slack ?max_inline_ops () =
    Sim.Sched.reset_world ();
    R.simulate ~name:"settings" ~topology:Tutil.uniform4 ~nthreads:4 ~ops:0
      ~seed:1 ?read_slack ?max_inline_ops ~classes:[||] (fun _ tid -> body tid)
  in
  let bare ?read_slack () =
    Sim.Sched.reset_world ();
    let st, outcome =
      R.run_guarded ~topology:Tutil.uniform4 ~nthreads:4 ~ops_target:0
        ?read_slack body
    in
    Alcotest.(check bool) "bare run completes" false
      (match outcome with R.Aborted _ -> true | R.Complete -> false);
    (st.Sim.Sched.wall_cycles, st.events)
  in
  let counts (m : R.measurement) =
    Alcotest.(check bool) "run completes" false (R.aborted m);
    (int_of_float (Float.round (m.wall_s *. Tutil.uniform4.ghz *. 1e9)), m.events)
  in
  let same = Alcotest.(check (pair int int)) in
  (match (run ~max_inline_ops:10 ()).outcome with
  | R.Aborted r ->
      Alcotest.(check bool) ("inline budget: " ^ r.r_reason) true
        (Obs.Report.contains ~sub:"inline-operation budget" r.r_reason)
  | R.Complete -> Alcotest.fail "a 10-op inline budget must abort");
  let slack0 = bare ~read_slack:0 () and slack_default = bare () in
  Alcotest.(check bool) "slack 0 and the default differ" true
    (slack0 <> slack_default);
  same "read_slack:0" slack0 (counts (run ~read_slack:0 ()));
  same "default read_slack" slack_default (counts (run ()))

(* The queue and stack runners share the set runner's loop, and
   with it the same checks, named after the runner called. *)
let test_all_runners_reject_bad_args () =
  let module R = Harness.Runner in
  let module SB = Harness.Registry.Sim_backend in
  let topology = Tutil.uniform4 in
  let bad msg f =
    match f () with
    | (_ : R.measurement) -> Alcotest.failf "expected Invalid_argument %S" msg
    | exception Invalid_argument m -> Alcotest.(check string) "message" msg m
  in
  let ms_lf = Harness.Registry.pool_ops (SB.find "queue/ms-lf")
  and treiber = Harness.Registry.pool_ops (SB.find "stack/treiber") in
  bad "Runner.run_pool_sim: threads must be positive" (fun () ->
      R.run_pool_sim ~topology ~nthreads:0 ~ops:100 ~add_pct:50 ms_lf);
  bad "Runner.run_pool_sim: ops must be positive" (fun () ->
      R.run_pool_sim ~topology ~nthreads:2 ~ops:0 ~add_pct:50 ms_lf);
  bad "Runner.run_pool_sim: ops must be positive" (fun () ->
      R.run_pool_sim ~topology ~nthreads:2 ~ops:(-1) ~add_pct:50 treiber)

(* Every draw stays inside its shape, the same seed draws the same
   tuples, and a drawn case runs to a valid, complete measurement. *)
let test_soak_sampler () =
  let module Soak = Harness.Soak in
  let draw shape seed =
    let rng = Harness.Rng.create seed in
    List.init 200 (fun _ -> Soak.sample shape rng)
  in
  List.iter
    (fun (shape : Soak.shape) ->
      let cases = draw shape 5 in
      List.iter
        (fun (c : Soak.case) ->
          let within what lo hi v =
            if v < lo || v > hi then
              Alcotest.failf "%s %d outside [%d, %d]: %s" what v lo hi
                (Soak.describe c)
          in
          within "threads" 1 shape.max_threads c.threads;
          within "size" 4 (4 lsl (shape.size_shifts - 1)) c.size;
          within "updates" 10 89 c.updates;
          within "ops" shape.min_ops (shape.min_ops + shape.ops_span - 1) c.ops;
          Alcotest.(check bool) "structure from the shape" true
            (List.memq c.structure shape.structures))
        cases;
      Alcotest.(check (list string)) "same seed, same tuples"
        (List.map Soak.describe cases)
        (List.map Soak.describe (draw shape 5)))
    [ Soak.bounded; Soak.wide ];
  let c = { (Soak.sample Soak.bounded (Harness.Rng.create 1)) with ops = 500 } in
  let m = Soak.run c in
  Alcotest.(check bool) "complete" false (Harness.Runner.aborted m);
  Alcotest.(check bool) "valid" true m.Harness.Runner.valid

(* A crash-aware log walks completed requests in per-thread recording
   order, thread 0 first, then the pending ones, each exactly once. The
   run is long enough that every thread's buffer grows several times,
   and thread 1 crashes inside its record [crash_at]. *)
let test_log_order () =
  let module Log = Harness.History.Log in
  let per_thread = 300 and crash_at = 250 in
  let log = Log.create ~nthreads:3 in
  ignore
    (Sim.Sched.run ~topology:Tutil.uniform4 ~nthreads:3 (fun tid ->
         for i = 0 to per_thread - 1 do
           Log.record log (tid, i) (fun () ->
               Sim.Sched.work (10 * (3 - tid));
               if tid = 1 && i = crash_at then raise Sim.Sched.Crashed)
         done)
      : Sim.Sched.stats);
  let run tid n = List.init n (fun i -> (tid, i)) in
  let want =
    run 0 per_thread @ run 1 crash_at @ run 2 per_thread @ [ (1, crash_at) ]
  in
  let seen = ref [] in
  Log.iter log (fun r -> seen := r :: !seen);
  Alcotest.(check (list (pair int int))) "iter order" want (List.rev !seen)

(* Queues and stacks share one loop: a 60-70% add mix grows them, and
   every op counts as an effective update. *)
let test_queue_runner () =
  let grew what (m : Harness.Runner.measurement) =
    Alcotest.(check bool)
      (Printf.sprintf "%s grew (%d)" what m.final_size)
      true (m.final_size > 1_000);
    Alcotest.(check (array string)) (what ^ " classes")
      Harness.Runner.queue_class_names m.lat_classes;
    Alcotest.(check (float 0.)) (what ^ " effective") 100. m.eff_update_pct
  in
  grew "queue"
    (Harness.Runner.run_pool_sim ~topology:Tutil.uniform4 ~nthreads:4
       ~ops:5_000 ~init:1_000 ~add_pct:60
       Harness.Registry.(pool_ops (Sim_backend.find "queue/ms-lf")));
  grew "stack"
    (Harness.Runner.run_pool_sim ~topology:Tutil.uniform4 ~nthreads:4
       ~ops:5_000 ~init:1_000 ~add_pct:70
       Harness.Registry.(pool_ops (Sim_backend.find "stack/treiber")))

(* ------------------------------------------------------------------ *)
(* Tutil.qcheck_case seeds. *)

(* The lists one case draws when it runs. *)
let draws () =
  let seen = ref [] in
  let _, _, run =
    Tutil.qcheck_case ~count:20 "draws"
      QCheck2.Gen.(list_size (int_bound 8) (int_bound 1000))
      (fun l ->
        seen := l :: !seen;
        true)
  in
  run ();
  List.rev !seen

(* Runs [f] with QCHECK_SEED set to [v] ("" reads as unset), then puts
   the caller's value back. *)
let with_qcheck_seed v f =
  let saved = Option.value ~default:"" (Sys.getenv_opt "QCHECK_SEED") in
  Unix.putenv "QCHECK_SEED" v;
  Fun.protect ~finally:(fun () -> Unix.putenv "QCHECK_SEED" saved) f

let test_qcheck_seed_repeats () =
  with_qcheck_seed "" (fun () ->
      Alcotest.(check (list (list int))) "same cases" (draws ()) (draws ()))

let test_qcheck_seed_env_overrides () =
  let written, written_draws =
    with_qcheck_seed "" (fun () -> (Tutil.qcheck_seed (), draws ()))
  in
  with_qcheck_seed "4242" (fun () ->
      Alcotest.(check int) "QCHECK_SEED wins" 4242 (Tutil.qcheck_seed ());
      Alcotest.(check bool)
        "the override draws other cases" false
        (draws () = written_draws));
  with_qcheck_seed "not-a-seed" (fun () ->
      Alcotest.(check int) "unparsable QCHECK_SEED ignored" written
        (Tutil.qcheck_seed ()))

let test_qcheck_failure_names_seed () =
  let _, _, run =
    Tutil.qcheck_case ~count:20 "always fails" QCheck2.Gen.small_nat
      (fun _ -> false)
  in
  match run () with
  | () -> Alcotest.fail "a false property passed"
  | exception e ->
      let m = Printexc.to_string e
      and want = Printf.sprintf "QCHECK_SEED=%d" (Tutil.qcheck_seed ()) in
      if not (Obs.Report.contains ~sub:want m) then
        Alcotest.failf "failure does not name its seed (%s): %s" want m

let () =
  Alcotest.run "harness"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "below range" `Quick test_rng_below_range;
        ] );
      ( "zipf",
        [
          Alcotest.test_case "largest most popular" `Quick
            test_zipf_largest_most_popular;
          Alcotest.test_case "cdf monotone" `Quick test_zipf_cdf_monotone;
          Alcotest.test_case "deterministic across seeds" `Quick
            test_zipf_deterministic_across_seeds;
          Alcotest.test_case "popular ranks" `Quick test_zipf_popular_ranks;
        ] );
      ( "pstats",
        [
          Alcotest.test_case "percentiles" `Quick test_pstats_percentiles;
          Alcotest.test_case "sparse tail p99/p999" `Quick
            test_pstats_sparse_tail;
          Alcotest.test_case "ring overflow" `Quick test_pstats_ring_overflow;
          Alcotest.test_case "wrap percentiles" `Quick
            test_pstats_wrap_percentiles;
          Alcotest.test_case "merge" `Quick test_pstats_merge;
          qcheck_pstats_matches_reference;
        ] );
      ( "runners",
        [
          Alcotest.test_case "effective updates" `Quick
            test_runner_effective_updates;
          Alcotest.test_case "deterministic" `Quick test_runner_deterministic;
          Alcotest.test_case "run_failures judges a set run" `Quick
            test_run_failures;
          Alcotest.test_case "rejects bad arguments" `Quick
            test_runner_rejects_bad_args;
          Alcotest.test_case "queue and stack runners" `Quick
            test_queue_runner;
          Alcotest.test_case "every runner rejects bad arguments" `Quick
            test_all_runners_reject_bad_args;
          Alcotest.test_case "simulate envelope" `Quick
            test_simulate_envelope;
          Alcotest.test_case "simulate forwards scheduler settings" `Quick
            test_simulate_forwards_settings;
        ] );
      ( "soak",
        [
          Alcotest.test_case "sampler draws in range" `Quick test_soak_sampler;
        ] );
      ( "history",
        [
          Alcotest.test_case "log walks in recording order" `Quick
            test_log_order;
        ] );
      ( "qcheck seeds",
        [
          Alcotest.test_case "the written seed repeats its cases" `Quick
            test_qcheck_seed_repeats;
          Alcotest.test_case "QCHECK_SEED overrides the written seed" `Quick
            test_qcheck_seed_env_overrides;
          Alcotest.test_case "a failing case names its seed" `Quick
            test_qcheck_failure_names_seed;
        ] );
    ]
