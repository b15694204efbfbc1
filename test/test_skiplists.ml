(* Tests for the skip lists of §5.3: fraser, herlihy, herl-optik, optik1,
   optik2. Includes a regression test for the stale-traversal
   resurrection bug (dead predecessor validating) found during
   development. *)

module R = Harness.Registry

let sim_sls = List.map R.set_ops (R.Sim_backend.lineup "skiplist")
let native_sls = List.map R.set_ops (R.Native.lineup "skiplist")

let seq_cases =
  List.map
    (fun (module S : R.SET_OPS) ->
      Alcotest.test_case (S.name ^ " vs model") `Quick (fun () ->
          Dstruct.Sl_common.reset_states ();
          ignore
            (Tutil.seq_against_model
               (module S)
               ~capacity:0 ~key_range:128 ~nops:4_000 ~seed:19)))
    native_sls

let edge_cases =
  List.map
    (fun (module S : R.SET_OPS) ->
      Alcotest.test_case (S.name ^ " edge semantics") `Quick (fun () ->
          Dstruct.Sl_common.reset_states ();
          let t = S.create () in
          Alcotest.(check (option int)) "empty search" None (S.search t 5);
          Alcotest.(check (option int)) "empty delete" None (S.delete t 5);
          Alcotest.(check bool) "insert" true (S.insert t 5 50);
          Alcotest.(check bool) "dup" false (S.insert t 5 51);
          (* grow enough that multiple levels exist *)
          for i = 10 to 200 do
            ignore (S.insert t i i : bool)
          done;
          Alcotest.(check (option int)) "search mid" (Some 100)
            (S.search t 100);
          Alcotest.(check (option int)) "delete mid" (Some 100)
            (S.delete t 100);
          Alcotest.(check (option int)) "gone" None (S.search t 100);
          Alcotest.(check int) "size" 191 (S.size t);
          Alcotest.(check bool) "valid" true (S.validate t)))
    native_sls

let concurrent_cases =
  List.concat_map
    (fun (module S : R.SET_OPS) ->
      [
        Alcotest.test_case (S.name ^ " concurrent sim") `Quick
          (Tutil.concurrent_sim
             (module S)
             ~capacity:0 ~init_size:64 ~key_range:128 ~nthreads:6
             ~ops_per_thread:300 ~seed:3 ~topology:Tutil.uniform4);
        Alcotest.test_case (S.name ^ " concurrent sim (hot keys)") `Quick
          (Tutil.concurrent_sim
             (module S)
             ~capacity:0 ~init_size:8 ~key_range:16 ~nthreads:8
             ~ops_per_thread:400 ~seed:9 ~topology:Tutil.uniform4);
        Alcotest.test_case (S.name ^ " concurrent sim (xeon, skewed keys)")
          `Quick
          (Tutil.concurrent_sim
             (module S)
             ~capacity:0 ~init_size:32 ~key_range:64 ~nthreads:10
             ~ops_per_thread:300 ~seed:21 ~topology:Sim.Topology.xeon);
      ])
    sim_sls

let native_conc_cases =
  List.map
    (fun (module S : R.SET_OPS) ->
      Alcotest.test_case (S.name ^ " concurrent native") `Slow
        (Tutil.concurrent_native
           (module S)
           ~capacity:0 ~init_size:64 ~key_range:128 ~nthreads:4
           ~ops_per_thread:2_000 ~seed:7))
    native_sls

let lincheck_cases =
  List.concat_map
    (fun (module S : R.SET_OPS) ->
      List.map
        (fun seed ->
          Alcotest.test_case
            (Printf.sprintf "%s linearizable (seed %d)" S.name seed)
            `Quick
            (Tutil.lincheck_set
               (module S)
               ~nthreads:3 ~ops_per_thread:4 ~key_range:6 ~seed))
        [ 1; 2; 3; 4; 5; 6 ])
    sim_sls

(* Regression: repeated delete/insert of the same hot keys must not
   resurrect unlinked nodes or livelock (the dead-predecessor bug). The
   original failure needed ~10 threads and a zipf-hot neighbourhood. *)
let resurrection_regression (module S : R.SET_OPS) () =
  Dstruct.Sl_common.reset_states ();
  let t = S.create () in
  let z = Harness.Zipf.create ~range:64 ~alpha:0.9 in
  let rng0 = Harness.Rng.create 7919 in
  let n = ref 0 in
  while !n < 32 do
    if S.insert t (Harness.Zipf.sample z rng0) 1 then incr n
  done;
  let ins = Sim.Sched.loc 0 and del = Sim.Sched.loc 0 in
  ignore
    (Sim.Sched.run ~topology:Sim.Topology.xeon ~nthreads:10
       ~max_events:50_000_000 (fun tid ->
         let rng = Harness.Rng.create ((31 * 65_599) + tid) in
         for _ = 1 to 400 do
           let k = Harness.Zipf.sample z rng in
           match Harness.Rng.below rng 10 with
           | 0 | 1 | 2 | 3 ->
               if S.insert t k k then ignore (Sim.Sched.faa ins 1 : int)
           | 4 | 5 | 6 | 7 -> (
               match S.delete t k with
               | Some _ -> ignore (Sim.Sched.faa del 1 : int)
               | None -> ())
           | _ -> ignore (S.search t k : int option)
         done));
  Alcotest.(check bool) (S.name ^ " valid") true (S.validate t);
  Alcotest.(check int)
    (S.name ^ " conservation")
    (32 + Sim.Sched.read ins - Sim.Sched.read del)
    (S.size t)

(* Regression: the hot-pred starvation livelock (a deleter of the
   hottest key starving on a level-1 predecessor lock that failing
   inserters cycle through; broken by backoff jitter — see
   Rt.Backoff). Reproduces the original failure's shape at reduced
   scale; must complete well within the event budget. *)
let starvation_regression (module S : R.SET_OPS) () =
  Dstruct.Sl_common.reset_states ();
  let t = S.create () in
  let z = Harness.Zipf.create ~range:16_384 ~alpha:0.9 in
  let rng0 = Harness.Rng.create (42 + 7919) in
  let n = ref 0 in
  while !n < 8_192 do
    if S.insert t (Harness.Zipf.sample z rng0) 1 then incr n
  done;
  let st =
    Sim.Sched.run ~topology:Sim.Topology.xeon ~nthreads:40 ~ops_target:5_000
      ~max_events:120_000_000 (fun tid ->
        let rng = Harness.Rng.create ((42 * 65_599) + tid) in
        while not (Sim.Sched.stop_requested ()) do
          let k = Harness.Zipf.sample z rng in
          let p = Harness.Rng.below rng 100 in
          (if p < 20 then ignore (S.insert t k k : bool)
           else if p < 40 then ignore (S.delete t k : int option)
           else ignore (S.search t k : int option));
          Sim.Sched.tick ();
          Sim.Sched.work 64
        done)
  in
  Alcotest.(check bool) (S.name ^ " completed") true (st.Sim.Sched.ops >= 5_000);
  Alcotest.(check bool) (S.name ^ " valid") true (S.validate t)

let starvation_cases =
  List.map
    (fun (module S : R.SET_OPS) ->
      Alcotest.test_case (S.name ^ " hot-pred starvation regression") `Quick
        (starvation_regression (module S)))
    sim_sls

let regression_cases =
  List.map
    (fun (module S : R.SET_OPS) ->
      Alcotest.test_case
        (S.name ^ " hot-key resurrection regression")
        `Quick
        (resurrection_regression (module S)))
    sim_sls

(* Level distribution sanity: geometric with p = 1/2. *)
let test_level_distribution () =
  Dstruct.Sl_common.reset_states ();
  let n = 100_000 in
  let counts = Array.make Dstruct.Sl_common.max_level 0 in
  for _ = 1 to n do
    let l = Dstruct.Sl_common.random_toplevel 0 in
    counts.(l) <- counts.(l) + 1
  done;
  (* roughly half the nodes at level 0, a quarter at level 1, ... *)
  let frac l = float_of_int counts.(l) /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "level0 ~ 1/2 (%.3f)" (frac 0))
    true
    (abs_float (frac 0 -. 0.5) < 0.02);
  Alcotest.(check bool)
    (Printf.sprintf "level1 ~ 1/4 (%.3f)" (frac 1))
    true
    (abs_float (frac 1 -. 0.25) < 0.02);
  Alcotest.(check bool) "monotone decreasing" true
    (counts.(0) > counts.(1) && counts.(1) > counts.(2))

(* [validate]'s per-node checks, which no concurrent run drives to
   false: a linked node whose lock is held, or whose logical-deletion
   flag is set, breaks a quiescent skip list. *)
module Nat = Rt.Native_rt
module Herl = Dstruct.Sl_herlihy.Make (Nat)
module Opt = Dstruct.Sl_optik.Make (Nat)

let check_node_faults name ~validate ~lock ~unlock ~delete =
  Alcotest.(check bool) (name ^ " valid") true (validate ());
  lock ();
  Alcotest.(check bool) (name ^ " node lock held") false (validate ());
  unlock ();
  Alcotest.(check bool) (name ^ " node lock released") true (validate ());
  delete ();
  Alcotest.(check bool) (name ^ " linked node deleted") false (validate ())

let keys = [ 30; 10; 20; 40 ]

let test_validate_node_faults () =
  List.iter
    (fun (name, optik) ->
      let t = Herl.create ~optik () in
      List.iter (fun k -> ignore (Herl.insert t k k : bool)) keys;
      let n = Herl.next_at (Herl.next_at t.Herl.head 0) 0 in
      check_node_faults name
        ~validate:(fun () -> Herl.validate t)
        ~lock:(fun () -> Herl.OL.lock n.Herl.lock)
        ~unlock:(fun () -> Herl.OL.unlock n.Herl.lock)
        ~delete:(fun () -> Nat.set n.Herl.deleted true))
    [ ("herlihy", false); ("herl-optik", true) ];
  List.iter
    (fun (name, variant) ->
      let t = Opt.create ~variant () in
      List.iter (fun k -> ignore (Opt.insert t k k : bool)) keys;
      let n = Opt.next_at (Opt.next_at t.Opt.head 0) 0 in
      check_node_faults name
        ~validate:(fun () -> Opt.validate t)
        ~lock:(fun () -> Opt.OL.lock n.Opt.lock)
        ~unlock:(fun () -> Opt.OL.unlock n.Opt.lock)
        ~delete:(fun () -> Nat.set n.Opt.deleted true))
    [ ("optik1", `Validate); ("optik2", `Restart) ]

let () =
  Alcotest.run "skiplists"
    [
      ("sequential", seq_cases);
      ("edges", edge_cases);
      ("concurrent (sim)", concurrent_cases);
      ("concurrent (native)", native_conc_cases);
      ("linearizability", lincheck_cases);
      ("regressions", regression_cases @ starvation_cases);
      ( "levels",
        [ Alcotest.test_case "geometric levels" `Quick test_level_distribution ]
      );
      ( "validate",
        [
          Alcotest.test_case "held node lock and deleted node" `Quick
            test_validate_node_faults;
        ] );
    ]
