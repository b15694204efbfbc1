(* Tests for the hash tables of §5.2: lazy-gl, java, java-optik, optik,
   optik-gl, optik-map. *)

module R = Harness.Registry

let sim_hts = List.map R.set_ops (R.Sim_backend.lineup "hashtable")
let native_hts = List.map R.set_ops (R.Native.lineup "hashtable")

(* optik-map buckets have capacity 8; with enough buckets relative to the
   key range the maps suite below never overflows. *)
let seq_cases =
  List.map
    (fun e ->
      let (module S : R.SET_OPS) = R.set_ops e in
      Alcotest.test_case (S.name ^ " vs model") `Quick (fun () ->
          ignore
            (Tutil.seq_against_model e
               ~capacity:64 ~key_range:128 ~nops:4_000 ~seed:29)))
    (R.Native.lineup "hashtable")

let edge_cases =
  List.map
    (fun (module S : R.SET_OPS) ->
      Alcotest.test_case (S.name ^ " edge semantics") `Quick (fun () ->
          let t = S.create ~capacity:16 () in
          Alcotest.(check (option int)) "empty" None (S.search t 42);
          Alcotest.(check bool) "insert" true (S.insert t 42 1);
          Alcotest.(check bool) "dup" false (S.insert t 42 2);
          (* collide deliberately: all keys land somewhere among 16
             buckets; insert enough to force chains *)
          for i = 1 to 40 do
            ignore (S.insert t (100 + i) i : bool)
          done;
          Alcotest.(check int) "size" 41 (S.size t);
          Alcotest.(check (option int)) "chained search" (Some 17)
            (S.search t 117);
          Alcotest.(check (option int)) "chained delete" (Some 17)
            (S.delete t 117);
          Alcotest.(check (option int)) "gone" None (S.search t 117);
          Alcotest.(check bool) "valid" true (S.validate t)))
    native_hts

let concurrent_cases =
  List.concat_map
    (fun (module S : R.SET_OPS) ->
      [
        Alcotest.test_case (S.name ^ " concurrent sim") `Quick
          (Tutil.concurrent_sim
             (module S)
             ~capacity:32 ~init_size:32 ~key_range:64 ~nthreads:6
             ~ops_per_thread:400 ~seed:3 ~topology:Tutil.uniform4);
        Alcotest.test_case (S.name ^ " concurrent sim (few buckets)") `Quick
          (Tutil.concurrent_sim
             (module S)
             ~capacity:2 ~init_size:8 ~key_range:16 ~nthreads:8
             ~ops_per_thread:300 ~seed:9 ~topology:Tutil.uniform4);
      ])
    sim_hts

let native_conc_cases =
  List.map
    (fun (module S : R.SET_OPS) ->
      Alcotest.test_case (S.name ^ " concurrent native") `Slow
        (Tutil.concurrent_native
           (module S)
           ~capacity:32 ~init_size:32 ~key_range:64 ~nthreads:4
           ~ops_per_thread:2_000 ~seed:7))
    native_hts

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
    sim_hts

(* java-optik's whole point: feasible updates validated by version skip
   the second traversal. Count them. *)
let test_java_optik_second_traversals () =
  Sim.Sim_rt.Probe.reset_all ();
  let module H = Dstruct.Ht.Java_optik (Sim.Sim_rt) in
  let t = H.create ~capacity:16 () in
  ignore
    (Sim.Sched.run ~topology:Tutil.uniform4 ~nthreads:4 (fun tid ->
         let rng = Harness.Rng.create (tid + 77) in
         for i = 1 to 300 do
           let k = 1 + Harness.Rng.below rng 32 in
           if Harness.Rng.below rng 2 = 0 then ignore (H.insert t k i : bool)
           else ignore (H.delete t k : int option)
         done));
  let second = Sim.Sim_rt.Probe.count H.second_traversals in
  Alcotest.(check bool)
    (Printf.sprintf "second traversals are the exception (%d/2400)" second)
    true
    (second < 1200);
  Alcotest.(check bool) "valid" true (H.validate t)

(* java (unoptimized) must also reject duplicate keys under concurrency:
   conservation test with duplicate-heavy workload. *)
let test_java_no_duplicates_under_race () =
  let module H = Dstruct.Ht.Java (Sim.Sim_rt) in
  let t = H.create ~capacity:4 () in
  ignore
    (Sim.Sched.run ~topology:Tutil.uniform4 ~nthreads:8 (fun _ ->
         for _ = 1 to 100 do
           ignore (H.insert t 7 7 : bool);
           ignore (H.insert t 11 11 : bool)
         done));
  Alcotest.(check bool) "no duplicate chains" true (H.validate t);
  Alcotest.(check int) "exactly two keys" 2 (H.size t)

(* Per-segment resizing (§5.2): growth happens, contents survive, and
   concurrent searches during resizes stay correct. *)
let test_resize_grows_and_preserves () =
  Sim.Sim_rt.Probe.reset_all ();
  let module H = Dstruct.Ht.Java (Rt.Native_rt) in
  let t = H.create ~capacity:8 () in
  for i = 1 to 2_000 do
    Alcotest.(check bool) (Printf.sprintf "insert %d" i) true (H.insert t i i)
  done;
  Alcotest.(check bool) "resizes happened" true
    (Rt.Native_rt.Probe.count H.resizes > 0);
  for i = 1 to 2_000 do
    if H.search t i <> Some i then Alcotest.failf "lost key %d after resize" i
  done;
  Alcotest.(check int) "size" 2_000 (H.size t);
  Alcotest.(check bool) "valid" true (H.validate t);
  for i = 1 to 2_000 do
    if H.delete t i <> Some i then Alcotest.failf "delete %d failed" i
  done;
  Alcotest.(check int) "drained" 0 (H.size t)

let test_resize_concurrent_sim () =
  let module H = Dstruct.Ht.Java_optik (Sim.Sim_rt) in
  let t = H.create ~capacity:4 () in
  let ins = Sim.Sched.loc 0 and del = Sim.Sched.loc 0 in
  ignore
    (Sim.Sched.run ~topology:Tutil.uniform4 ~nthreads:6 (fun tid ->
         let rng = Harness.Rng.create (tid + 23) in
         for _ = 1 to 400 do
           let k = 1 + Harness.Rng.below rng 512 in
           match Harness.Rng.below rng 4 with
           | 0 | 1 ->
               if H.insert t k k then ignore (Sim.Sched.faa ins 1 : int)
           | 2 -> (
               match H.delete t k with
               | Some _ -> ignore (Sim.Sched.faa del 1 : int)
               | None -> ())
           | _ -> ignore (H.search t k : int option)
         done));
  Alcotest.(check bool) "resizes under concurrency" true
    (Sim.Sim_rt.Probe.count H.resizes > 0);
  Alcotest.(check int) "conservation"
    (Sim.Sched.read ins - Sim.Sched.read del)
    (H.size t);
  Alcotest.(check bool) "valid" true (H.validate t)

let () =
  Alcotest.run "hashtables"
    [
      ("sequential", seq_cases);
      ("edges", edge_cases);
      ("concurrent (sim)", concurrent_cases);
      ("concurrent (native)", native_conc_cases);
      ("linearizability", lincheck_cases);
      ( "java specifics",
        [
          Alcotest.test_case "java-optik skips second traversal" `Quick
            test_java_optik_second_traversals;
          Alcotest.test_case "java no duplicates under race" `Quick
            test_java_no_duplicates_under_race;
          Alcotest.test_case "resize grows and preserves" `Quick
            test_resize_grows_and_preserves;
          Alcotest.test_case "resize under concurrency" `Quick
            test_resize_concurrent_sim;
        ] );
    ]
