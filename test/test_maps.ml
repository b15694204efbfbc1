(* Tests for the array maps of §4.1: sequential model equivalence,
   capacity behaviour, concurrent conservation, linearizability, the
   OPTIK map's no-locking fast paths and the slots' cache-line layout. *)

module R = Harness.Registry

let sim_maps = List.map R.set_ops (R.Sim_backend.lineup "map")
let native_maps = List.map R.set_ops (R.Native.lineup "map")

let seq_cases =
  List.concat_map
    (fun (module S : R.SET_OPS) ->
      [
        Alcotest.test_case (S.name ^ " vs model") `Quick (fun () ->
            ignore
              (Tutil.seq_against_model
                 (module S)
                 ~capacity:32 ~key_range:48 ~nops:2_000 ~seed:11));
        Alcotest.test_case (S.name ^ " vs model (tight)") `Quick (fun () ->
            (* capacity pressure: range far exceeds capacity *)
            ignore
              (Tutil.seq_against_model
                 (module S)
                 ~capacity:4 ~key_range:16 ~nops:1_000 ~seed:23));
      ])
    native_maps

let capacity_cases =
  List.map
    (fun (module S : R.SET_OPS) ->
      Alcotest.test_case (S.name ^ " capacity limit") `Quick (fun () ->
          let t = S.create ~capacity:3 () in
          Alcotest.(check bool) "1" true (S.insert t 1 1);
          Alcotest.(check bool) "2" true (S.insert t 2 2);
          Alcotest.(check bool) "3" true (S.insert t 3 3);
          Alcotest.(check bool) "full" false (S.insert t 4 4);
          Alcotest.(check bool) "dup rejected" false (S.insert t 2 9);
          Alcotest.(check (option int)) "delete frees a slot" (Some 2)
            (S.delete t 2);
          Alcotest.(check bool) "slot reusable" true (S.insert t 4 4);
          Alcotest.(check int) "size" 3 (S.size t);
          Alcotest.(check bool) "valid" true (S.validate t)))
    native_maps

let invalid_key_cases =
  List.map
    (fun (module S : R.SET_OPS) ->
      Alcotest.test_case (S.name ^ " rejects key 0") `Quick (fun () ->
          let t = S.create ~capacity:4 () in
          List.iter
            (fun f ->
              match f () with
              | _ -> Alcotest.fail "expected Invalid_argument"
              | exception Invalid_argument _ -> ())
            [
              (fun () -> ignore (S.search t 0 : int option));
              (fun () -> ignore (S.insert t 0 1 : bool));
              (fun () -> ignore (S.delete t 0 : int option));
            ]))
    native_maps

let concurrent_cases =
  List.concat_map
    (fun (module S : R.SET_OPS) ->
      [
        Alcotest.test_case (S.name ^ " concurrent sim") `Quick
          (Tutil.concurrent_sim
             (module S)
             ~capacity:64 ~init_size:24 ~key_range:48 ~nthreads:6
             ~ops_per_thread:400 ~seed:3 ~topology:Tutil.uniform4);
        Alcotest.test_case (S.name ^ " concurrent sim (tiny, hot)") `Quick
          (Tutil.concurrent_sim
             (module S)
             ~capacity:4 ~init_size:2 ~key_range:8 ~nthreads:8
             ~ops_per_thread:300 ~seed:5 ~topology:Tutil.uniform4);
      ])
    sim_maps

let native_conc_cases =
  List.map
    (fun (module S : R.SET_OPS) ->
      Alcotest.test_case (S.name ^ " concurrent native") `Slow
        (Tutil.concurrent_native
           (module S)
           ~capacity:64 ~init_size:24 ~key_range:48 ~nthreads:4
           ~ops_per_thread:3_000 ~seed:7))
    native_maps

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
        [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ])
    sim_maps

(* OPTIK-specific: searches and infeasible updates never lock, so the
   version stays untouched by them. *)
let test_optik_map_fast_paths () =
  let module M = Dstruct.Maps.Optik_based (Rt.Native_rt) in
  let module OL = M.OL in
  let t = M.create ~capacity:8 () in
  assert (M.insert t 5 55);
  let v0 = OL.get_version t.M.lock in
  ignore (M.search t 5 : int option);
  ignore (M.search t 6 : int option);
  ignore (M.insert t 5 99 : bool);
  (* dup: no lock *)
  ignore (M.delete t 6 : int option);
  (* absent: no lock *)
  let v1 = OL.get_version t.M.lock in
  Alcotest.(check bool) "version untouched by read-only ops" true
    (OL.same_version v0 v1);
  ignore (M.delete t 5 : int option);
  let v2 = OL.get_version t.M.lock in
  Alcotest.(check bool) "version advanced by a real delete" false
    (OL.same_version v0 v2)

(* The §4.1 eager-search ablation variant must be just as correct. *)
let test_eager_search_correct () =
  let module M = Dstruct.Maps.Optik_based (Rt.Native_rt) in
  let t = M.create ~capacity:16 ~eager_search:true () in
  for i = 1 to 10 do
    assert (M.insert t i (i * 10))
  done;
  for i = 1 to 10 do
    Alcotest.(check (option int)) "hit" (Some (i * 10)) (M.search t i)
  done;
  Alcotest.(check (option int)) "miss" None (M.search t 11);
  ignore (M.delete t 5 : int option);
  Alcotest.(check (option int)) "after delete" None (M.search t 5)

let test_eager_search_concurrent () =
  let module M = Dstruct.Maps.Optik_based (Sim.Sim_rt) in
  let t = M.create ~capacity:16 ~eager_search:true () in
  for i = 1 to 8 do
    assert (M.insert t i i)
  done;
  let torn = Sim.Sched.loc 0 in
  ignore
    (Sim.Sched.run ~topology:Tutil.uniform4 ~nthreads:6 (fun tid ->
         let rng = Harness.Rng.create (tid + 9) in
         for _ = 1 to 300 do
           let k = 1 + Harness.Rng.below rng 16 in
           if tid < 2 then (
             ignore (M.delete t k : int option);
             ignore (M.insert t k k : bool))
           else
             match M.search t k with
             | Some v when v <> k ->
                 ignore (Sim.Sched.faa torn 1 : int)
             | _ -> ()
         done));
  Alcotest.(check int) "no torn reads" 0 (Sim.Sched.read torn);
  Alcotest.(check bool) "valid" true (M.validate t)

(* The Figure 6 array layout, priced by the simulator: [pairs_per_line]
   = 4 slots share a streaming line, each key with its value, and slot 4
   opens the next line. Every [after] runs in a fresh simulation (all
   lines cold): once [a] has pulled its line in, reading [b] costs the
   1-cycle cached-read discount exactly when [b] is on the same line, and
   a full miss otherwise. *)
let test_slot_layout () =
  let module M = Dstruct.Maps.Optik_based (Sim.Sim_rt) in
  let t = M.create ~capacity:8 () in
  let after ?(via = []) a b =
    let d = ref 0 in
    ignore
      (Sim.Sched.run ~topology:Sim.Topology.xeon ~nthreads:1 (fun _ ->
           ignore (Sim.Sched.read a : int);
           List.iter (fun l -> ignore (Sim.Sched.read l : int)) via;
           let t0 = Sim.Sched.now () in
           ignore (Sim.Sched.read b : int option);
           d := Sim.Sched.now () - t0));
    !d
  in
  let keys = t.M.keys and vals = t.M.vals in
  for i = 0 to 7 do
    Alcotest.(check int) (Printf.sprintf "key %d with its value" i) 1
      (after keys.(i) vals.(i))
  done;
  for i = 1 to 3 do
    Alcotest.(check int) (Printf.sprintf "slot %d on slot 0's line" i) 1
      (after keys.(0) vals.(i));
    Alcotest.(check int) (Printf.sprintf "slot %d on slot 4's line" (4 + i)) 1
      (after keys.(4) vals.(4 + i))
  done;
  Alcotest.(check bool) "slot 4 opens a new line" true
    (after keys.(3) vals.(4) > 1);
  Alcotest.(check bool) "slot 3 is not on slot 4's line" true
    (after keys.(4) vals.(3) > 1);
  (* streaming: a cached slot still reads in 1 cycle after another line
     was touched in between, where a pointer line pays the full hit *)
  Alcotest.(check int) "lines are streaming" 1
    (after ~via:[ keys.(4) ] keys.(0) vals.(0))

let () =
  Alcotest.run "maps"
    [
      ("sequential", seq_cases);
      ("capacity", capacity_cases);
      ("key validation", invalid_key_cases);
      ("concurrent (sim)", concurrent_cases);
      ("concurrent (native)", native_conc_cases);
      ("linearizability", lincheck_cases);
      ( "optik specifics",
        [
          Alcotest.test_case "fast paths don't lock" `Quick
            test_optik_map_fast_paths;
          Alcotest.test_case "eager search correct" `Quick
            test_eager_search_correct;
          Alcotest.test_case "eager search concurrent" `Quick
            test_eager_search_concurrent;
        ] );
      ("layout", [ Alcotest.test_case "slot lines" `Quick test_slot_layout ]);
    ]
