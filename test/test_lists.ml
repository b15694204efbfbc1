(* Tests for the linked lists of §4.2 / §5.1: all seven variants of
   Figure 9. Sequential model equivalence, concurrent conservation (sim +
   native), linearizability, sentinel-key validation, and the node-cache
   behaviour. *)

module R = Harness.Registry

let sim_lists = List.map R.set_ops (R.Sim_backend.lineup "list")
let native_lists = List.map R.set_ops (R.Native.lineup "list")

let seq_cases =
  List.map
    (fun (module S : R.SET_OPS) ->
      Alcotest.test_case (S.name ^ " vs model") `Quick (fun () ->
          ignore
            (Tutil.seq_against_model
               (module S)
               ~capacity:0 ~key_range:64 ~nops:3_000 ~seed:17)))
    native_lists

let sentinel_cases =
  List.map
    (fun (module S : R.SET_OPS) ->
      Alcotest.test_case (S.name ^ " rejects sentinel keys") `Quick (fun () ->
          let t = S.create () in
          List.iter
            (fun k ->
              match S.insert t k k with
              | _ -> Alcotest.fail "expected Invalid_argument"
              | exception Invalid_argument _ -> ())
            [ min_int; max_int ]))
    native_lists

let edge_cases =
  List.map
    (fun (module S : R.SET_OPS) ->
      Alcotest.test_case (S.name ^ " edge semantics") `Quick (fun () ->
          let t = S.create () in
          Alcotest.(check (option int)) "empty search" None (S.search t 5);
          Alcotest.(check (option int)) "empty delete" None (S.delete t 5);
          Alcotest.(check bool) "first insert" true (S.insert t 5 50);
          Alcotest.(check bool) "dup insert" false (S.insert t 5 51);
          Alcotest.(check (option int)) "search hit" (Some 50) (S.search t 5);
          (* boundary keys near the sentinels *)
          Alcotest.(check bool) "min+1" true (S.insert t (min_int + 1) 1);
          Alcotest.(check bool) "max-1" true (S.insert t (max_int - 1) 2);
          Alcotest.(check int) "size" 3 (S.size t);
          Alcotest.(check (option int)) "delete hit" (Some 50) (S.delete t 5);
          Alcotest.(check (option int)) "delete again" None (S.delete t 5);
          Alcotest.(check bool) "valid" true (S.validate t)))
    native_lists

let concurrent_cases =
  List.concat_map
    (fun (module S : R.SET_OPS) ->
      [
        Alcotest.test_case (S.name ^ " concurrent sim") `Quick
          (Tutil.concurrent_sim
             (module S)
             ~capacity:0 ~init_size:32 ~key_range:64 ~nthreads:6
             ~ops_per_thread:300 ~seed:3 ~topology:Tutil.uniform4);
        Alcotest.test_case (S.name ^ " concurrent sim (hot keys)") `Quick
          (Tutil.concurrent_sim
             (module S)
             ~capacity:0 ~init_size:4 ~key_range:8 ~nthreads:8
             ~ops_per_thread:300 ~seed:9 ~topology:Tutil.uniform4);
        Alcotest.test_case (S.name ^ " concurrent sim (oversubscribed)")
          `Quick
          (Tutil.concurrent_sim
             (module S)
             ~capacity:0 ~init_size:16 ~key_range:32 ~nthreads:6
             ~ops_per_thread:200 ~seed:13
             ~topology:(Sim.Topology.uniform ~n:2 ()));
      ])
    sim_lists

let native_conc_cases =
  List.map
    (fun (module S : R.SET_OPS) ->
      Alcotest.test_case (S.name ^ " concurrent native") `Slow
        (Tutil.concurrent_native
           (module S)
           ~capacity:0 ~init_size:32 ~key_range:64 ~nthreads:4
           ~ops_per_thread:2_000 ~seed:7))
    native_lists

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
        [ 1; 2; 3; 4; 5; 6; 7; 8 ])
    sim_lists

(* ------------------------------------------------------------------ *)
(* Node caching specifics                                              *)

module LlN = Dstruct.Ll_optik.Make (Rt.Native_rt)
module LlS = Dstruct.Ll_optik.Make (Sim.Sim_rt)

let test_cache_hits_counted () =
  Sim.Sim_rt.Probe.reset_all ();
  let module Ll = Dstruct.Ll_optik.Make (Sim.Sim_rt) in
  let t = Ll.create ~cache:true () in
  for i = 1 to 100 do
    ignore (Ll.insert t i i : bool)
  done;
  ignore
    (Sim.Sched.run ~topology:Tutil.uniform4 ~nthreads:2 (fun tid ->
         (* ascending scans maximize locality: the cache should hit *)
         for i = 1 to 99 do
           ignore (Ll.search t ((tid * 0) + i) : int option)
         done));
  let hits = Sim.Sim_rt.Probe.count Ll.cache_hits in
  let tries = Sim.Sim_rt.Probe.count Ll.cache_tries in
  Alcotest.(check bool)
    (Printf.sprintf "cache used (%d/%d)" hits tries)
    true
    (hits > 0 && tries >= hits)

let test_cache_correct_after_entry_deletion () =
  (* Delete the cached entry point; the next op must fall back to the
     head and stay correct. Single-threaded is enough to exercise the
     validity check. *)
  let t = LlN.create ~cache:true () in
  for i = 1 to 20 do
    ignore (LlN.insert t i i : bool)
  done;
  (* search 10 caches some pred <= 10 *)
  Alcotest.(check (option int)) "warm" (Some 10) (LlN.search t 10);
  (* delete everything at or below the likely cache entry *)
  for i = 1 to 10 do
    ignore (LlN.delete t i : int option)
  done;
  Alcotest.(check (option int)) "post-delete search correct" (Some 15)
    (LlN.search t 15);
  Alcotest.(check (option int)) "deleted keys gone" None (LlN.search t 9);
  Alcotest.(check bool) "valid" true (LlN.validate t)

let test_deleted_node_lock_stays_locked () =
  (* §4.2: the victim's OPTIK lock is never released. *)
  let t = LlN.create () in
  ignore (LlN.insert t 5 5 : bool);
  ignore (LlN.insert t 6 6 : bool);
  (* capture the node before deletion *)
  let node =
    match Rt.Native_rt.get t.LlN.head.LlN.next with
    | Some n -> n
    | None -> Alcotest.fail "missing node"
  in
  Alcotest.(check int) "captured the right node" 5 node.LlN.key;
  ignore (LlN.delete t 5 : int option);
  Alcotest.(check bool) "victim lock permanently locked" true
    (LlN.OL.is_locked (LlN.OL.get_version node.LlN.lock))

(* qcheck: random op sequences on every list match the model. *)
let qcheck_cases =
  List.map
    (fun (module S : R.SET_OPS) ->
      Tutil.qcheck_case ~count:30
        (S.name ^ " random ops vs model")
        QCheck2.Gen.(int_range 0 10_000)
        (fun seed ->
          ignore
            (Tutil.seq_against_model
               (module S)
               ~capacity:0 ~key_range:24 ~nops:300 ~seed);
          true))
    native_lists

let () =
  Alcotest.run "lists"
    [
      ("sequential", seq_cases);
      ("sentinels", sentinel_cases);
      ("edges", edge_cases);
      ("concurrent (sim)", concurrent_cases);
      ("concurrent (native)", native_conc_cases);
      ("linearizability", lincheck_cases);
      ( "node cache",
        [
          Alcotest.test_case "hits counted" `Quick test_cache_hits_counted;
          Alcotest.test_case "correct after entry deletion" `Quick
            test_cache_correct_after_entry_deletion;
          Alcotest.test_case "victim lock never released" `Quick
            test_deleted_node_lock_stays_locked;
        ] );
      ("property", qcheck_cases);
    ]
