(* Tests for the external BSTs (the BST-TK-style extension; DESIGN.md
   maps it to §6 of the paper): sequential model equivalence, routing
   invariants, concurrent conservation, linearizability, and the
   dead-node (unlinked parent stays locked) discipline. *)

module R = Harness.Registry

let sim_bsts = List.map R.set_ops (R.Sim_backend.lineup "bst")
let native_bsts = List.map R.set_ops (R.Native.lineup "bst")

let seq_cases =
  List.concat_map
    (fun (module S : R.SET_OPS) ->
      [
        Alcotest.test_case (S.name ^ " vs model") `Quick (fun () ->
            ignore
              (Tutil.seq_against_model
                 (module S)
                 ~capacity:0 ~key_range:256 ~nops:5_000 ~seed:37));
        Alcotest.test_case (S.name ^ " vs model (dense keys)") `Quick
          (fun () ->
            ignore
              (Tutil.seq_against_model
                 (module S)
                 ~capacity:0 ~key_range:12 ~nops:2_000 ~seed:41));
      ])
    native_bsts

let edge_cases =
  List.map
    (fun (module S : R.SET_OPS) ->
      Alcotest.test_case (S.name ^ " edge semantics") `Quick (fun () ->
          let t = S.create () in
          Alcotest.(check (option int)) "empty search" None (S.search t 5);
          Alcotest.(check (option int)) "empty delete" None (S.delete t 5);
          Alcotest.(check bool) "insert" true (S.insert t 5 50);
          Alcotest.(check bool) "dup" false (S.insert t 5 51);
          (* exercise both rotations of the leaf split *)
          Alcotest.(check bool) "smaller key" true (S.insert t 2 20);
          Alcotest.(check bool) "larger key" true (S.insert t 9 90);
          Alcotest.(check (option int)) "left leaf" (Some 20) (S.search t 2);
          Alcotest.(check (option int)) "right leaf" (Some 90) (S.search t 9);
          (* deleting the middle key leaves the others reachable *)
          Alcotest.(check (option int)) "delete" (Some 50) (S.delete t 5);
          Alcotest.(check (option int)) "still left" (Some 20) (S.search t 2);
          Alcotest.(check (option int)) "still right" (Some 90) (S.search t 9);
          Alcotest.(check int) "size" 2 (S.size t);
          Alcotest.(check bool) "valid" true (S.validate t);
          (* drain completely and reuse *)
          Alcotest.(check (option int)) "drain 2" (Some 20) (S.delete t 2);
          Alcotest.(check (option int)) "drain 9" (Some 90) (S.delete t 9);
          Alcotest.(check int) "empty again" 0 (S.size t);
          Alcotest.(check bool) "insert after drain" true (S.insert t 7 70)))
    native_bsts

let concurrent_cases =
  List.concat_map
    (fun (module S : R.SET_OPS) ->
      [
        Alcotest.test_case (S.name ^ " concurrent sim") `Quick
          (Tutil.concurrent_sim
             (module S)
             ~capacity:0 ~init_size:64 ~key_range:128 ~nthreads:6
             ~ops_per_thread:400 ~seed:3 ~topology:Tutil.uniform4);
        Alcotest.test_case (S.name ^ " concurrent sim (hot keys)") `Quick
          (Tutil.concurrent_sim
             (module S)
             ~capacity:0 ~init_size:4 ~key_range:8 ~nthreads:8
             ~ops_per_thread:400 ~seed:11 ~topology:Tutil.uniform4);
        Alcotest.test_case (S.name ^ " concurrent sim (xeon)") `Quick
          (Tutil.concurrent_sim
             (module S)
             ~capacity:0 ~init_size:32 ~key_range:64 ~nthreads:12
             ~ops_per_thread:300 ~seed:13 ~topology:Sim.Topology.xeon);
      ])
    sim_bsts

let native_conc_cases =
  List.map
    (fun (module S : R.SET_OPS) ->
      Alcotest.test_case (S.name ^ " concurrent native") `Slow
        (Tutil.concurrent_native
           (module S)
           ~capacity:0 ~init_size:64 ~key_range:128 ~nthreads:4
           ~ops_per_thread:3_000 ~seed:7))
    native_bsts

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
    sim_bsts

(* The unlinked parent of a deleted leaf keeps its OPTIK lock forever
   (the §4.2 discipline that makes stale traversals fail validation). *)
module BstN = Dstruct.Bst_optik.Make (Rt.Native_rt)

let test_dead_parent_stays_locked () =
  let t = BstN.create () in
  assert (BstN.insert t 10 1);
  assert (BstN.insert t 20 2);
  (* shape: root1.left = A{key=10, left=min-sentinel, right=B};
     B{key=20, left=Leaf 10, right=Leaf 20}. [delete 20] unlinks B. *)
  let victim_parent =
    match Rt.Native_rt.get t.BstN.root.BstN.left with
    | BstN.Node root1 -> (
        match Rt.Native_rt.get root1.BstN.left with
        | BstN.Node a -> (
            match Rt.Native_rt.get a.BstN.right with
            | BstN.Node b -> b
            | BstN.Leaf _ -> Alcotest.fail "unexpected shape (B)")
        | BstN.Leaf _ -> Alcotest.fail "unexpected shape (A)")
    | BstN.Leaf _ -> Alcotest.fail "unexpected shape (root1)"
  in
  ignore (BstN.delete t 20 : int option);
  Alcotest.(check bool) "unlinked internal stays locked" true
    (BstN.OL.is_locked (BstN.OL.get_version victim_parent.BstN.nlock));
  Alcotest.(check (option int)) "sibling still reachable" (Some 1)
    (BstN.search t 10);
  Alcotest.(check bool) "valid" true (BstN.validate t)

(* [validate]'s per-node check, which no concurrent run drives to
   false: a reachable internal node whose lock is held breaks a
   quiescent tree. *)
let test_validate_held_node_lock () =
  let t = BstN.create () in
  List.iter (fun k -> ignore (BstN.insert t k k : bool)) [ 10; 20; 5 ];
  let n =
    match Rt.Native_rt.get t.BstN.root.BstN.left with
    | BstN.Node root1 -> (
        match Rt.Native_rt.get root1.BstN.left with
        | BstN.Node n -> n
        | BstN.Leaf _ -> Alcotest.fail "unexpected shape (n)")
    | BstN.Leaf _ -> Alcotest.fail "unexpected shape (root1)"
  in
  Alcotest.(check bool) "valid" true (BstN.validate t);
  BstN.OL.lock n.BstN.nlock;
  Alcotest.(check bool) "node lock held" false (BstN.validate t);
  BstN.OL.unlock n.BstN.nlock;
  Alcotest.(check bool) "node lock released" true (BstN.validate t)

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
               ~capacity:0 ~key_range:32 ~nops:400 ~seed);
          true))
    native_bsts

let () =
  Alcotest.run "bsts"
    [
      ("sequential", seq_cases);
      ("edges", edge_cases);
      ("concurrent (sim)", concurrent_cases);
      ("concurrent (native)", native_conc_cases);
      ("linearizability", lincheck_cases);
      ( "dead nodes",
        [
          Alcotest.test_case "unlinked parent stays locked" `Quick
            test_dead_parent_stays_locked;
        ] );
      ( "validate",
        [
          Alcotest.test_case "held node lock" `Quick
            test_validate_held_node_lock;
        ] );
      ("property", qcheck_cases);
    ]
