(* Tests for the deterministic multicore simulator: event heap,
   topologies, determinism, contention behaviour, preemption windows,
   co-located cache lines and run control. *)

module Sched = Sim.Sched
module Topology = Sim.Topology

let uniform4 = Topology.uniform ~n:4 ()

(* ------------------------------------------------------------------ *)
(* Event heap                                                          *)

let test_eheap_order () =
  let h = Sim.Eheap.create ~dummy:(-1) in
  List.iter (fun t -> Sim.Eheap.push h t t) [ 5; 3; 9; 1; 7; 3; 0 ];
  let out = ref [] in
  while not (Sim.Eheap.is_empty h) do
    let t, v = Sim.Eheap.pop h in
    Alcotest.(check int) "key=payload" t v;
    out := t :: !out
  done;
  Alcotest.(check (list int)) "sorted" [ 9; 7; 5; 3; 3; 1; 0 ] !out

let test_eheap_fifo_ties () =
  let h = Sim.Eheap.create ~dummy:"" in
  Sim.Eheap.push h 4 "a";
  Sim.Eheap.push h 4 "b";
  Sim.Eheap.push h 4 "c";
  let _, a = Sim.Eheap.pop h in
  let _, b = Sim.Eheap.pop h in
  let _, c = Sim.Eheap.pop h in
  Alcotest.(check (list string)) "insertion order on ties" [ "a"; "b"; "c" ]
    [ a; b; c ]

let test_eheap_min_time () =
  let h = Sim.Eheap.create ~dummy:() in
  Alcotest.(check int) "empty = max_int" max_int (Sim.Eheap.min_time h);
  Sim.Eheap.push h 42 ();
  Sim.Eheap.push h 17 ();
  Alcotest.(check int) "min" 17 (Sim.Eheap.min_time h)

let eheap_qcheck =
  Tutil.qcheck_case ~count:100 "eheap pops sorted"
    QCheck2.Gen.(list_size (int_range 0 200) (int_range 0 10_000))
    (fun keys ->
      let h = Sim.Eheap.create ~dummy:(-1) in
      List.iter (fun k -> Sim.Eheap.push h k k) keys;
      let out = ref [] in
      while not (Sim.Eheap.is_empty h) do
        out := fst (Sim.Eheap.pop h) :: !out
      done;
      List.rev !out = List.sort compare keys)

(* Pop order is a total order — (time, seq) keys are unique — so an
   interleaved push/pop workload must drain to exactly the sorted
   (key, insertion-index) sequence, FIFO within equal keys. This is the
   property that makes the heap's internal layout irrelevant to
   simulator determinism. *)
let eheap_qcheck_total_order =
  Tutil.qcheck_case ~count:100 "eheap pop order total (FIFO ties)"
    QCheck2.Gen.(list_size (int_range 0 300) (int_range 0 50))
    (fun keys ->
      let h = Sim.Eheap.create ~dummy:(0, 0) in
      let expected = List.mapi (fun i k -> (k, i)) keys in
      let out = ref [] in
      (* interleave: after every third push, pop one *)
      List.iteri
        (fun i (k, idx) ->
          Sim.Eheap.push h k (k, idx);
          if i mod 3 = 2 && not (Sim.Eheap.is_empty h) then
            out := snd (Sim.Eheap.pop h) :: !out)
        expected;
      while not (Sim.Eheap.is_empty h) do
        out := snd (Sim.Eheap.pop h) :: !out
      done;
      (* Every popped element's key must be <= any key still in the heap
         at pop time; globally, a full drain (no interleaved pushes after
         a pop) would be the stable sort. Check the weaker invariant that
         holds under interleaving: the multiset matches, and within equal
         keys the insertion order is preserved in the final sequence of a
         pure drain. *)
      let popped = List.rev !out in
      List.sort compare popped = List.sort compare expected
      &&
      (* pure-drain FIFO check on the same keys *)
      let h2 = Sim.Eheap.create ~dummy:(0, 0) in
      List.iter (fun (k, i) -> Sim.Eheap.push h2 k (k, i)) expected;
      let out2 = ref [] in
      while not (Sim.Eheap.is_empty h2) do
        out2 := snd (Sim.Eheap.pop h2) :: !out2
      done;
      List.rev !out2 = List.stable_sort (fun (a, _) (b, _) -> compare a b) expected)

(* Popped payload slots must not retain their values: push boxed
   payloads, pop them all, and check through a [Weak] pointer that the
   heap no longer keeps them alive (the space-leak fix — a completed
   thread's continuation closure used to stay reachable in the popped
   slot until overwritten by a later push). *)
let test_eheap_no_retention () =
  let h = Sim.Eheap.create ~dummy:[||] in
  let w = Weak.create 8 in
  for i = 0 to 7 do
    let payload = Array.make 64 i in
    Weak.set w i (Some payload);
    Sim.Eheap.push h i payload
  done;
  while not (Sim.Eheap.is_empty h) do
    ignore (Sim.Eheap.pop h)
  done;
  Gc.full_major ();
  Gc.full_major ();
  for i = 0 to 7 do
    Alcotest.(check bool)
      (Printf.sprintf "payload %d collected after pop" i)
      false (Weak.check w i)
  done

(* ------------------------------------------------------------------ *)
(* Topologies                                                          *)

let test_topology_shapes () =
  Alcotest.(check int) "xeon contexts" 40 (Topology.n_contexts Topology.xeon);
  Alcotest.(check int) "opteron contexts" 48
    (Topology.n_contexts Topology.opteron);
  (* SMT siblings on the xeon share a core: context i and i+20. *)
  let c0 = Topology.xeon.Topology.contexts.(0) in
  let c20 = Topology.xeon.Topology.contexts.(20) in
  Alcotest.(check int) "smt sibling same core" c0.Topology.core
    c20.Topology.core

let test_topology_costs () =
  let t = Topology.xeon in
  let same_core = Topology.transfer t ~src:0 ~dst:20 in
  let same_socket = Topology.transfer t ~src:0 ~dst:2 in
  let cross = Topology.transfer t ~src:0 ~dst:1 in
  Alcotest.(check bool) "smt < socket" true (same_core < same_socket);
  Alcotest.(check bool) "socket < cross" true (same_socket < cross);
  Alcotest.(check int) "cold from memory" t.Topology.c_mem
    (Topology.transfer t ~src:(-1) ~dst:3)

let test_opteron_noncoherent_costlier () =
  let x = Topology.xeon and o = Topology.opteron in
  Alcotest.(check bool) "opteron cross-socket costlier" true
    (o.Topology.c_cross > x.Topology.c_cross)

(* ------------------------------------------------------------------ *)
(* Basic execution                                                     *)

let test_counter_exact () =
  let c = Sched.loc 0 in
  let st =
    Sched.run ~topology:uniform4 ~nthreads:8 (fun _ ->
        for _ = 1 to 500 do
          let rec loop () =
            let v = Sched.read c in
            if not (Sched.cas c v (v + 1)) then loop ()
          in
          loop ()
        done)
  in
  Alcotest.(check int) "cas counter exact" 4000 (Sched.read c);
  Alcotest.(check bool) "cas failures happened" true (st.Sched.cas_failed > 0)

let test_faa_exact () =
  let c = Sched.loc 0 in
  ignore
    (Sched.run ~topology:uniform4 ~nthreads:8 (fun _ ->
         for _ = 1 to 500 do
           ignore (Sched.faa c 1 : int)
         done));
  Alcotest.(check int) "faa counter exact" 4000 (Sched.read c)

let test_determinism () =
  let run () =
    let c = Sched.loc 0 in
    let st =
      Sched.run ~topology:Topology.xeon ~nthreads:12 (fun tid ->
          let rng = Harness.Rng.create tid in
          for _ = 1 to 300 do
            if Harness.Rng.below rng 3 = 0 then ignore (Sched.faa c 1 : int)
            else ignore (Sched.read c : int);
            Sched.work 20
          done)
    in
    (st.Sched.wall_cycles, st.Sched.reads, st.Sched.cas_failed, Sched.read c)
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "two identical runs" true (a = b)

let test_outside_run_direct () =
  let c = Sched.loc 7 in
  Alcotest.(check int) "read outside run" 7 (Sched.read c);
  Sched.write c 9;
  Alcotest.(check bool) "cas outside run" true (Sched.cas c 9 10);
  Alcotest.(check int) "faa outside run" 10 (Sched.faa c 5);
  Alcotest.(check int) "value" 15 (Sched.read c)

let test_contention_scaling () =
  (* Per-op cost under 8-thread contention must exceed the single-thread
     cost: the whole point of the coherence model. *)
  let cost nthreads =
    let c = Sched.loc 0 in
    let st =
      Sched.run ~topology:Topology.xeon ~nthreads (fun _ ->
          for _ = 1 to 1000 do
            let rec loop () =
              let v = Sched.read c in
              if not (Sched.cas c v (v + 1)) then loop ()
            in
            loop ()
          done)
    in
    float_of_int st.Sched.wall_cycles /. float_of_int (nthreads * 1000)
  in
  let c1 = cost 1 and c8 = cost 8 in
  Alcotest.(check bool)
    (Printf.sprintf "contended op costlier (%.0f vs %.0f)" c1 c8)
    true (c8 > 2. *. c1)

let test_numa_penalty () =
  (* Same total work, but spread over 2 sockets vs contained in 1 on the
     xeon: cross-socket sharing must be slower. Threads 0 and 1 are on
     different sockets in enumeration order; threads 0 and 2 share one. *)
  let run_pair () =
    let c = Sched.loc 0 in
    let st =
      Sched.run ~topology:Topology.xeon ~nthreads:2 (fun _ ->
          for _ = 1 to 1000 do
            ignore (Sched.faa c 1 : int)
          done)
    in
    st.Sched.wall_cycles
  in
  (* nthreads:2 puts the two threads on ctx 0 and 1 = different sockets;
     there is no API to pin, so just sanity check the run completes and
     the cost per op exceeds the local-store cost. *)
  let cycles = run_pair () in
  Alcotest.(check bool) "cross-socket faa ping-pong is expensive" true
    (cycles / 2000 > Topology.xeon.Topology.c_store)

let test_ops_target_stops () =
  let st =
    Sched.run ~topology:uniform4 ~nthreads:4 ~ops_target:100 (fun _ ->
        while not (Sched.stop_requested ()) do
          Sched.work 10;
          Sched.tick ()
        done)
  in
  Alcotest.(check bool) "stopped near target" true
    (st.Sched.ops >= 100 && st.Sched.ops < 100 + 4)

let test_max_events_timeout () =
  match
    Sched.run ~topology:uniform4 ~nthreads:2 ~max_events:1000 (fun _ ->
        let c = Sched.loc 0 in
        while true do
          ignore (Sched.faa c 1 : int)
        done)
  with
  | _ -> Alcotest.fail "expected Aborted"
  | exception Sched.Aborted { r_verdict = Progress; _ } -> ()

let test_nested_run_rejected () =
  match
    Sched.run ~topology:uniform4 ~nthreads:1 (fun _ ->
        ignore (Sched.run ~topology:uniform4 ~nthreads:1 (fun _ -> ())))
  with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_exception_propagates () =
  match Sched.run ~topology:uniform4 ~nthreads:2 (fun _ -> failwith "boom") with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure m -> Alcotest.(check string) "message" "boom" m

(* After an exception escapes, the simulator must be reusable. *)
let test_reusable_after_exception () =
  (try
     ignore (Sched.run ~topology:uniform4 ~nthreads:2 (fun _ -> failwith "x"))
   with Failure _ -> ());
  let c = Sched.loc 0 in
  ignore
    (Sched.run ~topology:uniform4 ~nthreads:2 (fun _ ->
         ignore (Sched.faa c 1 : int)));
  Alcotest.(check int) "second run fine" 2 (Sched.read c)

(* A quantum below 1 is rejected by name before the run touches the
   domain's world, which stays usable for the next run. *)
let test_bad_quantum_rejected () =
  (match
     Sched.run ~quantum:0 ~topology:(Topology.uniform ~n:2 ()) ~nthreads:4
       (fun _ -> ())
   with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument m ->
      Alcotest.(check string)
        "message" "Sched.run: quantum must be positive (got 0)" m);
  let st =
    Sched.run ~topology:(Topology.uniform ~n:2 ()) ~nthreads:2 (fun _ ->
        Sched.work 5;
        Sched.tick ())
  in
  Alcotest.(check int) "next run completes" 2 st.Sched.ops

(* ------------------------------------------------------------------ *)
(* Multiprogramming                                                    *)

let test_preemption_windows () =
  (* 8 threads on a 2-context machine: threads sharing a context never
     overlap; wall time must be at least 4x the 2-thread time. *)
  let wall nthreads topo =
    let st =
      Sched.run ~topology:topo ~nthreads ~quantum:1000 (fun _ ->
          for _ = 1 to 100 do
            Sched.work 100
          done)
    in
    st.Sched.wall_cycles
  in
  let t2 = wall 2 (Topology.uniform ~n:2 ()) in
  let t8 = wall 8 (Topology.uniform ~n:2 ()) in
  Alcotest.(check bool)
    (Printf.sprintf "oversubscription serializes (%d vs %d)" t2 t8)
    true
    (t8 >= 3 * t2)

let test_fairness_oversubscribed () =
  (* All oversubscribed threads should make roughly equal progress. *)
  let progress = Array.make 6 0 in
  ignore
    (Sched.run ~topology:(Topology.uniform ~n:2 ()) ~nthreads:6 ~quantum:500
       (fun tid ->
         for _ = 1 to 200 do
           Sched.work 50;
           progress.(tid) <- progress.(tid) + 1
         done));
  Array.iter (fun p -> Alcotest.(check int) "all threads completed" 200 p) progress

(* The slow path pinned: four threads on two contexts with a small
   quantum suspend on most accesses, so every kind of access (read,
   store, RMW), work and yield goes through the event heap. The expected
   stats and final cell values are exact: any change to slow-path pricing
   or event order moves them. *)
let test_slow_path_pinned () =
  let a = Sched.loc 0 and b = Sched.loc 0 in
  let st =
    Sched.run ~topology:(Topology.uniform ~n:2 ()) ~nthreads:4 ~quantum:150
      (fun tid ->
        for i = 1 to 60 do
          let v = Sched.read a in
          if not (Sched.cas a v (v + 1)) then ignore (Sched.faa a 2 : int);
          (match i mod 3 with
          | 0 -> Sched.write b (Sched.read b + tid)
          | 1 -> ignore (Sched.exchange b ((i * 4) + tid) : int)
          | _ -> ignore (Sched.faa b 1 : int));
          if i mod 16 = 0 then Sched.yield () else Sched.work 7;
          Sched.tick ()
        done)
  in
  let open Sched in
  Alcotest.(check (list int))
    "wall, ops, reads, writes, cas, cas_failed, faa, events"
    [ 11714; 240; 320; 80; 320; 201; 281; 696 ]
    [
      st.wall_cycles;
      st.ops;
      st.reads;
      st.writes;
      st.cas;
      st.cas_failed;
      st.faa;
      st.events;
    ];
  Alcotest.(check (pair int int)) "final cells" (441, 234) (read a, read b)

(* ------------------------------------------------------------------ *)
(* Co-located lines                                                    *)

let test_colocated_lines_share_state () =
  (* Two locations on the same line: writing one invalidates the other
     for a remote reader, i.e. reading the second is a hit after reading
     the first. *)
  let a = Sched.loc 1 in
  let b = Sched.loc_with a 2 in
  let costs = ref [] in
  ignore
    (Sched.run ~topology:Topology.xeon ~nthreads:1 (fun _ ->
         let t0 = Sched.now () in
         ignore (Sched.read a : int);
         let t1 = Sched.now () in
         ignore (Sched.read b : int);
         let t2 = Sched.now () in
         costs := [ t1 - t0; t2 - t1 ]));
  match !costs with
  | [ first; second ] ->
      Alcotest.(check bool)
        (Printf.sprintf "first read misses (%d), second hits (%d)" first
           second)
        true (second < first)
  | _ -> Alcotest.fail "costs not collected"

let test_read_slack_determinism () =
  (* Different slack values may change timings but not correctness. *)
  let run slack =
    let c = Sched.loc 0 in
    ignore
      (Sched.run ~topology:uniform4 ~nthreads:4 ~read_slack:slack (fun _ ->
           for _ = 1 to 200 do
             let rec loop () =
               let v = Sched.read c in
               if not (Sched.cas c v (v + 1)) then loop ()
             in
             loop ()
           done));
    Sched.read c
  in
  Alcotest.(check int) "slack 0 exact" 800 (run 0);
  Alcotest.(check int) "slack 5000 exact" 800 (run 5000)

(* Tiny scheduling quanta: heavy preemption must not break correctness
   of a lock-protected counter (holders get descheduled mid-CS). *)
let test_tiny_quantum_correctness () =
  let module L = Locks.Ttas (Sim.Sim_rt) in
  let l = L.create () in
  let cell = Sched.loc 0 in
  ignore
    (Sched.run ~topology:(Topology.uniform ~n:2 ()) ~nthreads:8 ~quantum:200
       (fun _ ->
         for _ = 1 to 50 do
           L.lock l;
           let v = Sched.read cell in
           Sched.work 120 (* spans quantum boundaries *);
           Sched.write cell (v + 1);
           L.unlock l
         done));
  Alcotest.(check int) "no lost updates across preemptions" 400
    (Sched.read cell)

let test_single_thread_inline_budget () =
  (* a pure-inline runaway spin must still be caught *)
  match
    Sched.run ~topology:(Topology.uniform ~n:1 ()) ~nthreads:1
      ~max_inline_ops:100_000 (fun _ ->
        let c = Sched.loc 0 in
        while Sched.read c = 0 do
          Sched.work 1
        done)
  with
  | _ -> Alcotest.fail "expected Aborted"
  | exception Sched.Aborted { r_verdict = Progress; _ } -> ()

(* Direct cost-model checks: measure op durations with [now]. *)
let cost_of f =
  let d = ref 0 in
  ignore
    (Sched.run ~topology:Topology.xeon ~nthreads:1 (fun _ ->
         (* warm up: own the line *)
         f ();
         let t0 = Sched.now () in
         f ();
         d := Sched.now () - t0));
  !d

let test_cost_model_basics () =
  (* back-to-back access to one line pipelines at 1 cycle *)
  let c = Sched.loc 0 in
  let reread = cost_of (fun () -> ignore (Sched.read c : int)) in
  Alcotest.(check int) "same-line re-read pipelines" 1 reread;
  (* a cached read of a different line pays the L1 load-to-use latency *)
  let a = Sched.loc 0 and b = Sched.loc 0 in
  let hit = ref 0 in
  ignore
    (Sched.run ~topology:Topology.xeon ~nthreads:1 (fun _ ->
         ignore (Sched.read a : int);
         ignore (Sched.read b : int);
         ignore (Sched.read a : int);
         let t0 = Sched.now () in
         ignore (Sched.read b : int);
         hit := Sched.now () - t0));
  Alcotest.(check int) "cached read = L1 hit" Topology.xeon.Topology.c_hit !hit;
  let f = Sched.loc 0 in
  let rmw_local = cost_of (fun () -> ignore (Sched.faa f 1 : int)) in
  Alcotest.(check int) "owned rmw = store + rmw premium"
    (Topology.xeon.Topology.c_store + Topology.xeon.Topology.c_rmw)
    rmw_local

let test_cost_streaming_vs_pointer () =
  (* same-thread cached reads: streaming lines cost 1 cycle, plain lines
     the full load-to-use latency *)
  let arr = Sched.loc ~streaming:true 0 in
  let node = Sched.loc 0 in
  let dstream = ref 0 and dnode = ref 0 in
  ignore
    (Sched.run ~topology:Topology.xeon ~nthreads:1 (fun _ ->
         ignore (Sched.read arr : int);
         ignore (Sched.read node : int);
         (* interleave another line so the last-line discount does not
            apply to the plain node read *)
         let other = Sched.loc 0 in
         ignore (Sched.read other : int);
         let t0 = Sched.now () in
         ignore (Sched.read arr : int);
         dstream := Sched.now () - t0;
         ignore (Sched.read other : int);
         let t1 = Sched.now () in
         ignore (Sched.read node : int);
         dnode := Sched.now () - t1));
  Alcotest.(check int) "streaming hit" 1 !dstream;
  Alcotest.(check int) "pointer-chase hit" Topology.xeon.Topology.c_hit !dnode

let test_cost_colocation () =
  (* consecutive reads of two fields on one line: second is ~1 cycle *)
  let a = Sched.loc 0 in
  let b = Sched.loc_with a 0 in
  let d2 = ref 0 in
  ignore
    (Sched.run ~topology:Topology.xeon ~nthreads:1 (fun _ ->
         ignore (Sched.read a : int);
         ignore (Sched.read b : int);
         ignore (Sched.read a : int);
         let t0 = Sched.now () in
         ignore (Sched.read b : int);
         d2 := Sched.now () - t0));
  Alcotest.(check int) "co-located field read pipelines" 1 !d2

let test_remote_transfer_priced () =
  (* two threads on different sockets bouncing a line: the remote read
     must cost at least the cross-socket transfer *)
  let c = Sched.loc 0 in
  let observed = Sched.loc 0 in
  ignore
    (Sched.run ~topology:Topology.xeon ~nthreads:2 (fun tid ->
         if tid = 0 then Sched.write c 1
         else (
           Sched.work 2_000 (* let thread 0 own the line first *);
           let t0 = Sched.now () in
           ignore (Sched.read c : int);
           Sched.write observed (Sched.now () - t0))));
  Alcotest.(check bool) "remote read pays a transfer" true
    (Sched.read observed >= Topology.xeon.Topology.c_same_die)

let () =
  Alcotest.run "sim"
    [
      ( "eheap",
        [
          Alcotest.test_case "pops in order" `Quick test_eheap_order;
          Alcotest.test_case "fifo on ties" `Quick test_eheap_fifo_ties;
          Alcotest.test_case "min_time" `Quick test_eheap_min_time;
          eheap_qcheck;
          eheap_qcheck_total_order;
          Alcotest.test_case "no payload retention" `Quick
            test_eheap_no_retention;
        ] );
      ( "topology",
        [
          Alcotest.test_case "shapes" `Quick test_topology_shapes;
          Alcotest.test_case "cost ordering" `Quick test_topology_costs;
          Alcotest.test_case "opteron costlier" `Quick
            test_opteron_noncoherent_costlier;
        ] );
      ( "execution",
        [
          Alcotest.test_case "cas counter exact" `Quick test_counter_exact;
          Alcotest.test_case "faa exact" `Quick test_faa_exact;
          Alcotest.test_case "deterministic" `Quick test_determinism;
          Alcotest.test_case "direct ops outside run" `Quick
            test_outside_run_direct;
          Alcotest.test_case "contention scaling" `Quick
            test_contention_scaling;
          Alcotest.test_case "numa penalty" `Quick test_numa_penalty;
          Alcotest.test_case "ops target stops" `Quick test_ops_target_stops;
          Alcotest.test_case "max events timeout" `Quick
            test_max_events_timeout;
          Alcotest.test_case "nested run rejected" `Quick
            test_nested_run_rejected;
          Alcotest.test_case "exceptions propagate" `Quick
            test_exception_propagates;
          Alcotest.test_case "reusable after exception" `Quick
            test_reusable_after_exception;
          Alcotest.test_case "bad quantum rejected" `Quick
            test_bad_quantum_rejected;
        ] );
      ( "multiprogramming",
        [
          Alcotest.test_case "preemption windows" `Quick
            test_preemption_windows;
          Alcotest.test_case "fair progress" `Quick
            test_fairness_oversubscribed;
          Alcotest.test_case "tiny quantum correctness" `Quick
            test_tiny_quantum_correctness;
          Alcotest.test_case "inline budget backstop" `Quick
            test_single_thread_inline_budget;
          Alcotest.test_case "slow path pinned" `Quick test_slow_path_pinned;
        ] );
      ( "memory model",
        [
          Alcotest.test_case "packed lines" `Quick
            test_colocated_lines_share_state;
          Alcotest.test_case "read slack safe" `Quick
            test_read_slack_determinism;
          Alcotest.test_case "cost model basics" `Quick test_cost_model_basics;
          Alcotest.test_case "streaming vs pointer reads" `Quick
            test_cost_streaming_vs_pointer;
          Alcotest.test_case "co-location pipelines" `Quick
            test_cost_colocation;
          Alcotest.test_case "remote transfer priced" `Quick
            test_remote_transfer_priced;
        ] );
    ]
