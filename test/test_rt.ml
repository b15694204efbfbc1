(* Tests for the native runtime backend and the shared backoff helpers:
   atomics, thread identity via domain-local storage, counters, and
   backoff growth. *)

module N = Rt.Native_rt
module B = Rt.Backoff.Make (Rt.Native_rt)

let test_atomic_basics () =
  let a = N.atomic 5 in
  Alcotest.(check int) "get" 5 (N.get a);
  N.set a 7;
  Alcotest.(check int) "set" 7 (N.get a);
  Alcotest.(check bool) "cas hit" true (N.cas a 7 8);
  Alcotest.(check bool) "cas miss" false (N.cas a 7 9);
  Alcotest.(check int) "faa returns old" 8 (N.faa a 3);
  Alcotest.(check int) "faa applied" 11 (N.get a);
  Alcotest.(check int) "exchange returns old" 11 (N.exchange a 1);
  Alcotest.(check int) "exchange applied" 1 (N.get a)

let test_layout_hints_are_plain_atomics () =
  (* on the native backend the layout hints are no-ops *)
  let a = N.atomic ~streaming:true 42 in
  let b = N.atomic_with a 7 in
  Alcotest.(check int) "streaming" 42 (N.get a);
  Alcotest.(check int) "with" 7 (N.get b);
  Alcotest.(check bool) "independent" true (N.cas b 7 8 && N.get a = 42)

let test_cas_is_physical () =
  (* the documented physical-equality contract: a structurally equal but
     physically distinct expected value must not match *)
  let x = Some (ref 1) in
  let y = Some (ref 1) in
  let a = N.atomic x in
  Alcotest.(check bool) "structurally equal, physically distinct" false
    (N.cas a y None);
  Alcotest.(check bool) "the physical witness matches" true (N.cas a x None)

let test_tid_per_domain () =
  N.set_nthreads 3;
  let results = Array.make 3 (-1) in
  let doms =
    List.init 2 (fun i ->
        Domain.spawn (fun () ->
            N.set_tid (i + 1);
            results.(i + 1) <- N.tid ()))
  in
  N.set_tid 0;
  results.(0) <- N.tid ();
  List.iter Domain.join doms;
  N.set_nthreads 1;
  Alcotest.(check (array int)) "each domain sees its own tid" [| 0; 1; 2 |]
    results

let test_counters () =
  N.Probe.reset_all ();
  let c = N.Probe.counter "test_rt.counter" in
  N.Probe.incr c;
  N.Probe.add c 4;
  Alcotest.(check int) "value" 5 (N.Probe.count c);
  (* same name = same counter *)
  let c' = N.Probe.counter "test_rt.counter" in
  N.Probe.incr c';
  Alcotest.(check int) "shared storage" 6 (N.Probe.count c);
  N.Probe.reset_all ();
  Alcotest.(check int) "reset" 0 (N.Probe.count c')

let test_counters_concurrent () =
  N.Probe.reset_all ();
  let c = N.Probe.counter "test_rt.conc" in
  let doms =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 10_000 do
              N.Probe.incr c
            done))
  in
  List.iter Domain.join doms;
  Alcotest.(check int) "atomic increments" 40_000 (N.Probe.count c)

(* Spans are free on the native backend; the acceptance bar is just
   that [span] still returns the body's value and releases on
   exceptions. *)
let test_probe_noops () =
  Alcotest.(check int) "span returns" 42 (N.Probe.span "s" (fun () -> 42));
  Alcotest.(check int) "with_site returns" 7 (N.Probe.with_site "x" (fun () -> 7));
  Alcotest.(check bool) "span re-raises" true
    (try N.Probe.span "s" (fun () -> failwith "boom") with Failure _ -> true)

(* Backoff growth is observable through the simulator's clock. *)
let test_backoff_grows () =
  let module SB = Rt.Backoff.Make (Sim.Sim_rt) in
  let durations = ref [] in
  ignore
    (Sim.Sched.run ~topology:(Sim.Topology.uniform ~n:1 ()) ~nthreads:1
       (fun _ ->
         let b = SB.create () in
         for _ = 1 to 8 do
           let t0 = Sim.Sched.now () in
           SB.once b;
           durations := (Sim.Sched.now () - t0) :: !durations
         done));
  let ds = List.rev !durations in
  (* jitter perturbs individual episodes; the trend must still grow *)
  Alcotest.(check bool) "growth is real" true
    (List.nth ds 7 > 2 * List.nth ds 0)

let test_backoff_caps () =
  let module SB = Rt.Backoff.Make (Sim.Sim_rt) in
  let episodes = ref [] in
  ignore
    (Sim.Sched.run ~topology:(Sim.Topology.uniform ~n:1 ()) ~nthreads:1
       (fun _ ->
         let b = SB.create ~max:256 () in
         for _ = 1 to 12 do
           let t0 = Sim.Sched.now () in
           SB.once b;
           episodes := (Sim.Sched.now () - t0) :: !episodes
         done));
  (* saturated episodes: base = max/32 pauses, jitter < ~50% on top *)
  let saturated = List.filteri (fun i _ -> i < 4) !episodes in
  let base = 256 / 32 * 8 (* pauses * pause cost *) in
  List.iter
    (fun d ->
      Alcotest.(check bool)
        (Printf.sprintf "episode %d within cap+jitter" d)
        true
        (d >= base && d <= 2 * base + 16))
    saturated

let test_spin_helper () =
  let module SB = Rt.Backoff.Make (Sim.Sim_rt) in
  ignore
    (Sim.Sched.run ~topology:(Sim.Topology.uniform ~n:1 ()) ~nthreads:1
       (fun _ ->
         let s = SB.spin ~max_pauses:8 () in
         let t0 = Sim.Sched.now () in
         SB.spin_once s;
         let d1 = Sim.Sched.now () - t0 in
         for _ = 1 to 10 do
           SB.spin_once s
         done;
         let t1 = Sim.Sched.now () in
         SB.spin_once s;
         let d2 = Sim.Sched.now () - t1 in
         if d2 <= d1 then failwith "spin pauses should have grown";
         (* cap: 8 pauses + <=50% jitter, 8 cycles per pause *)
         if d2 > 8 * 8 * 2 then failwith "spin pauses exceeded the cap"))

let test_work_is_linear_in_sim () =
  let cost n =
    let t = ref 0 in
    ignore
      (Sim.Sched.run ~topology:(Sim.Topology.uniform ~n:1 ()) ~nthreads:1
         (fun _ ->
           let t0 = Sim.Sched.now () in
           Sim.Sched.work n;
           t := Sim.Sched.now () - t0));
    !t
  in
  Alcotest.(check int) "work 100" 100 (cost 100);
  Alcotest.(check int) "work 5000" 5000 (cost 5000)

let () =
  Alcotest.run "rt"
    [
      ( "native atomics",
        [
          Alcotest.test_case "basics" `Quick test_atomic_basics;
          Alcotest.test_case "layout hints are no-ops" `Quick
            test_layout_hints_are_plain_atomics;
          Alcotest.test_case "cas is physical" `Quick test_cas_is_physical;
        ] );
      ( "thread identity",
        [ Alcotest.test_case "tid per domain" `Quick test_tid_per_domain ] );
      ( "probes",
        [
          Alcotest.test_case "counter basics" `Quick test_counters;
          Alcotest.test_case "counter concurrent" `Quick
            test_counters_concurrent;
          Alcotest.test_case "spans are no-ops" `Quick
            test_probe_noops;
        ] );
      ( "backoff",
        [
          Alcotest.test_case "grows" `Quick test_backoff_grows;
          Alcotest.test_case "caps" `Quick test_backoff_caps;
          Alcotest.test_case "spin helper" `Quick test_spin_helper;
          Alcotest.test_case "work is linear" `Quick test_work_is_linear_in_sim;
        ] );
    ]
