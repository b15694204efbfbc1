(* Tests for the queues of §5.4: ms-lf, ms-lb, optik0..optik3. The pool
   driver ({!Tutil.pool_suites}) checks FIFO order, conservation under
   concurrency, linearizability and the spec model; here, what only a
   queue promises: per-producer order, and the victim-queue mechanics. *)

module R = Harness.Registry

let sim_queues = List.map R.pool_ops (R.Sim_backend.lineup "queue")

(* Per-thread FIFO: values enqueued by one thread are dequeued in order. *)
let per_thread_fifo (module Q : R.POOL_OPS) () =
  let t = Q.create () in
  let deqs = Array.make 4 [] in
  ignore
    (Sim.Sched.run ~topology:Tutil.uniform4 ~nthreads:4 (fun tid ->
         if tid < 2 then
           for i = 1 to 200 do
             Q.put t ((tid * 1_000_000) + i)
           done
         else
           for _ = 1 to 250 do
             match Q.take t with
             | Some v -> deqs.(tid) <- v :: deqs.(tid)
             | None -> Sim.Sched.work 50
           done));
  (* drain the rest single-threaded *)
  let rec drain () =
    match Q.take t with
    | Some v ->
        deqs.(0) <- v :: deqs.(0);
        drain ()
    | None -> ()
  in
  drain ();
  (* for each producer, the per-consumer subsequences must be increasing *)
  Array.iter
    (fun l ->
      let l = List.rev l in
      let check_producer p =
        let seq = List.filter (fun v -> v / 1_000_000 = p) l in
        let rec increasing = function
          | a :: (b :: _ as rest) -> a < b && increasing rest
          | _ -> true
        in
        if not (increasing seq) then
          Alcotest.failf "%s: producer %d order violated" Q.name p
      in
      check_producer 0;
      check_producer 1)
    deqs

let fifo_cases =
  List.map
    (fun (module Q : R.POOL_OPS) ->
      Alcotest.test_case (Q.name ^ " per-producer order") `Quick
        (per_thread_fifo (module Q)))
    sim_queues

(* Victim queue specifics. *)
let test_victim_queue_used_under_contention () =
  Sim.Sim_rt.Probe.reset_all ();
  let module Qs = Dstruct.Queues.Make (Sim.Sim_rt) in
  let q = Qs.Optik3.create ~threshold:0 () in
  (* threshold 0: any waiter diverts; enqueue-heavy storm *)
  ignore
    (Sim.Sched.run ~topology:Sim.Topology.xeon ~nthreads:16 (fun tid ->
         for i = 1 to 100 do
           Qs.Optik3.enqueue q ((tid * 1000) + i)
         done));
  Alcotest.(check int) "all elements present" 1600 (Qs.Optik3.size q);
  Alcotest.(check bool) "victim path exercised" true
    (Sim.Sim_rt.Probe.count Qs.Optik3.victim_uses > 0)

let test_victim_threshold_respected () =
  Sim.Sim_rt.Probe.reset_all ();
  let module Qs = Dstruct.Queues.Make (Sim.Sim_rt) in
  (* huge threshold: victim path never used *)
  let q = Qs.Optik3.create ~threshold:1_000 () in
  ignore
    (Sim.Sched.run ~topology:Sim.Topology.xeon ~nthreads:16 (fun tid ->
         for i = 1 to 50 do
           Qs.Optik3.enqueue q ((tid * 1000) + i)
         done));
  Alcotest.(check int) "all present" 800 (Qs.Optik3.size q);
  Alcotest.(check int) "victim path unused" 0
    (Sim.Sim_rt.Probe.count Qs.Optik3.victim_uses)

let () =
  Alcotest.run "queues"
    (Tutil.pool_suites "queue"
    @ [
        ("per-producer order", fifo_cases);
        ( "victim queue",
          [
            Alcotest.test_case "used under contention" `Quick
              test_victim_queue_used_under_contention;
            Alcotest.test_case "threshold respected" `Quick
              test_victim_threshold_respected;
          ] );
      ])
