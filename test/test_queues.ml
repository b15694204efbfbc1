(* Tests for the queues of §5.4: ms-lf, ms-lb, optik0..optik3.
   FIFO semantics, element conservation under concurrency,
   linearizability, and the victim-queue mechanics. *)

module R = Harness.Registry

let sim_queues = List.map R.queue_ops (R.Sim_backend.lineup "queue")
let native_queues = List.map R.queue_ops (R.Native.lineup "queue")

let seq_cases =
  List.map
    (fun (module Q : R.QUEUE_OPS) ->
      Alcotest.test_case (Q.name ^ " FIFO order") `Quick (fun () ->
          let t = Q.create () in
          Alcotest.(check (option int)) "empty" None (Q.dequeue t);
          for i = 1 to 100 do
            Q.enqueue t i
          done;
          Alcotest.(check int) "size" 100 (Q.size t);
          for i = 1 to 100 do
            Alcotest.(check (option int))
              (Printf.sprintf "fifo %d" i)
              (Some i) (Q.dequeue t)
          done;
          Alcotest.(check (option int)) "drained" None (Q.dequeue t);
          Alcotest.(check int) "size 0" 0 (Q.size t);
          (* interleaved: stays FIFO *)
          Q.enqueue t 1;
          Q.enqueue t 2;
          Alcotest.(check (option int)) "1" (Some 1) (Q.dequeue t);
          Q.enqueue t 3;
          Alcotest.(check (option int)) "2" (Some 2) (Q.dequeue t);
          Alcotest.(check (option int)) "3" (Some 3) (Q.dequeue t)))
    native_queues

(* Concurrent conservation: enqueued - dequeued = final size; every
   dequeued value was enqueued exactly once (multiset check). *)
let conservation (module Q : R.QUEUE_OPS) ~nthreads ~ops ~topology () =
  let t = Q.create () in
  (* prefill values live in their own range so duplicate detection can
     tell them apart from per-thread values *)
  for i = 1 to 64 do
    Q.enqueue t (900_000_000 + i)
  done;
  let enq = Array.make nthreads 0 in
  let deqs = Array.make nthreads [] in
  ignore
    (Sim.Sched.run ~topology ~nthreads (fun tid ->
         let rng = Harness.Rng.create (tid + 31) in
         for i = 1 to ops do
           if Harness.Rng.below rng 2 = 0 then (
             Q.enqueue t ((tid * 1_000_000) + i);
             enq.(tid) <- enq.(tid) + 1)
           else
             match Q.dequeue t with
             | Some v -> deqs.(tid) <- v :: deqs.(tid)
             | None -> ()
         done));
  let total_enq = 64 + Array.fold_left ( + ) 0 enq in
  let dequeued = Array.fold_left (fun acc l -> List.length l + acc) 0 deqs in
  Alcotest.(check int)
    (Q.name ^ " conservation")
    (total_enq - dequeued) (Q.size t);
  (* no duplicates among dequeued values *)
  let seen = Hashtbl.create 64 in
  Array.iter
    (List.iter (fun v ->
         if Hashtbl.mem seen v then
           Alcotest.failf "%s: value %d dequeued twice" Q.name v;
         Hashtbl.add seen v ()))
    deqs

let concurrent_cases =
  List.concat_map
    (fun (module Q : R.QUEUE_OPS) ->
      [
        Alcotest.test_case (Q.name ^ " conservation sim") `Quick
          (conservation (module Q) ~nthreads:6 ~ops:400
             ~topology:Tutil.uniform4);
        Alcotest.test_case (Q.name ^ " conservation oversubscribed") `Quick
          (conservation (module Q) ~nthreads:8 ~ops:200
             ~topology:(Sim.Topology.uniform ~n:2 ()));
        Alcotest.test_case (Q.name ^ " conservation xeon") `Quick
          (conservation (module Q) ~nthreads:12 ~ops:300
             ~topology:Sim.Topology.xeon);
      ])
    sim_queues

(* Per-thread FIFO: values enqueued by one thread are dequeued in order. *)
let per_thread_fifo (module Q : R.QUEUE_OPS) () =
  let t = Q.create () in
  let deqs = Array.make 4 [] in
  ignore
    (Sim.Sched.run ~topology:Tutil.uniform4 ~nthreads:4 (fun tid ->
         if tid < 2 then
           for i = 1 to 200 do
             Q.enqueue t ((tid * 1_000_000) + i)
           done
         else
           for _ = 1 to 250 do
             match Q.dequeue t with
             | Some v -> deqs.(tid) <- v :: deqs.(tid)
             | None -> Sim.Sched.work 50
           done));
  (* drain the rest single-threaded *)
  let rec drain () =
    match Q.dequeue t with
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
    (fun (module Q : R.QUEUE_OPS) ->
      Alcotest.test_case (Q.name ^ " per-producer order") `Quick
        (per_thread_fifo (module Q)))
    sim_queues

let lincheck_cases =
  List.concat_map
    (fun (module Q : R.QUEUE_OPS) ->
      List.map
        (fun seed ->
          Alcotest.test_case
            (Printf.sprintf "%s linearizable (seed %d)" Q.name seed)
            `Quick
            (Tutil.lincheck_queue (module Q) ~nthreads:3 ~ops_per_thread:4
               ~seed))
        [ 1; 2; 3; 4; 5; 6; 7; 8 ])
    sim_queues

let native_cases =
  List.map
    (fun (module Q : R.QUEUE_OPS) ->
      Alcotest.test_case (Q.name ^ " native producers/consumers") `Slow
        (fun () ->
          let t = Q.create () in
          let nthreads = 4 and ops = 3_000 in
          Rt.Native_rt.set_nthreads nthreads;
          let enq = Array.make nthreads 0 and deq = Array.make nthreads 0 in
          let body tid () =
            Rt.Native_rt.set_tid tid;
            let rng = Harness.Rng.create (tid + 3) in
            for i = 1 to ops do
              if Harness.Rng.below rng 2 = 0 then (
                Q.enqueue t ((tid * 1_000_000) + i);
                enq.(tid) <- enq.(tid) + 1)
              else
                match Q.dequeue t with
                | Some _ -> deq.(tid) <- deq.(tid) + 1
                | None -> ()
            done
          in
          let doms =
            List.init (nthreads - 1) (fun i -> Domain.spawn (body (i + 1)))
          in
          body 0 ();
          List.iter Domain.join doms;
          Rt.Native_rt.set_nthreads 1;
          let te = Array.fold_left ( + ) 0 enq
          and td = Array.fold_left ( + ) 0 deq in
          Alcotest.(check int) (Q.name ^ " native conservation") (te - td)
            (Q.size t)))
    native_queues

(* Property: random op sequences match the two-list queue model. *)
let qcheck_seq_cases =
  List.map
    (fun (module Q : R.QUEUE_OPS) ->
      Tutil.qcheck_case ~count:50
        (Q.name ^ " random ops vs model")
        QCheck2.Gen.(list_size (int_range 0 200) (int_range 0 99))
        (fun ops ->
          let t = Q.create () in
          let model = Queue.create () in
          List.for_all
            (fun x ->
              if x < 60 then (
                Q.enqueue t x;
                Queue.add x model;
                true)
              else
                let got = Q.dequeue t in
                let want = Queue.take_opt model in
                got = want)
            ops
          && Q.size t = Queue.length model))
    native_queues

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
    [
      ("sequential FIFO", seq_cases);
      ("concurrent (sim)", concurrent_cases);
      ("per-producer order", fifo_cases);
      ("property", qcheck_seq_cases);
      ("linearizability", lincheck_cases);
      ("concurrent (native)", native_cases);
      ( "victim queue",
        [
          Alcotest.test_case "used under contention" `Quick
            test_victim_queue_used_under_contention;
          Alcotest.test_case "threshold respected" `Quick
            test_victim_threshold_respected;
        ] );
    ]
