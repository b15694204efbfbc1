(* Tests for the domain-parallel trial fleet: result ordering, failure
   reporting, and the determinism contract — a fleet's merged output is
   byte-identical whatever the jobs/batch split, and identical to the
   serial fuzzer's. *)

module Fleet = Harness.Fleet

let test_order_preserved () =
  (* results come back in task order even when later tasks finish first *)
  let tasks =
    List.init 20 (fun i ->
        Fleet.task
          ~label:(string_of_int i)
          (fun () ->
            (* stagger finish times without needing a clock *)
            if i mod 3 = 0 then
              for _ = 1 to 200_000 do
                ignore (Sys.opaque_identity i)
              done;
            i * i))
  in
  let r = Fleet.map ~jobs:4 tasks in
  Alcotest.(check (list int)) "task order" (List.init 20 (fun i -> i * i)) r

let test_reset_runs_before_every_task () =
  let hits = Atomic.make 0 in
  let tasks = List.init 7 (fun i -> Fleet.task ~label:"t" (fun () -> i)) in
  let r =
    Fleet.map ~jobs:3 ~reset:(fun () -> Atomic.incr hits) tasks
  in
  Alcotest.(check (list int)) "results" [ 0; 1; 2; 3; 4; 5; 6 ] r;
  Alcotest.(check int) "one reset per task" 7 (Atomic.get hits)

let test_failure_is_first_in_task_order () =
  let ran = Atomic.make 0 in
  let tasks =
    List.init 10 (fun i ->
        Fleet.task
          ~label:(Printf.sprintf "task%d" i)
          (fun () ->
            Atomic.incr ran;
            if i = 3 || i = 7 then failwith (Printf.sprintf "boom%d" i);
            i))
  in
  (match Fleet.map ~jobs:4 tasks with
  | _ -> Alcotest.fail "expected Task_failed"
  | exception Fleet.Task_failed { t_label; t_index; t_exn; _ } ->
      Alcotest.(check int) "earliest failing task" 3 t_index;
      Alcotest.(check string) "label" "task3" t_label;
      Alcotest.(check bool) "carries the exception" true
        (match t_exn with
        | Failure m -> String.equal m "boom3"
        | _ -> false));
  (* workers drain the whole fleet before the failure is re-raised *)
  Alcotest.(check int) "all tasks still ran" 10 (Atomic.get ran)

let test_jobs_validation () =
  Alcotest.(check (list int)) "empty fleet" [] (Fleet.map ~jobs:4 []);
  match Fleet.map ~jobs:0 [ Fleet.task ~label:"x" (fun () -> 1) ] with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* The determinism contract, end to end on real chaos trials: serial
   fuzz, a 1-job fleet and a 4-job fleet with a different batch split
   must all produce the same bytes. *)
let test_fleet_determinism () =
  let trials = 6 and seed = 11 in
  let family = (Chaos.sets Chaos.quick_entries :> (module Chaos.TRIAL)) in
  let serial =
    let buf = Buffer.create 1024 in
    let ppf = Format.formatter_of_buffer buf in
    Chaos.fresh_world ();
    let failed = Chaos.fuzz family ~runs:trials ~seed ppf in
    Format.pp_print_flush ppf ();
    (failed, Buffer.contents buf)
  in
  let one = Chaos.fleet family ~jobs:1 ~batch:2 ~trials ~seed in
  let four = Chaos.fleet family ~jobs:4 ~batch:1 ~trials ~seed in
  Alcotest.(check (pair int string)) "jobs:1 == serial" serial one;
  Alcotest.(check (pair int string)) "jobs:4 == jobs:1" one four

(* A fresh world is pristine for every structure: an elimination-stack
   run repeats exactly after another one, which its slot counters used
   to carry into. *)
let test_fresh_world_resets_elimination () =
  let run () =
    Chaos.fresh_world ();
    let m =
      Harness.Runner.run_stack_sim ~topology:(Sim.Topology.uniform ~n:4 ())
        ~nthreads:6 ~ops:3_000 ~init:64 ~push_pct:50
        Harness.Registry.Sim_backend.stack_elimination
    in
    (m.ops, m.cas, m.cas_failed, m.counters)
  in
  let first = run () in
  Alcotest.(check bool) "second run identical" true (first = run ())

let () =
  Alcotest.run "fleet"
    [
      ( "fleet",
        [
          Alcotest.test_case "order preserved" `Quick test_order_preserved;
          Alcotest.test_case "reset per task" `Quick
            test_reset_runs_before_every_task;
          Alcotest.test_case "first failure wins" `Quick
            test_failure_is_first_in_task_order;
          Alcotest.test_case "validation" `Quick test_jobs_validation;
          Alcotest.test_case "determinism jobs 1 vs 4" `Quick
            test_fleet_determinism;
          Alcotest.test_case "fresh world resets the elimination stack" `Quick
            test_fresh_world_resets_elimination;
        ] );
    ]
