(* Tests for the domain-parallel trial fleet: result ordering, failure
   reporting, and the determinism contract — a fuzz run's output is
   byte-identical whatever the number of worker domains. *)

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

(* No reset callback is needed: each task's simulated run resets its own
   domain's world first. Every task runs the same [Kv.run] and then
   leaves its worker dirty (a leaked noise setting and an
   elimination-stack run), yet all seven results are identical — the
   reset happens per task, whatever ran on that domain before. *)
let test_reset_runs_before_every_task () =
  let hits = Atomic.make 0 in
  let cfg = { Kv.default_config with ops = 1_500; rep = "skiplist/optik2" } in
  let tasks =
    List.init 7 (fun i ->
        Fleet.task ~label:(string_of_int i) (fun () ->
            Atomic.incr hits;
            let m, r = Kv.run cfg in
            Sim.Sched.set_noise_bits (1 + i);
            ignore
              (Harness.Runner.run_pool_sim
                 ~topology:(Sim.Topology.uniform ~n:4 ())
                 ~nthreads:4 ~ops:500 ~init:32 ~add_pct:50
                 Harness.Registry.(pool_ops (Sim_backend.find "stack/elimination")));
            (m.ops, m.cas, m.cas_failed, m.counters, r.Kv.res_oracle,
             r.Kv.res_events)))
  in
  let r = Fleet.map ~jobs:3 tasks in
  Alcotest.(check int) "every task ran" 7 (Atomic.get hits);
  Alcotest.(check bool) "one result, whatever ran before" true
    (List.for_all (( = ) (List.hd r)) r)

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

(* The determinism contract, end to end on real chaos trials: fuzzing
   over 1, 2 and 4 worker domains (so over different range splits) must
   produce the same bytes. *)
let test_fleet_determinism () =
  let family =
    (Chaos.sets (Chaos.select Chaos.quick_names) :> (module Chaos.TRIAL))
  in
  let fuzz jobs = Chaos.fuzz ~jobs family ~runs:6 ~seed:11 in
  let one = fuzz 1 in
  Alcotest.(check (pair int string)) "jobs:2 == jobs:1" one (fuzz 2);
  Alcotest.(check (pair int string)) "jobs:4 == jobs:1" one (fuzz 4)

(* A trial family whose every run raises. *)
module Raising : Chaos.TRIAL = struct
  type t = int

  let name = "raising"
  let command = "chaos"
  let to_string = string_of_int
  let of_string = int_of_string
  let gen rng = Harness.Rng.below rng 1000
  let shrink_steps _ = []
  let shrink_budget = 0
  let run _ = invalid_arg "raising: malformed trial"
end

(* A trial that raises fails the fuzz run as a [Task_failed] naming its
   trial range (12 trials on one worker go in ranges of 3). *)
let test_raising_trial () =
  match Chaos.fuzz ~jobs:1 (module Raising) ~runs:12 ~seed:1 with
  | _ -> Alcotest.fail "expected Task_failed"
  | exception Fleet.Task_failed { t_label; t_exn; _ } ->
      Alcotest.(check string) "label names the range" "raising[0..2]" t_label;
      Alcotest.(check bool) "carries the exception" true
        (match t_exn with Invalid_argument _ -> true | _ -> false)

(* A world reset is pristine for every structure: an elimination-stack
   run repeats exactly after another one, which its slot counters used
   to carry into. *)
let test_world_reset_resets_elimination () =
  let run () =
    Harness.World.reset ();
    let m =
      Harness.Runner.run_pool_sim ~topology:(Sim.Topology.uniform ~n:4 ())
        ~nthreads:6 ~ops:3_000 ~init:64 ~add_pct:50
        Harness.Registry.(pool_ops (Sim_backend.find "stack/elimination"))
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
          Alcotest.test_case "raising trial names its range" `Quick
            test_raising_trial;
          Alcotest.test_case "fresh world resets the elimination stack" `Quick
            test_world_reset_resets_elimination;
        ] );
    ]
