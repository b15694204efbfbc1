(* Trace analyzers ({!Obs.Attrib}) against hand-built journals — exact
   phase totals under nesting, queueing-delay instants, outcome
   derivation, crashed-thread closing, timeline windowing — plus the
   fleet determinism contract for the rendered report sections. *)

module J = Obs.Journal
module A = Obs.Attrib
module R = Obs.Report

let e at tid kind = { J.at; tid; kind }
let record entries = { J.entries = Array.of_list entries; lines = [] }

let phases_of (a : A.areq) = a.A.a_phases

let check_phase msg req name expect =
  Alcotest.(check int) msg expect
    (Option.value ~default:0 (List.assoc_opt name (phases_of req)))

(* One request with nested spans and a queue instant. The resync span
   runs inside routing: attribution must charge resync its full 40
   cycles and route only its 20 cycles of self time, and the phases plus
   "other" must sum exactly to served time. *)
let test_nested_self_time () =
  let r =
    record
      [
        e 100 1 (J.Req_begin ("get", 1));
        e 100 1 (J.Phase_elapsed (Queue, 40));
        e 100 1 (J.Phase_begin Route);
        e 110 1 (J.Phase_begin Resync);
        e 150 1 (J.Phase_end Resync);
        e 160 1 (J.Phase_end Route);
        e 160 1 (J.Phase_begin Store);
        e 190 1 (J.Phase_end Store);
        e 200 1 (J.Req_end ("get", 1));
      ]
  in
  let a = A.analyze r in
  Alcotest.(check int) "one request" 1 (List.length a.A.reqs);
  Alcotest.(check int) "none dropped" 0 a.A.dropped;
  let rq = List.hd a.A.reqs in
  Alcotest.(check int) "trace id" 1 rq.A.a_id;
  Alcotest.(check string) "kind" "get" rq.A.a_kind;
  Alcotest.(check string) "outcome" "ok" (A.outcome_name rq.A.a_outcome);
  check_phase "queue" rq "queue" 40;
  check_phase "resync self" rq "resync" 40;
  check_phase "route self" rq "route" 20;
  check_phase "store" rq "store" 30;
  check_phase "other = served - attributed" rq "other" 10;
  Alcotest.(check int) "total = served + queue" 140 rq.A.a_total;
  (* the non-queue phases plus "other" sum to served time exactly *)
  let served_sum =
    List.fold_left
      (fun s (p, v) -> if String.equal p "queue" then s else s + v)
      0 (phases_of rq)
  in
  Alcotest.(check int) "phases sum to served" 100 served_sum

(* Outcomes are derived from the end class and the kinds of the counters
   bumped while the request was open; structure-internal restarts must
   not count. *)
let test_outcomes () =
  let r =
    record
      [
        e 0 1 (J.Req_begin ("put", 1));
        e 5 1 (J.Count ("kv.retries", Retry, 1));
        e 10 1 (J.Req_end ("put", 1));
        e 20 1 (J.Req_begin ("put", 2));
        e 25 1 (J.Count ("kv.retries", Retry, 1));
        e 30 1 (J.Req_end ("timeout", 2));
        e 40 1 (J.Req_begin ("get", 3));
        e 45 1 (J.Count ("kv.failovers", Failover, 1));
        e 46 1 (J.Count ("kv.retries", Retry, 1));
        e 50 1 (J.Req_end ("get", 3));
        e 60 1 (J.Req_begin ("get", 4));
        e 65 1 (J.Count ("ht-optik.restarts", Restart, 3));
        e 70 1 (J.Req_end ("get", 4));
        e 80 1 (J.Req_begin ("scan", 5));
        e 90 1 (J.Req_end ("shed", 5));
      ]
  in
  let a = A.analyze r in
  let outcomes =
    List.map (fun (rq : A.areq) -> A.outcome_name rq.A.a_outcome) a.A.reqs
  in
  Alcotest.(check (list string)) "derived outcomes"
    [ "retried"; "deadline"; "failed-over"; "ok"; "shed" ]
    outcomes

(* A thread killed by a crash fault: the scheduler journals a thread
   crash at the death timestamp, and all three readers close the open
   phase there — attribution finishes the request as crashed and charges
   the phase up to the death point only, the Chrome trace ends the phase
   and request spans at the death with a crashed arg, and the timeline's
   occupancy stops at it. *)
let test_crashed_thread () =
  let r =
    record
      [
        e 0 1 (J.Req_begin ("put", 1));
        e 10 1 (J.Phase_begin Store);
        e 35 1 (J.Instant (Thread_crash, None));
        (* another thread keeps running past the death *)
        e 50 2 (J.Req_begin ("get", 2));
        e 60 2 (J.Req_end ("get", 2));
      ]
  in
  let a = A.analyze r in
  Alcotest.(check int) "both requests recovered" 2 (List.length a.A.reqs);
  let rq = List.hd a.A.reqs in
  Alcotest.(check string) "outcome crashed" "crashed" (A.outcome_name rq.A.a_outcome);
  Alcotest.(check int) "t1 is the death timestamp" 35 rq.A.a_t1;
  check_phase "span closed at death" rq "store" 25;
  let chrome = Obs.Trace.to_chrome r in
  let ends_at_death name =
    Printf.sprintf
      "{\"name\":\"%s\",\"ph\":\"E\",\"ts\":35,\"pid\":0,\"tid\":1,\"args\":{\"crashed\":true}}"
      name
  in
  List.iter
    (fun name ->
      Alcotest.(check bool) ("chrome ends " ^ name ^ " at the death") true
        (R.contains ~sub:(ends_at_death name) chrome))
    [ "phase:store"; "req:put" ];
  (* six windows of 10 cycles: the store phase occupies [10, 35) *)
  let tl = A.timeline ~nwindows:6 r in
  Alcotest.(check (array int)) "occupancy stops at the death"
    [| 0; 10; 10; 5; 0; 0 |]
    (List.assoc "store" tl.A.tl_occ);
  Alcotest.(check (array int)) "the crash is marked" [| 0; 0; 0; 1; 0; 0 |]
    tl.A.tl_crashes

(* Timeline windowing: counts land in the right windows, per-shard
   [Tally] counters don't double-count next to the service aggregate,
   and span / inline occupancy is clipped per window. *)
let test_timeline_windows () =
  let r =
    record
      [
        e 10 1 (J.Req_begin ("get", 1));
        e 20 1 (J.Phase_elapsed (Queue, 15));
        e 150 1 (J.Phase_begin Store);
        e 250 1 (J.Phase_end Store);
        e 260 1 (J.Req_end ("get", 1));
        e 270 1 (J.Count ("kv.timeouts", Timeout, 1));
        e 270 1 (J.Count ("kv-s0.timeouts", Tally, 1));
        (* per-shard copy must not double-count *)
        e 310 2 (J.Instant (Node_crash, Some 0));
        e 320 2 (J.Instant (Storm, None));
        e 400 2 (J.Count ("kv.retries", Retry, 2));
      ]
  in
  let tl = A.timeline ~nwindows:4 r in
  Alcotest.(check int) "horizon" 400 tl.A.tl_horizon;
  Alcotest.(check int) "width" 100 tl.A.tl_width;
  Alcotest.(check (array int)) "reqs" [| 0; 0; 1; 0 |] tl.A.tl_reqs;
  Alcotest.(check (array int)) "timeouts" [| 0; 0; 1; 0 |] tl.A.tl_timeouts;
  Alcotest.(check (array int)) "crashes" [| 0; 0; 0; 1 |] tl.A.tl_crashes;
  Alcotest.(check (array int)) "storms" [| 0; 0; 0; 1 |] tl.A.tl_storms;
  (* retries at t=400 clamp into the last window, with the counter's n *)
  Alcotest.(check (array int)) "retries" [| 0; 0; 0; 2 |] tl.A.tl_retries;
  let occ p = List.assoc p tl.A.tl_occ in
  (* store span [150,250) splits evenly across windows 1 and 2 *)
  Alcotest.(check (array int)) "store occupancy" [| 0; 50; 50; 0 |] (occ "store");
  (* queue instant at t=20 covers [5,20) inside window 0 *)
  Alcotest.(check (array int)) "queue occupancy" [| 15; 0; 0; 0 |] (occ "queue")

(* The attribution section's percentiles over a journal with known
   per-request totals: three requests of 100, 200 and 1000 cycles. *)
let test_section_percentiles () =
  let req id t0 t1 =
    [ e t0 1 (J.Req_begin ("get", id)); e t1 1 (J.Req_end ("get", id)) ]
  in
  let r = record (req 1 0 100 @ req 2 200 400 @ req 3 500 1500) in
  let a = A.analyze r in
  let name, json = Harness.Report.attrib_section a in
  Alcotest.(check string) "section name" "attrib" name;
  let flat = R.flatten (R.Obj [ (name, json) ]) in
  let leaf path =
    match List.assoc_opt path flat with
    | Some v -> v
    | None -> Alcotest.failf "missing leaf %s" path
  in
  Alcotest.(check (float 0.)) "n" 3. (leaf "attrib.requests");
  Alcotest.(check (float 0.)) "p50" 200. (leaf "attrib.total.p50");
  Alcotest.(check (float 0.)) "p99 (ceiling rank)" 1000.
    (leaf "attrib.total.p99");
  (* untagged time is all "other": totals 100+200+1000 *)
  Alcotest.(check (float 0.)) "other total" 1300.
    (leaf "attrib.phases.other.total");
  Alcotest.(check (float 0.)) "other share" 100.
    (leaf "attrib.phases.other.share_pct");
  (* the tail holds just the p99 request, all of it "other" *)
  Alcotest.(check (float 0.)) "tail requests" 1. (leaf "attrib.tail.requests");
  Alcotest.(check (float 0.)) "tail cycles" 1000. (leaf "attrib.tail.cycles")

(* The fleet determinism contract for the new sections: the same seeded
   faulty KV trials, run under a 1-job and a 4-job fleet, must render
   byte-identical attribution and timeline sections. *)
let test_fleet_sections_deterministic () =
  let trial seed =
    let plan =
      Kv.rolling_plan ~seed ~nshards:2 ~count:1 ~down_for:60_000 ~stagger:800 ()
    in
    let cfg =
      {
        Kv.default_config with
        Kv.nshards = 2;
        threads = 4;
        ops = 1_500;
        seed;
        plan = Some plan;
      }
    in
    let _, r = Kv.run ~record_obs:true cfg in
    match r.Kv.res_trace with
    | None -> Alcotest.fail "expected a trace record"
    | Some rec_ ->
        let a = A.analyze rec_ in
        let tl = A.timeline rec_ in
        R.to_string
          (R.Obj [ Harness.Report.attrib_section a; Harness.Report.timeline_section tl ])
  in
  let fleet jobs =
    let tasks =
      List.map
        (fun seed ->
          Harness.Fleet.task ~label:(Printf.sprintf "kv seed %d" seed)
            (fun () -> trial seed))
        [ 3; 4; 5; 6 ]
    in
    String.concat "\n" (Harness.Fleet.map ~jobs tasks)
  in
  let one = fleet 1 in
  let four = fleet 4 in
  Alcotest.(check bool) "sections non-empty" true (String.length one > 0);
  Alcotest.(check string) "jobs:4 == jobs:1" one four

let () =
  Alcotest.run "attrib"
    [
      ( "attrib",
        [
          Alcotest.test_case "nested self time" `Quick test_nested_self_time;
          Alcotest.test_case "outcome derivation" `Quick test_outcomes;
          Alcotest.test_case "crashed thread" `Quick test_crashed_thread;
          Alcotest.test_case "timeline windows" `Quick test_timeline_windows;
          Alcotest.test_case "section percentiles" `Quick
            test_section_percentiles;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "sections deterministic" `Quick
            test_fleet_sections_deterministic;
        ] );
    ]
