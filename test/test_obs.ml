(* Tests for the observability layer: deterministic trace export,
   clock-neutral recording, hot-line attribution, and the Chrome
   trace_event exporter's span bookkeeping. *)

let topology = Sim.Topology.xeon

let ll_optik () = Harness.Registry.(set_ops (Sim_backend.find "list/optik"))

let run_once ~record_obs () =
  let (module S : Harness.Registry.SET_OPS) = ll_optik () in
  Harness.Runner.run_set_sim ~topology ~nthreads:4 ~ops:2_000 ~seed:7
    ~record_obs
    (module S)
    (Harness.Runner.uniform_workload ~init_size:128 ~update_pct:40 ())

let summary_of m =
  match m.Harness.Runner.obs with
  | Some s -> s
  | None -> Alcotest.fail "measurement carries no obs summary"

let count_substring hay needle =
  let nl = String.length needle and hl = String.length hay in
  let c = ref 0 in
  for i = 0 to hl - nl do
    if String.sub hay i nl = needle then incr c
  done;
  !c

(* Same seed, two recordings: the exported traces must be byte-identical
   even though the process-global cache-line ids differ between runs. *)
let test_same_seed_traces_identical () =
  let r1 = (summary_of (run_once ~record_obs:true ())).Obs.Profile.s_record in
  let r2 = (summary_of (run_once ~record_obs:true ())).Obs.Profile.s_record in
  Alcotest.(check string)
    "jsonl byte-identical" (Obs.Trace.to_jsonl r1) (Obs.Trace.to_jsonl r2);
  Alcotest.(check string)
    "chrome byte-identical" (Obs.Trace.to_chrome r1) (Obs.Trace.to_chrome r2)

(* Recording must never advance the virtual clock: a traced run reports
   exactly the figures of an untraced one. *)
let test_recording_is_clock_neutral () =
  let quiet = run_once ~record_obs:false () in
  let traced = run_once ~record_obs:true () in
  let open Harness.Runner in
  Alcotest.(check (float 0.)) "mops" quiet.mops traced.mops;
  Alcotest.(check int) "ops" quiet.ops traced.ops;
  Alcotest.(check int) "reads" quiet.reads traced.reads;
  Alcotest.(check int) "writes" quiet.writes traced.writes;
  Alcotest.(check int) "cas" quiet.cas traced.cas;
  Alcotest.(check int) "cas failed" quiet.cas_failed traced.cas_failed;
  Alcotest.(check int) "final size" quiet.final_size traced.final_size

(* Hot-line profiles attribute the contended lines to the allocating
   structure: an ll-optik run is dominated by its node lines. *)
let test_hotlines_attributed () =
  let s = summary_of (run_once ~record_obs:true ()) in
  match
    List.find_opt
      (fun (h : Obs.Profile.hotline) -> h.hl_site = "ll-optik.node")
      s.Obs.Profile.s_hotlines
  with
  | None -> Alcotest.fail "no ll-optik.node hotline entry"
  | Some h ->
      Alcotest.(check bool) "many node lines" true (h.hl_lines > 10);
      Alcotest.(check bool) "transfers recorded" true (h.hl_transfers > 0)

(* The journal carries the run's activity: checkpoints, probe counts,
   and per-thread op totals that add up to the measured total. *)
let test_journal_contents () =
  let m = run_once ~record_obs:true () in
  let s = summary_of m in
  Alcotest.(check bool) "events recorded" true (s.Obs.Profile.s_events > 0);
  let journal_ops =
    List.fold_left
      (fun a (t : Obs.Profile.thread_total) -> a + t.tt_ops)
      0 s.Obs.Profile.s_threads
  in
  Alcotest.(check int) "journal ops match measurement" m.Harness.Runner.ops
    journal_ops;
  let windows_ops =
    List.fold_left
      (fun a (w : Obs.Profile.window) -> a + w.w_ops)
      0 s.Obs.Profile.s_windows
  in
  Alcotest.(check int) "window series conserves ops" journal_ops windows_ops

(* The runner journals one [runner.op-cycles] sample per measured op, each
   the op's latency in cycles: the trace carries per-op latency without a
   probe histogram. *)
let test_op_cycle_samples () =
  let m = run_once ~record_obs:true () in
  let samples =
    Array.fold_left
      (fun acc (e : Obs.Journal.entry) ->
        match e.kind with
        | Obs.Journal.Sample ("runner.op-cycles", d) -> d :: acc
        | _ -> acc)
      [] (summary_of m).Obs.Profile.s_record.Obs.Journal.entries
  in
  Alcotest.(check int) "one sample per op" m.Harness.Runner.ops
    (List.length samples);
  Alcotest.(check bool) "every op takes cycles" true
    (List.for_all (fun d -> d > 0) samples)

(* Counters are the one probe statistic: after a run the registry lists
   each counter with its kind, and the runner's per-op latency is a trace
   sample, not a registered probe. *)
let test_probes_are_counters () =
  ignore (run_once ~record_obs:true ());
  let all = Sim.Sim_rt.Probe.all () in
  Alcotest.(check bool) "probes registered" true (all <> []);
  Alcotest.(check bool) "ll-optik.restarts is a restart counter" true
    (List.assoc_opt "ll-optik.restarts" all = Some Rt.Rt_intf.Restart);
  Alcotest.(check bool) "op latency is not a probe" false
    (List.mem_assoc "runner.op-cycles" all)

(* Chrome exporter: every "B" has a matching "E" (critical sections are
   synthesized from checkpoint pairs; leftovers are auto-closed). *)
let test_chrome_spans_balanced () =
  let s = summary_of (run_once ~record_obs:true ()) in
  let chrome = Obs.Trace.to_chrome s.Obs.Profile.s_record in
  Alcotest.(check int) "B = E"
    (count_substring chrome "\"ph\":\"B\"")
    (count_substring chrome "\"ph\":\"E\"");
  Alcotest.(check bool) "has critical sections" true
    (count_substring chrome "\"name\":\"critical-section\"" > 0)

(* Exporter edge cases on a hand-built record: an unmatched end is
   dropped, a dangling begin is closed at the trace's final timestamp. *)
let test_chrome_unbalanced_spans () =
  let open Obs.Journal in
  let r =
    {
      entries =
        [|
          { at = 10; tid = 0; kind = Span_begin "x" };
          { at = 15; tid = 1; kind = Span_end "ghost" };
          { at = 20; tid = 0; kind = Instant ("tick", None) };
        |];
      lines = [];
    }
  in
  let chrome = Obs.Trace.to_chrome r in
  Alcotest.(check int) "one B" 1 (count_substring chrome "\"ph\":\"B\"");
  Alcotest.(check int) "one E (auto-close)" 1
    (count_substring chrome "\"ph\":\"E\"");
  Alcotest.(check int) "ghost end dropped" 0
    (count_substring chrome "\"name\":\"ghost\"");
  (* the auto-close lands at the last timestamp *)
  Alcotest.(check bool) "closed at end" true
    (count_substring chrome "{\"name\":\"x\",\"ph\":\"E\",\"ts\":20" = 1)

(* The recorder is inert between sessions and cheap to leave disabled. *)
let test_recorder_off_by_default () =
  Alcotest.(check bool) "not recording" false (Obs.Journal.recording ());
  let m = run_once ~record_obs:false () in
  Alcotest.(check bool) "no summary" true (m.Harness.Runner.obs = None)

let () =
  Alcotest.run "obs"
    [
      ( "determinism",
        [
          Alcotest.test_case "same-seed traces byte-identical" `Quick
            test_same_seed_traces_identical;
          Alcotest.test_case "recording is clock-neutral" `Quick
            test_recording_is_clock_neutral;
        ] );
      ( "profiles",
        [
          Alcotest.test_case "hot lines attributed to sites" `Quick
            test_hotlines_attributed;
          Alcotest.test_case "journal totals consistent" `Quick
            test_journal_contents;
          Alcotest.test_case "op-cycle samples" `Quick test_op_cycle_samples;
          Alcotest.test_case "probes are counters" `Quick
            test_probes_are_counters;
        ] );
      ( "exporters",
        [
          Alcotest.test_case "chrome spans balanced" `Quick
            test_chrome_spans_balanced;
          Alcotest.test_case "chrome unbalanced spans" `Quick
            test_chrome_unbalanced_spans;
          Alcotest.test_case "recorder off by default" `Quick
            test_recorder_off_by_default;
        ] );
    ]
