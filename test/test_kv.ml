(* Tests for the sharded KV service (lib/kv): determinism under rolling
   shard crashes, the acknowledged-write exactly-once oracle (positive
   run plus both negative controls), the hardening counters, the chaos
   trial grammar, and the report section. *)

module Fault = Sim.Fault
module Fp = Rt.Rt_intf

let rolling_cfg =
  {
    Kv.default_config with
    Kv.nshards = 4;
    threads = 6;
    ops = 3_000;
    plan =
      Some
        (Kv.rolling_plan ~seed:42 ~nshards:4 ~count:2 ~down_for:60_000
           ~stagger:1_000 ());
  }

(* ------------------------------------------------------------------ *)
(* Byte-determinism: everything the CLI prints and the report digests
   is derived from the measurement and result, so compare those. *)

let run_key (m : Harness.Runner.measurement) (r : Kv.result) =
  ( ( m.Harness.Runner.ops,
      m.Harness.Runner.reads,
      m.Harness.Runner.writes,
      m.Harness.Runner.cas,
      m.Harness.Runner.events,
      m.Harness.Runner.counters ),
    ( r.Kv.res_oracle.Kv.ok,
      r.Kv.res_oracle.Kv.acked_writes,
      r.Kv.res_events,
      r.Kv.res_shard_sizes,
      r.Kv.res_shard_lat ) )

let test_deterministic () =
  let a =
    let m, r = Kv.run rolling_cfg in
    run_key m r
  in
  let b =
    let m, r = Kv.run rolling_cfg in
    run_key m r
  in
  Alcotest.(check bool) "identical measurement, oracle, timeline" true (a = b)

let test_seed_changes_run () =
  let m_a, _ = Kv.run rolling_cfg in
  let m_b, _ = Kv.run { rolling_cfg with Kv.seed = 43 } in
  Alcotest.(check bool) "different seed, different run" true
    (m_a.Harness.Runner.counters <> m_b.Harness.Runner.counters)

(* ------------------------------------------------------------------ *)
(* Oracle, positive: rolling primary crashes within the f = 1 budget
   must not lose or duplicate a single acknowledged write. *)

let test_oracle_passes_rolling_crashes () =
  let m, r = Kv.run rolling_cfg in
  Alcotest.(check bool) "run completed" false (Harness.Runner.aborted m);
  Alcotest.(check bool) "stores valid" true m.Harness.Runner.valid;
  Alcotest.(check bool) "crashes actually happened" true
    (List.length r.Kv.res_events >= 2);
  Alcotest.(check bool) "some writes acked" true
    (r.Kv.res_oracle.Kv.acked_writes > 0);
  if not r.Kv.res_oracle.Kv.ok then
    Alcotest.failf "oracle failed: %s"
      (Format.asprintf "%a" Kv.pp_oracle r.Kv.res_oracle)

(* ------------------------------------------------------------------ *)
(* Negative control 1: a retry policy that writes a fresh element per
   attempt duplicates the visible effect when an ack is lost to a
   replica crash mid-write. The oracle must catch it. *)

let test_broken_retry_duplicates () =
  let cfg =
    {
      Kv.default_config with
      Kv.nshards = 1;
      threads = 6;
      ops = 3_000;
      workload = { Kv.default_workload with Kv.read_pct = 0; scan_pct = 0 };
      policy = Kv.broken_retry_policy;
      plan =
        Some
          (Fault.plan ~seed:7
             [ Fault.shard_crash ~hits:40 ~down_for:0 1 Fp.Op_boundary ]);
    }
  in
  let _, r = Kv.run cfg in
  Alcotest.(check bool) "oracle failed" false r.Kv.res_oracle.Kv.ok;
  Alcotest.(check bool) "duplicates detected" true
    (r.Kv.res_oracle.Kv.duplicated <> []);
  Alcotest.(check (list (pair int int))) "nothing lost" []
    r.Kv.res_oracle.Kv.lost

(* ------------------------------------------------------------------ *)
(* Negative control 2: without replication, a primary crash wipes
   acknowledged writes. The oracle must report them lost. *)

let test_no_replication_loses () =
  let cfg =
    {
      Kv.default_config with
      Kv.nshards = 1;
      threads = 6;
      ops = 3_000;
      workload = { Kv.default_workload with Kv.read_pct = 0; scan_pct = 0 };
      policy = Kv.no_replication_policy;
      plan =
        Some
          (Fault.plan ~seed:7
             [ Fault.shard_crash ~hits:200 ~down_for:40_000 0 Fp.Op_boundary ]);
    }
  in
  let _, r = Kv.run cfg in
  Alcotest.(check bool) "oracle failed" false r.Kv.res_oracle.Kv.ok;
  Alcotest.(check bool) "lost writes detected" true
    (r.Kv.res_oracle.Kv.lost <> [])

(* ------------------------------------------------------------------ *)
(* Hardening counters: under rolling crashes the service must actually
   exercise its machinery — failovers while primaries are down, sheds
   during recovery windows, wipes on every crash. *)

let counters_of (m : Harness.Runner.measurement) name =
  Option.value ~default:0 (List.assoc_opt name m.Harness.Runner.counters)

let test_hardening_counters () =
  let m, _ = Kv.run rolling_cfg in
  Alcotest.(check bool) "failovers happened" true
    (counters_of m "kv.failovers" > 0);
  Alcotest.(check bool) "scans shed during recovery" true
    (counters_of m "kv.sheds" > 0);
  Alcotest.(check int) "one wipe per crash" 2 (counters_of m "kv.wipes");
  Alcotest.(check int) "acked counter matches oracle" (counters_of m "kv.acked-writes")
    (let _, r = Kv.run rolling_cfg in
     r.Kv.res_oracle.Kv.acked_writes)

(* Both copies of a pair down forces point ops through retry/backoff to
   a timeout: requests must fail loudly, not ack into the void. Note
   this plan is deliberately OUTSIDE the f = 1 warranty (two crashes in
   one pair), so writes acked before the second crash may be lost and
   the oracle reports them — what must never appear is a duplicate or an
   ack issued after both copies are gone. *)
let test_timeouts_when_pair_down () =
  let cfg =
    {
      Kv.default_config with
      Kv.nshards = 1;
      threads = 4;
      ops = 1_500;
      plan =
        Some
          (Fault.plan ~seed:7
             [
               Fault.shard_crash ~hits:30 ~down_for:0 0 Fp.Op_boundary;
               Fault.shard_crash ~hits:31 ~down_for:0 1 Fp.Op_boundary;
             ]);
    }
  in
  let m, r = Kv.run cfg in
  Alcotest.(check bool) "timeouts recorded" true
    (counters_of m "kv.timeouts" > 0);
  Alcotest.(check bool) "retries recorded" true
    (counters_of m "kv.retries" > 0);
  Alcotest.(check bool) "backoff applied" true
    (counters_of m "kv.backoff-cycles" > 0);
  Alcotest.(check (list (triple int int int))) "timeouts are not acks: no dups"
    [] r.Kv.res_oracle.Kv.duplicated;
  (* every loss predates the second crash: out-of-warranty, detected *)
  Alcotest.(check bool) "losses bounded by pre-crash acks" true
    (List.length r.Kv.res_oracle.Kv.lost <= r.Kv.res_oracle.Kv.acked_writes)

(* ------------------------------------------------------------------ *)
(* Resync: the anti-entropy path and the re-armable warranty. The
   rolling config below crashes the SAME pair three times (alternating
   primary/replica), spaced so each wiped store exits its degraded
   window and completes a fenced copy before the next crash lands —
   every crash is absorbed, the budget re-arms each time, and the
   oracle passes strictly. At stagger 5000 the closest crash fires
   ~100k cycles after the copy before it caught up; at 3000 the second
   copy loses the race and aborts. [check_copies_beat_crashes] checks
   that premise on every run, so a cost change that erodes the margin
   fails by name rather than as a missing re-arm. *)

let resync_policy = { Kv.default_policy with Kv.degraded_cycles = 8_000 }

let check_copies_beat_crashes (m : Harness.Runner.measurement) (r : Kv.result) =
  let caught_up =
    List.filter_map
      (fun e ->
        if Obs.Report.contains ~sub:" caught up (" e then
          Scanf.sscanf_opt e "t=%d " Fun.id
        else None)
      r.Kv.res_events
  in
  let crashes =
    List.sort compare
      (List.filter_map
         (fun (e : Fault.event) ->
           match e.Fault.e_spec.Fault.f_action with
           | Fault.Shard_crash _ -> Some e.Fault.e_clock
           | _ -> None)
         m.Harness.Runner.fired)
  in
  List.iteri
    (fun i crash ->
      let before = List.length (List.filter (fun c -> c < crash) caught_up) in
      if before < i then
        Alcotest.failf
          "crash %d fired at t=%d after %d catch-ups, not %d: the stagger no \
           longer spans a resync"
          (i + 1) crash before i)
    crashes

let resync_rolling_cfg =
  {
    Kv.default_config with
    Kv.nshards = 1;
    threads = 6;
    ops = 12_000;
    seed = 7;
    workload = { Kv.default_workload with Kv.read_pct = 98; scan_pct = 0 };
    policy = resync_policy;
    plan =
      Some
        (Kv.rolling_plan ~seed:7 ~nshards:1 ~count:3 ~down_for:15_000
           ~stagger:5_000 ());
  }

let test_resync_deterministic () =
  let key () =
    let m, r = Kv.run resync_rolling_cfg in
    (run_key m r, r.Kv.res_warranty)
  in
  Alcotest.(check bool) "identical measurement, oracle, timeline, warranty"
    true
    (key () = key ())

let test_resync_rearms () =
  let m, r = Kv.run resync_rolling_cfg in
  check_copies_beat_crashes m r;
  Alcotest.(check bool) "run completed" false (Harness.Runner.aborted m);
  Alcotest.(check int) "three crashes, three wipes" 3
    (counters_of m "kv.wipes");
  Alcotest.(check int) "each wipe repaired" 3 (counters_of m "kv.resyncs");
  Alcotest.(check int) "budget re-armed after every catch-up" 3
    (counters_of m "kv.rearms");
  Alcotest.(check int) "no fence aborts" 0 (counters_of m "kv.resync-aborts");
  Alcotest.(check bool) "pair ends under warranty" true
    (r.Kv.res_warranty = [| Kv.Armed |]);
  if not r.Kv.res_oracle.Kv.ok then
    Alcotest.failf "oracle failed: %s"
      (Format.asprintf "%a" Kv.pp_oracle r.Kv.res_oracle)

(* Fold-snapshot consistency: a write-heavy mix keeps writers racing the
   copier, so the batched fold + live per-key re-read + dual-write
   must together deliver a post-catch-up replica that agrees with the
   primary — sizes equal, strict oracle PASS, and the dual-write counter
   proves the copy really overlapped live writes. *)
let test_resync_snapshot_under_writers () =
  let cfg =
    {
      resync_rolling_cfg with
      Kv.ops = 8_000;
      workload = { Kv.default_workload with Kv.read_pct = 50; scan_pct = 0 };
      plan =
        Some
          (Kv.rolling_plan ~seed:7 ~nshards:1 ~count:1 ~down_for:15_000
             ~stagger:2_000 ());
    }
  in
  let m, r = Kv.run cfg in
  Alcotest.(check int) "resync completed" 1 (counters_of m "kv.resyncs");
  Alcotest.(check bool) "live writes landed during the copy" true
    (counters_of m "kv-s0.resync-dual-writes" > 0);
  Alcotest.(check bool) "copies agree after catch-up" true
    (let p, rp = r.Kv.res_shard_sizes.(0) in
     p = rp);
  if not r.Kv.res_oracle.Kv.ok then
    Alcotest.failf "oracle failed: %s"
      (Format.asprintf "%a" Kv.pp_oracle r.Kv.res_oracle)

(* Double crash within the resync window: [resynccrash] only counts hits
   while the pair is mid-copy, so the second crash is guaranteed to land
   inside the repair. The fence must abort the copy, the pair must drop
   out of warranty for good (no later re-arm), and the oracle must
   excuse — not miss — the losses. *)
let resynccrash_plan =
  Fault.plan ~seed:7
    [
      Fault.shard_crash ~hits:40 ~down_for:15_000 0 Fp.Op_boundary;
      Fault.resync_crash ~hits:6 ~down_for:15_000 1 Fp.Op_boundary;
    ]

let resynccrash_cfg =
  {
    Kv.default_config with
    Kv.nshards = 1;
    threads = 6;
    ops = 8_000;
    seed = 7;
    workload = { Kv.default_workload with Kv.read_pct = 80; scan_pct = 0 };
    policy = resync_policy;
    plan = Some resynccrash_plan;
  }

let test_double_crash_drops_warranty () =
  let m, r = Kv.run resynccrash_cfg in
  Alcotest.(check int) "both crashes fired" 2 (counters_of m "kv.wipes");
  Alcotest.(check bool) "fence aborted the copy" true
    (counters_of m "kv.resync-aborts" > 0);
  Alcotest.(check int) "a voided pair never re-arms" 0
    (counters_of m "kv.rearms");
  Alcotest.(check bool) "warranty dropped" true
    (r.Kv.res_warranty = [| Kv.Voided |]);
  Alcotest.(check bool) "losses excused, not missed" true
    r.Kv.res_oracle.Kv.warranted_ok;
  Alcotest.(check (list (pair int int))) "no loss charged to the warranty" []
    r.Kv.res_oracle.Kv.lost_unwarranted

(* Negative control 3: a resync that skips dual-write loses the writes
   acked into the primary while the replica was copying — in-warranty
   losses the oracle must charge. *)
let test_broken_dual_write_fails () =
  let cfg =
    {
      resync_rolling_cfg with
      Kv.policy =
        {
          (Kv.broken_resync_policy `Dual_write) with
          Kv.degraded_cycles = 8_000;
        };
    }
  in
  let m, r = Kv.run cfg in
  check_copies_beat_crashes m r;
  Alcotest.(check bool) "oracle failed" false r.Kv.res_oracle.Kv.warranted_ok;
  Alcotest.(check bool) "in-warranty losses detected" true
    (r.Kv.res_oracle.Kv.lost_unwarranted <> [])

(* Negative control 4: a fenceless resync sails past a mid-copy crash of
   its source, completes against the wiped store and forges the re-arm;
   the oracle must charge the losses to the (bogus) warranty. The same
   plan under the correct policy is excused (see must-drop test). *)
let test_broken_fencing_fails () =
  let cfg =
    {
      resynccrash_cfg with
      Kv.policy =
        {
          (Kv.broken_resync_policy `Fencing) with
          Kv.degraded_cycles = 8_000;
        };
    }
  in
  let m, r = Kv.run cfg in
  Alcotest.(check bool) "forged re-arm happened" true
    (counters_of m "kv.rearms" > 0);
  Alcotest.(check bool) "oracle failed" false r.Kv.res_oracle.Kv.warranted_ok;
  Alcotest.(check bool) "in-warranty losses detected" true
    (r.Kv.res_oracle.Kv.lost_unwarranted <> [])

let rearm_cfg policy =
  {
    resynccrash_cfg with
    Kv.ops = 3_000;
    workload = { resynccrash_cfg.Kv.workload with Kv.read_pct = 100 };
    policy = { policy with Kv.degraded_cycles = 8_000 };
  }

let forged_rearm_cfg = rearm_cfg (Kv.broken_resync_policy `Fencing)
let oracles = List.map (fun f -> f.Chaos.f_oracle)

(* Must-drop through the judge: at 3000 requests, all reads, no ack is
   at stake, so only the warranty oracle can see that the fenceless
   copier re-armed a pair whose resync took a crash. Its correct-policy
   twin ends Voided and passes. *)
let test_judge_catches_forged_rearm () =
  let judge cfg =
    let ((_, r) as run) = Kv.run cfg in
    (r, Chaos.Kv_trial.judge cfg run)
  in
  let r, failures = judge forged_rearm_cfg in
  Alcotest.(check bool) "forged pair reads armed" true
    (r.Kv.res_warranty = [| Kv.Armed |]);
  Alcotest.(check bool) "acked-write oracle blind to it" true
    r.Kv.res_oracle.Kv.warranted_ok;
  Alcotest.(check (list string)) "judged on the warranty" [ "warranty" ]
    (oracles failures);
  let r, failures = judge (rearm_cfg Kv.default_policy) in
  Alcotest.(check bool) "twin voided" true (r.Kv.res_warranty = [| Kv.Voided |]);
  Alcotest.(check int) "twin passes" 0 (List.length failures)

(* The judge is a function of its arguments: a fault-free run in between
   does not change the verdict on the forged re-arm, and the fault-free
   twin of that config passes. *)
let test_judge_is_pure () =
  let forged = Kv.run forged_rearm_cfg in
  let twin_cfg = { forged_rearm_cfg with Kv.plan = None } in
  let twin = Kv.run twin_cfg in
  Alcotest.(check (list string)) "forged run still judged on the warranty"
    [ "warranty" ]
    (oracles (Chaos.Kv_trial.judge forged_rearm_cfg forged));
  Alcotest.(check (list string)) "fault-free twin passes" []
    (oracles (Chaos.Kv_trial.judge twin_cfg twin))

(* A crash landing after the copier's catch-up decision but while it
   narrates the catch-up (sizing the copy yields) is not a mid-copy
   crash: the pair must leave the resync probe's view at the decision,
   so the plan's [resynccrash] on pair 1 fires only inside a real copy
   and voids the pair. In this trial, drawn by [kv --fuzz 300 --seed 7],
   a pair that stays in the probe's view while narrating ends armed
   after its resync crash. *)
let fence_window_trial =
  "kv/hashtable/optik@u2 s3 t6 o944 k77 R86 C0 w201137 D36735 B16 \
   f391485;shardcrash(0:56677)@critical-exit,h170;shardcrash(0:78450)@op-boundary,h236;\
   resynccrash(3:48078)@op-boundary,h4;shardcrash(4:64921)@op-boundary,h86;\
   shardcrash(4)@restart,h254;shardrecover(4)@op-boundary,h288;\
   resynccrash(1:21466)@op-boundary,h8;stall(21956)@op-boundary,h20;\
   stall(28673)@critical-exit,h4"

let test_fence_window_replay () =
  let module T = Chaos.Kv_trial in
  let { Chaos.failures; detail; _ } = T.run (T.of_string fence_window_trial) in
  List.iter
    (fun (f : Chaos.failure) ->
      Alcotest.failf "%s oracle: %s (%s)" f.Chaos.f_oracle f.Chaos.f_detail
        detail)
    failures

(* ------------------------------------------------------------------ *)
(* Chaos trial grammar round-trip. *)

let test_kv_trial_roundtrip () =
  let module T = Chaos.Kv_trial in
  let rng = Harness.Rng.create 99 in
  for _ = 1 to 100 do
    let tr = T.gen rng in
    let s = T.to_string tr in
    if T.of_string s <> tr then
      Alcotest.failf "kv trial round-trip failed: %s" s
  done;
  List.iter
    (fun s ->
      match T.of_string s with
      | (_ : T.t) -> Alcotest.failf "expected parse error for %S" s
      | exception Invalid_argument _ -> ())
    [
      "nonsense";
      "kv/hashtable/optik@u4 s1 t2 o100 R200";
      "kv/hashtable/optik@u4 s1 t2 o100 R-1";
      "kv/hashtable/optik@u4 s1 t2 o100 C101";
      "kv/hashtable/optik@u4 s1 t2 o100 R60 C50";
    ]

(* ------------------------------------------------------------------ *)
(* Rolling plans. *)

(* Crashes go round-robin over the pairs, one every [stagger] requests;
   even rounds hit the primary (store i), odd rounds the replica
   (store nshards + i). *)
let test_rolling_plan_targets () =
  let p =
    Kv.rolling_plan ~seed:3 ~nshards:2 ~count:5 ~down_for:100 ~stagger:50 ()
  in
  Alcotest.(check int) "seed" 3 p.Fault.seed;
  let crash (sp : Fault.spec) =
    match sp.Fault.f_action with
    | Fault.Shard_crash { shard; down_for } ->
        Alcotest.(check bool)
          "checkpoint is the op boundary" true
          (sp.Fault.f_point = Fp.Op_boundary);
        Alcotest.(check (option int)) "any thread" None sp.Fault.f_tid;
        (shard, down_for, sp.Fault.f_hits)
    | _ -> Alcotest.fail "a rolling plan holds only shard crashes"
  in
  Alcotest.(check (list (triple int int int)))
    "stores, down time and hits"
    [
      (0, 100, 50); (1, 100, 100); (2, 100, 150); (3, 100, 200); (0, 100, 250);
    ]
    (List.map crash p.Fault.specs)

(* A pair takes a second crash only after it healed, so more crashes
   than pairs need a finite down time; one crash per pair does not. *)
let test_rolling_plan_repeat_needs_heal () =
  (match Kv.rolling_plan ~nshards:2 ~count:3 ~down_for:0 ~stagger:10 () with
  | _ -> Alcotest.fail "expected Invalid_argument for 3 crashes on 2 pairs"
  | exception Invalid_argument _ -> ());
  let p = Kv.rolling_plan ~nshards:2 ~count:2 ~down_for:0 ~stagger:10 () in
  Alcotest.(check int) "one crash per pair" 2 (List.length p.Fault.specs)

(* Configurations the service cannot run are rejected up front, not
   looped on forever or failed deep inside. *)
let test_run_rejects_bad_config () =
  let bad what cfg =
    match Kv.run cfg with
    | _ -> Alcotest.failf "expected Invalid_argument for %s" what
    | exception Invalid_argument _ -> ()
  in
  let c = Kv.default_config in
  bad "ops 0" { c with Kv.ops = 0 };
  bad "threads 0" { c with Kv.threads = 0 };
  bad "threads past QSBR's cap" { c with Kv.threads = 129 };
  bad "shards 0" { c with Kv.nshards = 0 };
  let w = c.Kv.workload in
  bad "keys 0" { c with Kv.workload = { w with Kv.keys = 0 } };
  (* a zero batch never shortens the key list: the resync would spin *)
  bad "resync_batch 0"
    { c with Kv.policy = { c.Kv.policy with Kv.resync_batch = 0 } };
  bad "degraded_cycles -1"
    { c with Kv.policy = { c.Kv.policy with Kv.degraded_cycles = -1 } };
  bad "read -20" { c with Kv.workload = { w with Kv.read_pct = -20 } };
  bad "scan 101" { c with Kv.workload = { w with Kv.scan_pct = 101 } };
  bad "read + scan 110"
    { c with Kv.workload = { w with Kv.read_pct = 60; scan_pct = 50 } }

(* ------------------------------------------------------------------ *)
(* Report integration: the kv run renders into a valid schema'd report
   whose flattened numeric paths include the new tail percentiles and
   whose kv section carries the oracle verdict. *)

let test_report_section () =
  let m, r = Kv.run rolling_cfg in
  let j =
    Harness.Report.make ~subcommand:"kv" ~seed:(Some rolling_cfg.Kv.seed)
      ~params:[]
      ~sections:[ Kv.report_section rolling_cfg r ]
      [ ("kv/" ^ rolling_cfg.Kv.rep, m) ]
  in
  (match Obs.Report.validate j with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invalid report: %s" e);
  let s = Obs.Report.to_string j in
  List.iter
    (fun sub ->
      if not (Obs.Report.contains ~sub s) then Alcotest.failf "report missing %S" sub)
    [
      "\"p999\""; "\"oracle\""; "\"failover_events\""; "\"acked_writes\"";
      "\"degraded_cycles\""; "\"resync_batch\""; "\"warranted_ok\"";
      "\"warranty\"";
    ]

(* The deadline and retry bound are constants, not policy fields, yet
   every policy's report still prints them, so kv reports keep their
   bytes whatever policy a run takes. *)
let test_policy_prints_constants () =
  List.iter
    (fun (what, p) ->
      match Kv.policy_json p with
      | Obs.Report.Obj fields ->
          let int_field k =
            match List.assoc_opt k fields with
            | Some (Obs.Report.Int n) -> n
            | _ -> Alcotest.failf "%s: policy has no integer %S" what k
          in
          Alcotest.(check int) (what ^ ": deadline") 400_000
            (int_field "deadline");
          Alcotest.(check int) (what ^ ": max_retries") 8
            (int_field "max_retries")
      | _ -> Alcotest.failf "%s: policy is not an object" what)
    [
      ("default", Kv.default_policy);
      ("broken retry", Kv.broken_retry_policy);
      ("no replication", Kv.no_replication_policy);
      ("broken dual-write", Kv.broken_resync_policy `Dual_write);
    ]

(* A kv run makes no transactions: its counters hold no transfer or
   [txn.*] activity and its latency classes are the request kinds (plus
   resync under a crash plan). The bank workload is [Txn.Workload]'s. *)
let test_run_makes_no_transactions () =
  let m, r = Kv.run rolling_cfg in
  List.iter
    (fun (name, _) ->
      if name = "kv.transfers" || String.starts_with ~prefix:"txn." name then
        Alcotest.failf "kv run registered counter %S" name)
    m.Harness.Runner.counters;
  Alcotest.(check (array string))
    "latency classes"
    (Array.append Kv.lat_classes [| "resync" |])
    m.Harness.Runner.lat_classes;
  if not r.Kv.res_oracle.Kv.ok then
    Alcotest.failf "kv oracle failed: %s"
      (Format.asprintf "%a" Kv.pp_oracle r.Kv.res_oracle)

(* ------------------------------------------------------------------ *)
(* Allocation gate: building the stores is host work every run repeats.
   [Kv.create]'s minor + major words at the kv-zipf benchmark config
   (24k requests, 1000-cycle client gap, no bursts) are deterministic;
   QSBR building its per-thread state on first use, and sizing its
   retire slots and stamp cells only as far as a thread touches them,
   keeps them about 0.83M, where eager state took about 25M and
   full-size 128-entry arrays about 3M. *)

let zipf_cfg =
  {
    Kv.default_config with
    Kv.ops = 24_000;
    workload = { Kv.default_workload with Kv.gap = 1000; burst_every = 0 };
  }

let create_words cfg =
  let b0 = Gc.allocated_bytes () in
  ignore (Sys.opaque_identity (Kv.create cfg));
  int_of_float ((Gc.allocated_bytes () -. b0) /. float_of_int (Sys.word_size / 8))

let test_create_allocation () =
  let words = create_words zipf_cfg in
  let limit = 1_200_000 in
  if words > limit then
    Alcotest.failf
      "Kv.create at kv-zipf (%s, %d shards, %d ops, gap %d, burst_every %d) \
       allocated %d words, over the %d-word gate"
      zipf_cfg.Kv.rep zipf_cfg.Kv.nshards zipf_cfg.Kv.ops
      zipf_cfg.Kv.workload.Kv.gap zipf_cfg.Kv.workload.Kv.burst_every words
      limit

(* Put elements are dense ids above every key, so the elements of
   consecutive uids reach every bucket of an [ht-optik] store: at the
   kv-zipf config, uids 1..1024 fill all 1024. A power-of-two stride
   would not (uid ⋅ 64 reaches 16 of them), since the bucket keeps only
   the low bits of [Ht.hash]. The broken-retry policy's attempts stay
   distinct elements in the same range. *)
let test_elements_fill_buckets () =
  let check what cfg ~attempts =
    let nb = Kv.store_capacity cfg in
    let w = cfg.Kv.workload in
    let buckets = Hashtbl.create nb and elems = Hashtbl.create nb in
    for uid = 1 to nb do
      for attempt = 1 to attempts do
        let e = Kv.element cfg ~uid ~attempt in
        if e <= w.Kv.keys then
          Alcotest.failf "%s: element %d of uid %d is not above keys" what e
            uid;
        Hashtbl.replace elems e ();
        Hashtbl.replace buckets (Dstruct.Ht.hash e mod nb) ()
      done
    done;
    Alcotest.(check int) (what ^ ": buckets reached") nb (Hashtbl.length buckets);
    Alcotest.(check int) (what ^ ": distinct elements") (nb * attempts)
      (Hashtbl.length elems)
  in
  check "kv-zipf" zipf_cfg ~attempts:1;
  check "broken retries"
    { zipf_cfg with Kv.policy = Kv.broken_retry_policy }
    ~attempts:(Kv.max_retries + 1)

(* Repeated same-seed runs in one domain keep the live heap flat:
   nothing a run builds may outlive it. Line allocation sites travel on
   the simulator's lines, so even an untraced run leaves no per-line
   entry behind in the journal. *)
let test_repeated_runs_hold_no_heap () =
  let cfg = { Kv.default_config with Kv.ops = 2000; seed = 7 } in
  let live_words () =
    Gc.compact ();
    (Gc.stat ()).Gc.live_words
  in
  ignore (Sys.opaque_identity (Kv.run cfg));
  let base = live_words () in
  for _ = 1 to 5 do
    ignore (Sys.opaque_identity (Kv.run cfg))
  done;
  let after = live_words () in
  if 10 * after >= 11 * base then
    Alcotest.failf "live heap grew from %d to %d words over five more runs"
      base after

let () =
  Alcotest.run "kv"
    [
      ( "determinism",
        [
          Alcotest.test_case "seeded run deterministic" `Quick
            test_deterministic;
          Alcotest.test_case "seed changes run" `Quick test_seed_changes_run;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "passes under rolling crashes" `Quick
            test_oracle_passes_rolling_crashes;
          Alcotest.test_case "broken retry duplicates" `Quick
            test_broken_retry_duplicates;
          Alcotest.test_case "no replication loses" `Quick
            test_no_replication_loses;
        ] );
      ( "hardening",
        [
          Alcotest.test_case "failover/shed/wipe counters" `Quick
            test_hardening_counters;
          Alcotest.test_case "timeouts when pair down" `Quick
            test_timeouts_when_pair_down;
        ] );
      ( "resync",
        [
          Alcotest.test_case "seeded multi-crash run deterministic" `Quick
            test_resync_deterministic;
          Alcotest.test_case "budget re-arms after each catch-up" `Quick
            test_resync_rearms;
          Alcotest.test_case "fold snapshot consistent under writers" `Quick
            test_resync_snapshot_under_writers;
          Alcotest.test_case "double crash in resync drops warranty" `Quick
            test_double_crash_drops_warranty;
          Alcotest.test_case "broken dual-write fails oracle" `Quick
            test_broken_dual_write_fails;
          Alcotest.test_case "broken fencing fails oracle" `Quick
            test_broken_fencing_fails;
          Alcotest.test_case "judge catches a forged re-arm" `Quick
            test_judge_catches_forged_rearm;
          Alcotest.test_case "judge ignores later runs" `Quick
            test_judge_is_pure;
          Alcotest.test_case "crash after catch-up is not mid-copy" `Quick
            test_fence_window_replay;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "trial grammar round-trip" `Quick
            test_kv_trial_roundtrip;
          Alcotest.test_case "run rejects bad configs" `Quick
            test_run_rejects_bad_config;
        ] );
      ( "rolling plan",
        [
          Alcotest.test_case "crashes alternate primary and replica" `Quick
            test_rolling_plan_targets;
          Alcotest.test_case "repeat crashes need a heal time" `Quick
            test_rolling_plan_repeat_needs_heal;
        ] );
      ( "report",
        [
          Alcotest.test_case "section and p999" `Quick test_report_section;
          Alcotest.test_case "policy prints the fixed deadline and retries"
            `Quick test_policy_prints_constants;
          Alcotest.test_case "run makes no transactions" `Quick
            test_run_makes_no_transactions;
        ] );
      ( "elements",
        [
          Alcotest.test_case "elements fill every bucket" `Quick
            test_elements_fill_buckets;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "store creation under its gate" `Quick
            test_create_allocation;
          Alcotest.test_case "repeated runs hold no heap" `Quick
            test_repeated_runs_hold_no_heap;
        ] );
    ]
