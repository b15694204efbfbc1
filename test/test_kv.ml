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
   oracle passes strictly. *)

let resync_policy = { Kv.default_policy with Kv.degraded_cycles = 8_000 }

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
           ~stagger:3_000 ());
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
   copier, so the batched fold + OPTIK token revalidation + dual-write
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
  let _, r = Kv.run cfg in
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
      "kv/ht-optik@u4 s1 t2 o100 R200";
      "kv/ht-optik@u4 s1 t2 o100 R-1";
      "kv/ht-optik@u4 s1 t2 o100 C101";
      "kv/ht-optik@u4 s1 t2 o100 R60 C50";
    ]

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
  bad "transfer -1" { c with Kv.workload = { w with Kv.transfer_pct = -1 } };
  bad "read + scan + transfer 110"
    {
      c with
      Kv.workload =
        { w with Kv.read_pct = 60; scan_pct = 30; transfer_pct = 20 };
    }

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
      if
        not
          (let ls = String.length sub and l = String.length s in
           let rec at i = i + ls <= l && (String.sub s i ls = sub || at (i + 1)) in
           at 0)
      then Alcotest.failf "report missing %S" sub)
    [
      "\"p999\""; "\"oracle\""; "\"failover_events\""; "\"acked_writes\"";
      "\"degraded_cycles\""; "\"resync_batch\""; "\"warranted_ok\"";
      "\"warranty\"";
    ]

(* ------------------------------------------------------------------ *)
(* Allocation gate: building the stores is host work every run repeats.
   [Kv.create]'s minor + major words at the kv-zipf benchmark config
   (24k requests, 1000-cycle client gap, no bursts) are deterministic;
   QSBR building its per-thread state on first use keeps them about 3M,
   where eager state took about 25M. *)

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
  let limit = 4_000_000 in
  if words > limit then
    Alcotest.failf
      "Kv.create at kv-zipf (%s, %d shards, %d ops, gap %d, burst_every %d) \
       allocated %d words, over the %d-word gate"
      zipf_cfg.Kv.rep zipf_cfg.Kv.nshards zipf_cfg.Kv.ops
      zipf_cfg.Kv.workload.Kv.gap zipf_cfg.Kv.workload.Kv.burst_every words
      limit

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
        ] );
      ( "chaos",
        [
          Alcotest.test_case "trial grammar round-trip" `Quick
            test_kv_trial_roundtrip;
          Alcotest.test_case "run rejects bad configs" `Quick
            test_run_rejects_bad_config;
        ] );
      ( "report",
        [ Alcotest.test_case "section and p999" `Quick test_report_section ] );
      ( "allocation",
        [
          Alcotest.test_case "store creation under its gate" `Quick
            test_create_allocation;
        ] );
    ]
