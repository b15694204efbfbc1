(* Tests for the optimistic transaction layer (lib/txn): fold/size
   agreement across every registry set (the versioned-OPS API addition),
   sequential transaction semantics (read-your-writes, upsert,
   lock-conflict abort), seeded determinism under contention, abort-free
   snapshots, the strict-serializability oracle (positive run plus the
   broken-commit negative control), the chaos trial grammar, the report
   section, and the KV multi-key transfer integration. *)

module W = Txn.Workload
module R = Harness.Registry
module TX = Txn.Make (Sim.Sim_rt)

(* ------------------------------------------------------------------ *)
(* fold: every registry set enumerates exactly its live bindings. *)

let fold_family name (sets : (module R.SET_OPS) list) =
  Dstruct.Sl_common.reset_states ();
  List.iter
    (fun (module S : R.SET_OPS) ->
      let t = S.create ~capacity:256 () in
      let rng = Harness.Rng.create 11 in
      let live = Hashtbl.create 64 in
      for i = 1 to 300 do
        let k = 1 + Harness.Rng.below rng 200 in
        if Harness.Rng.below rng 4 = 0 then (
          match S.delete t k with
          | Some _ -> Hashtbl.remove live k
          | None -> ())
        else if S.insert t k i then Hashtbl.add live k i
      done;
      let n, sum =
        S.fold t (fun k v (n, sum) -> (n + 1, sum + k + v)) (0, 0)
      in
      Alcotest.(check int)
        (Printf.sprintf "%s/%s: fold count = size" name S.name)
        (S.size t) n;
      let want =
        Hashtbl.fold (fun k v (n, sum) -> (n + 1, sum + k + v)) live (0, 0)
      in
      Alcotest.(check (pair int int))
        (Printf.sprintf "%s/%s: fold enumerates the model" name S.name)
        want (n, sum);
      S.fold t
        (fun k v () ->
          if S.search t k <> Some v then
            Alcotest.failf "%s/%s: fold yielded stale binding %d" name S.name k)
        ())
    sets

let test_fold_agrees_with_size () =
  let module SB = R.Sim_backend in
  fold_family "maps" SB.maps;
  fold_family "lists" SB.lists;
  fold_family "hashtables" SB.hashtables;
  fold_family "skiplists" SB.skiplists;
  fold_family "bsts" SB.bsts

(* ------------------------------------------------------------------ *)
(* Sequential transaction semantics on a quiesced simulator backend. *)

let fresh_pair () =
  Dstruct.Sl_common.reset_states ();
  let (module S : R.SET_OPS) = W.rep_module "ll-optik" in
  let mk () =
    let st = S.create ~capacity:64 () in
    for k = 1 to 4 do
      assert (S.insert st k 100)
    done;
    TX.obj (module S) st
  in
  (mk (), mk ())

let test_transfer_moves_units () =
  let a, b = fresh_pair () in
  let mgr = TX.create () in
  let (), _ticket =
    TX.atomically mgr (fun ctx ->
        let va = Option.get (TX.read ctx a 1) in
        let vb = Option.get (TX.read ctx b 2) in
        TX.write ctx a 1 (Some (va - 30));
        TX.write ctx b 2 (Some (vb + 30)))
  in
  let balance o k = fst (TX.obj_read o k) in
  Alcotest.(check (option int)) "debited" (Some 70) (balance a 1);
  Alcotest.(check (option int)) "credited" (Some 130) (balance b 2);
  Alcotest.(check (option int)) "others untouched" (Some 100) (balance a 2)

let test_read_your_writes () =
  let a, _ = fresh_pair () in
  let mgr = TX.create () in
  let seen, _ =
    TX.atomically mgr (fun ctx ->
        TX.write ctx a 1 (Some 7);
        let after_write = TX.read ctx a 1 in
        TX.write ctx a 1 None;
        let after_delete = TX.read ctx a 1 in
        (after_write, after_delete))
  in
  Alcotest.(check (pair (option int) (option int)))
    "buffered writes visible in-transaction" (Some 7, None) seen;
  Alcotest.(check (option int))
    "newest write wins at commit" None
    (fst (TX.obj_read a 1))

(* A conflicting commit advances the stripe version between the read
   phase and commit: the single-CAS validate-and-acquire must fail and
   the transaction must abort (vfail-txn-lock), leaving state intact. *)
let conflict_commit o k =
  let h = TX.obj_handle o k in
  ignore (h.Locks.Handle.acquire_any () : int);
  h.Locks.Handle.commit ()

let count = Sim.Sim_rt.Probe.count

let test_lock_conflict_aborts () =
  let a, _ = fresh_pair () in
  let mgr = TX.create ~max_retries:2 () in
  let lock0 = count mgr.TX.c_vfail_lock in
  (try
     ignore
       (TX.atomically mgr (fun ctx ->
            ignore (TX.read ctx a 1 : int option);
            conflict_commit a 1;
            TX.write ctx a 1 (Some 0))
         : unit * int);
     Alcotest.fail "expected Too_many_retries"
   with TX.Too_many_retries n ->
     Alcotest.(check int) "retried to the budget" 3 n);
  Alcotest.(check int) "every attempt failed its lock acquire" 3
    (count mgr.TX.c_vfail_lock - lock0);
  Alcotest.(check (option int))
    "aborted writes never applied" (Some 100)
    (fst (TX.obj_read a 1));
  let (), _ = TX.atomically mgr (fun ctx -> TX.write ctx a 1 (Some 1)) in
  Alcotest.(check (option int))
    "locks released, next txn commits" (Some 1)
    (fst (TX.obj_read a 1))

(* Same race on a key the transaction reads but does not write (a
   different stripe): the acquire succeeds, the read-set revalidation
   must catch the stale read (vfail-txn-read). *)
let test_read_validation_aborts () =
  let a, _ = fresh_pair () in
  let mgr = TX.create ~max_retries:1 () in
  let read0 = count mgr.TX.c_vfail_read in
  (try
     ignore
       (TX.atomically mgr (fun ctx ->
            ignore (TX.read ctx a 1 : int option);
            ignore (TX.read ctx a 2 : int option);
            conflict_commit a 2;
            TX.write ctx a 1 (Some 0))
         : unit * int);
     Alcotest.fail "expected Too_many_retries"
   with TX.Too_many_retries _ -> ());
  Alcotest.(check int) "aborts classified as read-validation failures" 2
    (count mgr.TX.c_vfail_read - read0);
  Alcotest.(check (option int))
    "aborted writes never applied" (Some 100)
    (fst (TX.obj_read a 1))

let test_snapshot_is_consistent () =
  let a, b = fresh_pair () in
  let mgr = TX.create () in
  let sum, c0, c1 =
    TX.snapshot mgr (fun ctx ->
        let add o k acc = acc + Option.value ~default:0 (TX.read ctx o k) in
        let acc = ref 0 in
        for k = 1 to 4 do
          acc := add a k !acc;
          acc := add b k !acc
        done;
        !acc)
  in
  Alcotest.(check int) "snapshot sums the preload" 800 sum;
  Alcotest.(check bool) "clock window well-formed" true (c0 <= c1)

(* ------------------------------------------------------------------ *)
(* Contended workload: determinism, oracle, negative control. *)

let small_cfg =
  {
    W.default_config with
    W.objects = 2;
    accounts = 8;
    threads = 4;
    ops = 1_500;
  }

let result_key (m : Harness.Runner.measurement) (r : W.result) =
  ( ( m.Harness.Runner.ops,
      m.Harness.Runner.reads,
      m.Harness.Runner.writes,
      m.Harness.Runner.cas,
      m.Harness.Runner.counters ),
    ( r.W.res_oracle.W.ok,
      r.W.res_oracle.W.total,
      r.W.res_commits,
      r.W.res_aborts,
      r.W.res_snapshots,
      r.W.res_snap_retries ) )

let test_deterministic () =
  let a =
    let m, r = W.run small_cfg in
    result_key m r
  in
  let b =
    let m, r = W.run small_cfg in
    result_key m r
  in
  Alcotest.(check bool) "identical measurement, counters, oracle" true (a = b)

let test_seed_changes_run () =
  let m_a, _ = W.run small_cfg in
  let m_b, _ = W.run { small_cfg with W.seed = 43 } in
  Alcotest.(check bool) "different seed, different run" true
    (m_a.Harness.Runner.counters <> m_b.Harness.Runner.counters)

let check_oracle_passes cfg =
  let m, r = W.run cfg in
  Alcotest.(check bool) "run completed" false (Harness.Runner.aborted m);
  Alcotest.(check bool) "structures valid" true m.Harness.Runner.valid;
  Alcotest.(check bool) "some transfers committed" true
    (r.W.res_oracle.W.transfers > 0);
  Alcotest.(check bool) "some audits positioned" true
    (r.W.res_oracle.W.audits > 0);
  Alcotest.(check bool) "contention actually aborted something" true
    (r.W.res_aborts > 0 || r.W.res_snap_retries > 0);
  if not r.W.res_oracle.W.ok then
    Alcotest.failf "oracle failed: %s"
      (Format.asprintf "%a" W.pp_oracle r.W.res_oracle)

(* Native per-key striping (OPTIK family). *)
let test_oracle_passes_optik () = check_oracle_passes W.default_config

(* Structure-wide version wrapper (lock-free rep). *)
let test_oracle_passes_wrapper () =
  check_oracle_passes { W.default_config with W.rep = "ll-harris" }

let test_broken_commit_fails () =
  let _, r = W.run { W.default_config with W.broken = true } in
  Alcotest.(check bool) "oracle failed" false r.W.res_oracle.W.ok;
  Alcotest.(check bool) "violations reported" true
    (r.W.res_oracle.W.violations <> [])

(* Read-only transactions never abort: an audit-only run retries
   snapshots at worst, and with no writers even that cannot happen. *)
let test_snapshots_never_abort () =
  let m, r = W.run { small_cfg with W.transfer_pct = 0 } in
  Alcotest.(check int) "no aborts" 0 r.W.res_aborts;
  Alcotest.(check int) "no transfers" 0 r.W.res_commits;
  Alcotest.(check bool) "audits ran" true (r.W.res_snapshots > 0);
  Alcotest.(check int) "no writers, no snapshot retries" 0 r.W.res_snap_retries;
  Alcotest.(check bool) "oracle still passes" true r.W.res_oracle.W.ok;
  let ctr name =
    Option.value ~default:0 (List.assoc_opt name m.Harness.Runner.counters)
  in
  Alcotest.(check int) "txn.aborts counter agrees" 0 (ctr "txn.aborts")

let test_conservation () =
  let _, r = W.run W.default_config in
  Alcotest.(check bool) "conserved" true r.W.res_oracle.W.conserved;
  Alcotest.(check int) "total is objects * accounts * initial"
    r.W.res_oracle.W.expected_total r.W.res_oracle.W.total

(* ------------------------------------------------------------------ *)
(* Chaos trial grammar round-trip. *)

module X = Chaos.Txn_trial

let test_txn_trial_roundtrip () =
  let rng = Harness.Rng.create 99 in
  for _ = 1 to 100 do
    let tr = X.gen rng in
    let s = X.to_string tr in
    if X.of_string s <> tr then
      Alcotest.failf "txn trial round-trip failed: %s" s
  done;
  let broken = { (X.gen rng) with X.x_broken = true } in
  Alcotest.(check bool) "broken flag round-trips" true
    (X.of_string (X.to_string broken) = broken);
  List.iter
    (fun s ->
      match X.of_string s with
      | (_ : X.t) -> Alcotest.failf "expected parse error for %S" s
      | exception Invalid_argument _ -> ())
    [
      "nonsense";
      "txn/ll-optik@u2 b1 a2 t1 o1 X500";
      "txn/ll-optik@u2 b1 a2 t1 o1 X-1";
      "txn/ll-optik@u2 b1 a2 t1 o1 !x";
    ]

let test_txn_trial_runs () =
  let tr = X.of_string "txn/ll-optik@u2 b2 a8 t2 o400 X70 w5" in
  let failures, _ = X.run tr in
  Alcotest.(check (list string)) "no oracle failures" []
    (List.map (fun f -> f.Chaos.f_oracle) failures);
  let _, r = W.run (X.config tr) in
  Alcotest.(check bool) "transfers committed" true (r.W.res_commits > 0)

let test_txn_trial_catches_broken () =
  let tr = X.of_string "txn/ll-optik@xeon b2 a8 t8 o2000 X70 w0 !" in
  let failures, _ = X.run tr in
  Alcotest.(check bool) "serializability failure reported" true
    (List.exists (fun f -> f.Chaos.f_oracle = "serializability") failures)

(* Configurations the workload cannot run are rejected up front. *)
let test_run_rejects_bad_config () =
  let bad what cfg =
    match W.run cfg with
    | _ -> Alcotest.failf "expected Invalid_argument for %s" what
    | exception Invalid_argument _ -> ()
  in
  let c = W.default_config in
  bad "ops 0" { c with W.ops = 0 };
  bad "threads 0" { c with W.threads = 0 };
  bad "objects 0" { c with W.objects = 0 };
  bad "transfer_pct 101" { c with W.transfer_pct = 101 };
  bad "transfer_pct -1" { c with W.transfer_pct = -1 }

(* ------------------------------------------------------------------ *)
(* Report integration: the txn section renders into a valid schema'd
   report carrying the oracle verdict and the abort taxonomy. *)

let test_report_section () =
  let m, r = W.run small_cfg in
  let j =
    Harness.Report.make ~subcommand:"txn" ~seed:(Some small_cfg.W.seed)
      ~params:[]
      ~sections:[ W.report_section small_cfg r ]
      [ ("txn/" ^ small_cfg.W.rep, m) ]
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
    [ "\"oracle\""; "\"commits\""; "\"txn.aborts\""; "\"snapshot_retries\"" ]

(* ------------------------------------------------------------------ *)
(* KV integration: cross-shard transfers end to end. *)

let test_kv_transfers () =
  let cfg =
    {
      Kv.default_config with
      Kv.nshards = 4;
      threads = 6;
      ops = 3_000;
      workload =
        {
          Kv.default_workload with
          Kv.read_pct = 50;
          scan_pct = 10;
          transfer_pct = 25;
          accounts = 8;
        };
    }
  in
  let m, r = Kv.run cfg in
  Alcotest.(check bool) "run completed" false (Harness.Runner.aborted m);
  Alcotest.(check bool) "stores valid" true m.Harness.Runner.valid;
  let ctr name =
    Option.value ~default:0 (List.assoc_opt name m.Harness.Runner.counters)
  in
  Alcotest.(check bool) "transfers executed" true (ctr "kv.transfers" > 0);
  Alcotest.(check bool) "txn commits recorded" true (ctr "txn.commits" > 0);
  (match r.Kv.res_oracle.Kv.conservation with
  | None -> Alcotest.fail "conservation oracle missing"
  | Some (total, expected) ->
      Alcotest.(check int) "account units conserved" expected total);
  if not r.Kv.res_oracle.Kv.ok then
    Alcotest.failf "kv oracle failed: %s"
      (Format.asprintf "%a" Kv.pp_oracle r.Kv.res_oracle)

(* A kv run without transfers must not register transactional machinery:
   no kv.transfers activity, no conservation section. *)
let test_kv_without_transfers_unchanged () =
  let cfg = { Kv.default_config with Kv.threads = 4; ops = 1_000 } in
  let m, r = Kv.run cfg in
  Alcotest.(check bool) "no conservation oracle" true
    (r.Kv.res_oracle.Kv.conservation = None);
  Alcotest.(check bool) "no transfer latency class" true
    (not
       (Array.exists
          (fun c -> c = "transfer")
          m.Harness.Runner.lat_classes))

let () =
  Alcotest.run "txn"
    [
      ( "versioned-ops",
        [
          Alcotest.test_case "fold agrees with size and search" `Quick
            test_fold_agrees_with_size;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "transfer moves units" `Quick
            test_transfer_moves_units;
          Alcotest.test_case "read-your-writes" `Quick test_read_your_writes;
          Alcotest.test_case "lock conflict aborts and releases" `Quick
            test_lock_conflict_aborts;
          Alcotest.test_case "read validation aborts" `Quick
            test_read_validation_aborts;
          Alcotest.test_case "snapshot is consistent" `Quick
            test_snapshot_is_consistent;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "seeded run deterministic" `Quick
            test_deterministic;
          Alcotest.test_case "seed changes run" `Quick test_seed_changes_run;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "passes on optik striping" `Quick
            test_oracle_passes_optik;
          Alcotest.test_case "passes on wrapper reps" `Quick
            test_oracle_passes_wrapper;
          Alcotest.test_case "broken commit caught" `Quick
            test_broken_commit_fails;
          Alcotest.test_case "snapshots never abort" `Quick
            test_snapshots_never_abort;
          Alcotest.test_case "units conserved" `Quick test_conservation;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "trial grammar round-trip" `Quick
            test_txn_trial_roundtrip;
          Alcotest.test_case "trial runs clean" `Quick test_txn_trial_runs;
          Alcotest.test_case "trial catches broken commit" `Quick
            test_txn_trial_catches_broken;
          Alcotest.test_case "run rejects bad configs" `Quick
            test_run_rejects_bad_config;
        ] );
      ( "report",
        [ Alcotest.test_case "section and taxonomy" `Quick test_report_section ]
      );
      ( "kv",
        [
          Alcotest.test_case "cross-shard transfers conserve" `Quick
            test_kv_transfers;
          Alcotest.test_case "transfer-free runs unchanged" `Quick
            test_kv_without_transfers_unchanged;
        ] );
    ]
