(* Tests for the run-report subsystem (lib/obs/report.ml and
   lib/harness/report.ml): JSON round-tripping, schema validation,
   wasted-work classification, diff determinism, and the probe-coverage
   audit that pins the <rep>.<metric> naming convention across the
   registry. *)

module J = Obs.Report

(* ---------------- JSON round-trip ---------------- *)

let sample =
  J.Obj
    [
      ("null", J.Null);
      ("t", J.Bool true);
      ("f", J.Bool false);
      ("i", J.Int (-42));
      ("x", J.Float 1.5);
      ("tiny", J.Float 2.5e-12);
      ("s", J.Str "quote\" slash\\ newline\n tab\t ctrl\x01 done");
      ("empty_arr", J.Arr []);
      ("empty_obj", J.Obj []);
      ("arr", J.Arr [ J.Int 1; J.Str "two"; J.Arr [ J.Bool false ] ]);
      ("nested", J.Obj [ ("k", J.Obj [ ("kk", J.Int 7) ]) ]);
    ]

let test_roundtrip () =
  match J.parse (J.to_string sample) with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok parsed ->
      Alcotest.(check bool) "round-trips structurally" true (parsed = sample)

let test_print_deterministic () =
  Alcotest.(check string) "same value, same bytes" (J.to_string sample)
    (J.to_string sample)

let test_nonfinite_floats_are_null () =
  let s = J.to_string (J.Obj [ ("nan", J.Float Float.nan) ]) in
  (match J.parse s with
  | Ok (J.Obj [ ("nan", J.Null) ]) -> ()
  | Ok _ -> Alcotest.fail "nan did not serialize to null"
  | Error e -> Alcotest.failf "parse failed: %s" e);
  match J.parse (J.to_string (J.Float Float.infinity)) with
  | Ok J.Null -> ()
  | _ -> Alcotest.fail "infinity did not serialize to null"

let test_parse_rejects_garbage () =
  List.iter
    (fun s ->
      match J.parse s with
      | Ok _ -> Alcotest.failf "parsed garbage %S" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "{} trailing"; "\"unterminated" ]

(* ---------------- schema validation ---------------- *)

let mk_report ?(runs = []) () =
  J.make ~subcommand:"test" ~seed:(Some 1) ~params:[] ~runs ~sections:[]

let mk_run ?(metrics = [ ("ops", J.Int 10) ]) id =
  J.Obj [ ("id", J.Str id); ("metrics", J.Obj metrics) ]

let test_validate_ok () =
  match J.validate (mk_report ~runs:[ mk_run "a" ] ()) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "valid report rejected: %s" e

let expect_invalid what j =
  match J.validate j with
  | Ok () -> Alcotest.failf "%s accepted" what
  | Error _ -> ()

let test_validate_rejects () =
  expect_invalid "wrong schema"
    (J.Obj [ ("schema", J.Str "other"); ("version", J.Int 1) ]);
  expect_invalid "newer version"
    (J.Obj
       [
         ("schema", J.Str J.schema_name);
         ("version", J.Int (J.schema_version + 1));
         ("subcommand", J.Str "x");
         ("params", J.Obj []);
         ("runs", J.Arr []);
       ]);
  expect_invalid "run without id"
    (mk_report ~runs:[ J.Obj [ ("metrics", J.Obj []) ] ] ());
  expect_invalid "non-numeric metric"
    (mk_report
       ~runs:[ mk_run ~metrics:[ ("ops", J.Str "ten") ] "a" ]
       ());
  expect_invalid "wasted not an object"
    (mk_report
       ~runs:
         [
           J.Obj
             [
               ("id", J.Str "a");
               ("metrics", J.Obj []);
               ("wasted", J.Int 3);
             ];
         ]
       ());
  expect_invalid "not an object" (J.Arr [])

(* ---------------- wasted-work classification ---------------- *)

let test_split_counter () =
  Alcotest.(check (option (pair string string)))
    "splits on first dot"
    (Some ("ll-optik", "cache-hits"))
    (J.split_counter "ll-optik.cache-hits");
  Alcotest.(check (option (pair string string)))
    "first dot wins"
    (Some ("a", "b.c"))
    (J.split_counter "a.b.c");
  List.iter
    (fun bad ->
      Alcotest.(check (option (pair string string)))
        ("rejects " ^ bad) None (J.split_counter bad))
    [ "nodot"; ".leading"; "trailing." ]

let test_metric_classes () =
  List.iter
    (fun m -> Alcotest.(check bool) (m ^ " is restart-class") true (J.restart_metric m))
    [ "restarts"; "second-traversals"; "found-marked-retry" ];
  Alcotest.(check bool) "cache-hits is not restart-class" false
    (J.restart_metric "cache-hits");
  Alcotest.(check bool) "vfail-lock is vfail" true (J.vfail_metric "vfail-lock");
  Alcotest.(check bool) "validated is not vfail" false (J.vfail_metric "validated");
  Alcotest.(check bool) "trylock-fail is lock-fail" true
    (J.lockfail_metric "trylock-fail")

let test_wasted_section () =
  let counters =
    [
      ("ll-optik.restarts", 6);
      ("ll-optik.cache-hits", 99);
      ("ht-java-optik.second-traversals", 4);
      ("sl-herlihy.vfail-succ", 3);
      ("sl-herlihy.vfail-next", 2);
      ("optik.trylock-fail", 7);
      ("nodot", 123);
    ]
  in
  let w = J.wasted ~ops:100 ~cas_failed:5 ~counters in
  let num path =
    match Option.bind (J.member path w) J.to_number with
    | Some v -> v
    | None -> Alcotest.failf "missing %s" path
  in
  Alcotest.(check (float 1e-9)) "restarts" 10. (num "restarts");
  Alcotest.(check (float 1e-9)) "restarts_per_op" 0.1 (num "restarts_per_op");
  Alcotest.(check (float 1e-9)) "validation_fails" 5. (num "validation_fails");
  Alcotest.(check (float 1e-9)) "lock_acquire_fails" 7. (num "lock_acquire_fails");
  Alcotest.(check (float 1e-9)) "cas_failed" 5. (num "cas_failed");
  (* taxonomy keeps the full counter names, sorted *)
  (match J.member "validation_fail_taxonomy" w with
  | Some (J.Obj kvs) ->
      Alcotest.(check (list string)) "taxonomy keys"
        [ "sl-herlihy.vfail-next"; "sl-herlihy.vfail-succ" ]
        (List.map fst kvs)
  | _ -> Alcotest.fail "taxonomy missing");
  (* per-structure breakdown: zero rows dropped, prefixes sorted *)
  match J.member "by_structure" w with
  | Some (J.Obj kvs) ->
      Alcotest.(check (list string)) "structures"
        [ "ht-java-optik"; "ll-optik"; "optik"; "sl-herlihy" ]
        (List.map fst kvs);
      let r =
        Option.bind (List.assoc_opt "ht-java-optik" kvs) (J.member "restarts")
      in
      Alcotest.(check bool) "second-traversals count as restarts" true
        (r = Some (J.Int 4))
  | _ -> Alcotest.fail "by_structure missing"

(* ---------------- flatten / direction ---------------- *)

let test_flatten () =
  let r =
    J.Obj
      [
        ("id", J.Str "x");
        ("metrics", J.Obj [ ("mops", J.Float 2.5); ("ops", J.Int 10) ]);
        ("skipme", J.Arr [ J.Int 9 ]);
      ]
  in
  Alcotest.(check (list (pair string (float 1e-9))))
    "numeric leaves, sorted, arrays skipped"
    [ ("metrics.mops", 2.5); ("metrics.ops", 10.) ]
    (J.flatten r)

let test_direction () =
  Alcotest.(check bool) "mops higher-better" true
    (J.worsening "metrics.mops" 2. 1. > 0.);
  Alcotest.(check bool) "restarts lower-better" true
    (J.worsening "wasted.restarts" 1. 2. > 0.);
  Alcotest.(check bool) "p95 lower-better" true
    (J.worsening "latency.srch-suc.p95" 100. 200. > 0.);
  Alcotest.(check (float 1e-9)) "neutral path" 0.
    (J.worsening "metrics.reads" 1. 100.)

(* ---------------- diff ---------------- *)

let report_a =
  mk_report
    ~runs:
      [
        mk_run ~metrics:[ ("mops", J.Float 4.0); ("ops", J.Int 100) ] "r0";
        mk_run ~metrics:[ ("mops", J.Float 8.0); ("ops", J.Int 100) ] "r1";
      ]
    ()

let report_b =
  mk_report
    ~runs:
      [
        mk_run ~metrics:[ ("mops", J.Float 2.0); ("ops", J.Int 100) ] "r0";
        mk_run ~metrics:[ ("mops", J.Float 9.0); ("ops", J.Int 100) ] "r1";
      ]
    ()

let contains ~sub s =
  let ls = String.length sub and l = String.length s in
  let rec at i = i + ls <= l && (String.sub s i ls = sub || at (i + 1)) in
  at 0

let test_diff_by_id () =
  match J.diff report_a report_b with
  | Error e -> Alcotest.failf "diff failed: %s" e
  | Ok text ->
      Alcotest.(check bool) "paired by id" true
        (contains ~sub:"pairing: by run id (2 run pairs)" text);
      (* mops halved on r0: the top regression, -50% *)
      Alcotest.(check bool) "r0 mops regression ranked first" true
        (contains ~sub:"1. r0" text && contains ~sub:"-50.0%" text);
      Alcotest.(check bool) "deterministic" true (J.diff report_a report_b = Ok text)

let test_diff_positional () =
  let b' =
    mk_report
      ~runs:
        [
          mk_run ~metrics:[ ("mops", J.Float 4.0); ("ops", J.Int 100) ] "other0";
          mk_run ~metrics:[ ("mops", J.Float 8.0); ("ops", J.Int 100) ] "other1";
        ]
      ()
  in
  match J.diff report_a b' with
  | Error e -> Alcotest.failf "diff failed: %s" e
  | Ok text ->
      Alcotest.(check bool) "paired positionally" true
        (contains ~sub:"pairing: positional" text);
      Alcotest.(check bool) "pair labels show both ids" true
        (contains ~sub:"== a:r0 vs b:other0 ==" text);
      Alcotest.(check bool) "identical metrics, no regressions" true
        (contains ~sub:"top regressions (b worse than a): none" text)

let test_diff_rejects_invalid () =
  match J.diff (J.Obj [ ("schema", J.Str "bogus") ]) report_b with
  | Ok _ -> Alcotest.fail "diff accepted an invalid report"
  | Error _ -> ()

(* Two structurally valid reports whose runs share no numeric paths —
   e.g. different subcommands' metric vocabularies — must be an Error
   (the CLI maps it to exit 2), not a silent empty table claiming
   "no regressions". *)
let test_diff_disjoint_metrics_errors () =
  let b' =
    mk_report
      ~runs:
        [
          mk_run ~metrics:[ ("retries", J.Int 3) ] "r0";
          mk_run ~metrics:[ ("sheds", J.Int 9) ] "r1";
        ]
      ()
  in
  match J.diff report_a b' with
  | Ok text -> Alcotest.failf "diff accepted disjoint metric sets:\n%s" text
  | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "error names the condition (%s)" e)
        true
        (contains ~sub:"disjoint metric sets" e)

(* ---------------- harness report ---------------- *)

let test_harness_report_roundtrip () =
  let (module S : Harness.Registry.SET_OPS) =
    Harness.Registry.Sim_backend.ll_optik
  in
  let w = Harness.Runner.uniform_workload ~init_size:64 ~update_pct:40 () in
  let measure () =
    Harness.Runner.run_set_sim ~topology:Tutil.uniform4 ~nthreads:4 ~ops:4_000
      ~seed:7 ~record_obs:true
      (module S)
      w
  in
  let j = Harness.Report.make ~subcommand:"test" ~seed:(Some 7) ~params:[]
      [ ("list/optik", measure ()) ]
  in
  (match J.validate j with
  | Ok () -> ()
  | Error e -> Alcotest.failf "harness report invalid: %s" e);
  (* byte-deterministic for a fixed seed, and parseable *)
  let j2 = Harness.Report.make ~subcommand:"test" ~seed:(Some 7) ~params:[]
      [ ("list/optik", measure ()) ]
  in
  Alcotest.(check string) "same seed, same bytes" (J.to_string j)
    (J.to_string j2);
  (* %.12g floats are not exact round-trips, so pin the printer fixpoint:
     reprinting the reparsed value reproduces the bytes. *)
  (match J.parse (J.to_string j) with
  | Ok reparsed ->
      Alcotest.(check string) "print/parse/print fixpoint" (J.to_string j)
        (J.to_string reparsed)
  | Error e -> Alcotest.failf "reparse failed: %s" e);
  (* host wall-clock must stay out of the report *)
  Alcotest.(check bool) "no host_s anywhere" false
    (contains ~sub:"host_s" (J.to_string j))

(* ---------------- probe-coverage audit ---------------- *)

(* Reps whose restart-equivalent wasted-work counter is not named
   [<prefix>.restarts]; documented in DESIGN.md ("Wasted-work metrics"). *)
let equivalents =
  [ ("ht-java-optik", "second-traversals"); ("q-optik0", "vfail-lock") ]

let check_prefix what = function
  | None -> ()
  | Some p ->
      let metric =
        match List.assoc_opt p equivalents with
        | Some m -> m
        | None -> "restarts"
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s (prefix %s) registers %s.%s" what p p metric)
        true
        (Sim.Sim_rt.Probe.registered (p ^ "." ^ metric))

(* Instantiating the registry has already registered every module-level
   counter; pq-optik is not in the registry, so instantiate it here. *)
module Pq = Dstruct.Pq_optik.Make (Sim.Sim_rt)

let test_registry_coverage () =
  let module SB = Harness.Registry.Sim_backend in
  List.iter
    (fun (module S : Harness.Registry.SET_OPS) ->
      check_prefix S.name S.probe_prefix)
    (SB.maps @ SB.lists @ SB.hashtables @ SB.skiplists @ SB.bsts);
  List.iter
    (fun (module Q : Harness.Registry.QUEUE_OPS) ->
      check_prefix Q.name Q.probe_prefix)
    SB.queues;
  List.iter
    (fun (module S : Harness.Registry.STACK_OPS) ->
      check_prefix S.name S.probe_prefix)
    SB.stacks;
  check_prefix Pq.name (Some "pq-optik")

(* At least one OPTIK rep per family must be instrumented: the paper's
   wasted-work comparison needs a restart counter on both sides. *)
let test_optik_reps_instrumented () =
  let module SB = Harness.Registry.Sim_backend in
  let some_prefixed family l =
    Alcotest.(check bool) (family ^ " has an instrumented rep") true
      (List.exists
         (fun (module S : Harness.Registry.SET_OPS) -> S.probe_prefix <> None)
         l)
  in
  some_prefixed "maps" SB.maps;
  some_prefixed "lists" SB.lists;
  some_prefixed "hashtables" SB.hashtables;
  some_prefixed "skiplists" SB.skiplists;
  some_prefixed "bsts" SB.bsts

(* Iterates [Probe.all] — the same registry rows the [optik_bench probes]
   subcommand prints — so a probe that escapes the naming convention
   fails this audit and that listing identically. Covers histograms too:
   their names feed the same report paths. *)
let test_counter_naming_convention () =
  List.iter
    (fun (name, _kind) ->
      match J.split_counter name with
      | Some (prefix, _) ->
          (* Transaction-layer counters must live under the [txn.]
             namespace: an unprefixed one would be misattributed to a
             structure in the per-prefix wasted-work breakdown. *)
          if contains ~sub:"txn" name && prefix <> "txn" then
            Alcotest.failf
              "counter %S mentions txn but is not under the txn. prefix" name
      | None ->
          Alcotest.failf "counter %S violates the <rep>.<metric> convention"
            name)
    (Sim.Sim_rt.Probe.all ())

(* The transaction manager's counters: registered the moment a manager
   exists, all six under [txn.], and classified by the wasted-work
   taxonomy so txn aborts show up in reports and A/B diffs. *)
module TxnSim = Txn.Make (Sim.Sim_rt)

let test_txn_counters_audited () =
  ignore (TxnSim.create () : TxnSim.t);
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " registered") true
        (Sim.Sim_rt.Probe.registered n))
    [
      "txn.commits";
      "txn.snapshots";
      "txn.aborts";
      "txn.vfail-txn-lock";
      "txn.vfail-txn-read";
      "txn.snapshot-retries";
    ];
  test_counter_naming_convention ();
  (* taxonomy: aborts and snapshot retries are thrown-away attempts,
     the vfail split explains them *)
  Alcotest.(check bool) "aborts are restart-class" true
    (J.restart_metric "aborts");
  Alcotest.(check bool) "snapshot retries are restart-class" true
    (J.restart_metric "snapshot-retries");
  Alcotest.(check bool) "vfail-txn-lock is vfail-class" true
    (J.vfail_metric "vfail-txn-lock");
  Alcotest.(check bool) "vfail-txn-read is vfail-class" true
    (J.vfail_metric "vfail-txn-read")

(* ---------------- hostperf baseline ---------------- *)

(* The committed engine-throughput baseline reads back through the report
   parser: every tracked row, each with positive rates. *)
let test_hostperf_baseline () =
  let rows =
    Host_bench.parse_baseline
      (In_channel.with_open_text "../BENCH_sim.json" In_channel.input_all)
  in
  Alcotest.(check int) "rows" 8 (List.length rows);
  List.iter
    (fun (name, ops, acc) ->
      if not (ops > 0. && acc >= 0.) then
        Alcotest.failf "%s: ops/hs %g, accesses/hs %g" name ops acc)
    rows;
  (* a round trip through the writer *)
  let r =
    {
      Host_bench.r_name = "x";
      r_threads = 1;
      r_ops = 10;
      r_accesses = 20;
      r_events = 3;
      r_host_s = 0.5;
    }
  in
  Alcotest.(check (list (triple string (float 1e-9) (float 1e-9))))
    "written rows parse" [ ("x", 20., 40.) ]
    (Host_bench.parse_baseline (Host_bench.to_json [ r ]));
  Alcotest.(check int) "garbage has no rows" 0
    (List.length (Host_bench.parse_baseline "{ not json"))

let () =
  Alcotest.run "report"
    [
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_roundtrip;
          Alcotest.test_case "deterministic printing" `Quick
            test_print_deterministic;
          Alcotest.test_case "non-finite floats" `Quick
            test_nonfinite_floats_are_null;
          Alcotest.test_case "rejects garbage" `Quick test_parse_rejects_garbage;
        ] );
      ( "schema",
        [
          Alcotest.test_case "validate ok" `Quick test_validate_ok;
          Alcotest.test_case "validate rejects" `Quick test_validate_rejects;
        ] );
      ( "wasted",
        [
          Alcotest.test_case "split_counter" `Quick test_split_counter;
          Alcotest.test_case "metric classes" `Quick test_metric_classes;
          Alcotest.test_case "wasted section" `Quick test_wasted_section;
        ] );
      ( "diff",
        [
          Alcotest.test_case "flatten" `Quick test_flatten;
          Alcotest.test_case "direction" `Quick test_direction;
          Alcotest.test_case "by id" `Quick test_diff_by_id;
          Alcotest.test_case "positional" `Quick test_diff_positional;
          Alcotest.test_case "rejects invalid" `Quick test_diff_rejects_invalid;
          Alcotest.test_case "disjoint metrics error" `Quick
            test_diff_disjoint_metrics_errors;
        ] );
      ( "harness",
        [
          Alcotest.test_case "measurement report round-trip" `Quick
            test_harness_report_roundtrip;
          Alcotest.test_case "hostperf baseline parses" `Quick
            test_hostperf_baseline;
        ] );
      ( "coverage",
        [
          Alcotest.test_case "registry probe coverage" `Quick
            test_registry_coverage;
          Alcotest.test_case "optik reps instrumented" `Quick
            test_optik_reps_instrumented;
          Alcotest.test_case "naming convention" `Quick
            test_counter_naming_convention;
          Alcotest.test_case "txn counters" `Quick test_txn_counters_audited;
        ] );
    ]
