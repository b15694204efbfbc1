(* Tests for the run-report subsystem (lib/obs/report.ml and
   lib/harness/report.ml): JSON round-tripping, schema validation,
   wasted-work sums by counter kind, the probe registry's checks, diff
   determinism, and the probe-coverage audit across the structure
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

(* A run report sums counters by the kind they were registered with,
   never by name: a test-only [Tally] spelled like a restart counter
   counts as nothing, and a [Restart] spelled otherwise counts. *)
let restarts_of counters =
  let entry =
    Harness.Report.run_entry (Tutil.measurement ~counters ~threads:1 ~mops:1. ())
  in
  Option.bind (J.member "wasted" entry) (fun w ->
      Option.bind (J.member "restarts" w) J.to_int)

let test_tally_named_restarts () =
  ignore (Sim.Sim_rt.Probe.counter "x.restarts");
  Alcotest.(check (option int)) "x.restarts (Tally) is no restart" (Some 0)
    (restarts_of [ ("x.restarts", 7) ])

let test_restart_named_otherwise () =
  ignore (Sim.Sim_rt.Probe.counter ~kind:Restart "x.redo");
  Alcotest.(check (option int)) "x.redo (Restart) is a restart" (Some 7)
    (restarts_of [ ("x.redo", 7) ])

let test_one_kind_per_name () =
  ignore (Sim.Sim_rt.Probe.counter ~kind:Vfail "x.vf");
  ignore (Sim.Sim_rt.Probe.counter ~kind:Vfail "x.vf");
  Alcotest.check_raises "x.vf again as a Tally"
    (Invalid_argument "Probe.counter: \"x.vf\" is registered with another kind")
    (fun () -> ignore (Sim.Sim_rt.Probe.counter "x.vf"))

let test_malformed_names () =
  List.iter
    (fun bad ->
      Alcotest.check_raises ("rejects " ^ bad)
        (Invalid_argument
           (Printf.sprintf "Probe.counter: %S is not of the form <owner>.<metric>" bad))
        (fun () -> ignore (Sim.Sim_rt.Probe.counter bad));
      Alcotest.(check bool) (bad ^ " stays unregistered") false
        (List.mem_assoc bad (Sim.Sim_rt.Probe.all ())))
    [ "nodot"; ".leading"; "trailing." ]

(* fig11's restart-rate note counts the restart class at each series'
   last point; it runs outside the pin ledger. *)
let test_restart_note () =
  ignore (Sim.Sim_rt.Probe.counter "x.restarts");
  let point threads counters =
    (threads, Tutil.measurement ~counters ~threads ~mops:1. ())
  in
  let series label points = { Figures.Render.label; points } in
  Alcotest.(check (list string)) "restarts/op at the last point"
    [ "restarts/op:  herlihy@20=0.40  fraser@4=0.00" ]
    (Figures.Experiments.restart_note
       [
         series "herlihy"
           [
             point 1 [ ("sl-herlihy.restarts", 900) ];
             point 20
               [
                 ("sl-herlihy.restarts", 300);
                 ("sl-herlihy.found-marked-retry", 100);
                 ("sl-herlihy.vfail-succ", 50);
                 ("sl-herlihy.optik-fast-validations", 60);
               ];
           ];
         series "fraser" [ point 4 [ ("x.restarts", 500) ] ];
         series "empty" [];
       ])

let test_wasted_section () =
  let counters : (string * Rt.Rt_intf.counter_kind * int) list =
    [
      ("ll-optik.restarts", Restart, 6);
      ("ll-optik.cache-hits", Tally, 99);
      ("ht-java-optik.second-traversals", Restart, 4);
      ("sl-herlihy.vfail-succ", Vfail, 3);
      ("sl-herlihy.vfail-next", Vfail, 2);
      ("optik.trylock-fail", Lock_fail, 7);
      ("nodot", Tally, 123);
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

let test_diff_by_id () =
  match J.diff report_a report_b with
  | Error e -> Alcotest.failf "diff failed: %s" e
  | Ok text ->
      Alcotest.(check bool) "paired by id" true
        (J.contains ~sub:"pairing: by run id (2 run pairs)" text);
      (* mops halved on r0: the top regression, -50% *)
      Alcotest.(check bool) "r0 mops regression ranked first" true
        (J.contains ~sub:"1. r0" text && J.contains ~sub:"-50.0%" text);
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
        (J.contains ~sub:"pairing: positional" text);
      Alcotest.(check bool) "pair labels show both ids" true
        (J.contains ~sub:"== a:r0 vs b:other0 ==" text);
      Alcotest.(check bool) "identical metrics, no regressions" true
        (J.contains ~sub:"top regressions (b worse than a): none" text)

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
        (J.contains ~sub:"disjoint metric sets" e)

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
    (J.contains ~sub:"host_s" (J.to_string j))

(* A run entry's hotlines carry each profiled site's own figures:
   [lines] counts the distinct cache lines of the site, which the
   profile already keeps one row per site for. *)
let test_hotline_lines () =
  let m =
    Harness.Runner.run_set_sim ~topology:Tutil.uniform4 ~nthreads:8 ~ops:4_000
      ~seed:7 ~record_obs:true Harness.Registry.Sim_backend.ll_optik
      (Harness.Runner.uniform_workload ~init_size:64 ~update_pct:40 ())
  in
  let hls =
    match m.obs with
    | Some s -> s.Obs.Profile.s_hotlines
    | None -> Alcotest.fail "the run recorded no profile"
  in
  let sites =
    match J.member "hotlines" (Harness.Report.run_entry m) with
    | Some (J.Obj kvs) -> kvs
    | _ -> Alcotest.fail "the run entry has no hotlines section"
  in
  Alcotest.(check int) "one report site per profiled site" (List.length hls)
    (List.length sites);
  List.iter
    (fun (h : Obs.Profile.hotline) ->
      Alcotest.(check (option int))
        (h.hl_site ^ " lines") (Some h.hl_lines)
        (Option.bind (List.assoc_opt h.hl_site sites) (fun j ->
             Option.bind (J.member "lines" j) J.to_int)))
    hls;
  Alcotest.(check bool) "some site spans several lines" true
    (List.exists (fun (h : Obs.Profile.hotline) -> h.hl_lines > 1) hls)

(* ---------------- probe-coverage audit ---------------- *)

(* A rep with [probe_prefix = Some p] promises a [Restart] or [Vfail]
   counter under [p], whatever its metric is called. *)
let check_prefix what = function
  | None -> ()
  | Some p ->
      Alcotest.(check bool)
        (Printf.sprintf "%s (prefix %s) registers a Restart or Vfail counter" what p)
        true
        (List.exists
           (fun (name, (kind : Rt.Rt_intf.counter_kind)) ->
             String.starts_with ~prefix:(p ^ ".") name
             && (kind = Restart || kind = Vfail))
           (Sim.Sim_rt.Probe.all ()))

let test_registry_coverage () =
  List.iter
    (fun (e : Harness.Registry.entry) ->
      match e.structure with
      | Set (module S) -> check_prefix S.name S.probe_prefix
      | Pool (module P) -> check_prefix P.name P.probe_prefix)
    Harness.Registry.Sim_backend.entries

(* At least one OPTIK rep per family must be instrumented: the paper's
   wasted-work comparison needs a restart counter on both sides. *)
let test_optik_reps_instrumented () =
  let module SB = Harness.Registry.Sim_backend in
  List.iter
    (fun family ->
      Alcotest.(check bool) (family ^ " has an instrumented rep") true
        (List.exists
           (fun e ->
             let (module S) = Harness.Registry.set_ops e in
             S.probe_prefix <> None)
           (SB.lineup family)))
    [ "map"; "list"; "hashtable"; "skiplist"; "bst" ]

(* Transaction-layer counters must live under the [txn.] namespace: an
   unprefixed one would be misattributed to a structure in the
   per-owner wasted-work breakdown. The registry itself rejects a name
   that is not of the [<owner>.<metric>] form. *)
let test_counter_naming_convention () =
  List.iter
    (fun (name, _kind) ->
      if
        J.contains ~sub:"txn" name
        && not (String.starts_with ~prefix:"txn." name)
      then
        Alcotest.failf "counter %S mentions txn but is not under the txn. prefix"
          name)
    (Sim.Sim_rt.Probe.all ())

let check_kinds what (expected : (string * Rt.Rt_intf.counter_kind) list) =
  let all = Sim.Sim_rt.Probe.all () in
  List.iter
    (fun (n, kind) ->
      Alcotest.(check bool) (what ^ ": " ^ n) true (List.assoc_opt n all = Some kind))
    expected

(* The transaction manager's counters: registered the moment a manager
   exists, all six under [txn.], with the kinds that put aborts and
   snapshot retries in the restart class and explain them by the two
   validation failures. *)
module TxnSim = Txn.Make (Sim.Sim_rt)

let test_txn_counters_audited () =
  ignore (TxnSim.create () : TxnSim.t);
  check_kinds "txn"
    [
      ("txn.commits", Tally);
      ("txn.snapshots", Tally);
      ("txn.aborts", Abort);
      ("txn.vfail-txn-lock", Vfail);
      ("txn.vfail-txn-read", Vfail);
      ("txn.snapshot-retries", Snapshot_retry);
    ];
  test_counter_naming_convention ()

(* The kv service's kinds: the service aggregates carry the request
   kinds the timeline and attribution count; their per-shard twins are
   bumped right after them and stay [Tally]s, except the per-shard
   retries and abandoned copies, which are restart-class waste. *)
let test_kv_counter_kinds () =
  ignore (Kv.create Kv.default_config : Kv.t);
  check_kinds "kv"
    [
      ("kv.retries", Retry);
      ("kv.timeouts", Timeout);
      ("kv.sheds", Shed);
      ("kv.failovers", Failover);
      ("kv.resync-aborts", Tally);
      ("kv-s0.restarts", Restart);
      ("kv-s0.resync-aborted", Restart);
      ("kv-s0.timeouts", Tally);
      ("kv-s0.sheds", Tally);
      ("kv-s0.failovers", Tally);
    ]

(* ---------------- hostperf baseline ---------------- *)

(* The committed engine-throughput baseline reads back through the report
   parser: every tracked row, each with positive rates. *)
let test_hostperf_baseline () =
  let rows =
    Host_bench.parse_baseline
      (In_channel.with_open_text
         (Filename.concat (Tutil.root ()) "BENCH_sim.json")
         In_channel.input_all)
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
          Alcotest.test_case "wasted section" `Quick test_wasted_section;
          Alcotest.test_case "a Tally named x.restarts is no restart" `Quick
            test_tally_named_restarts;
          Alcotest.test_case "a Restart named x.redo is a restart" `Quick
            test_restart_named_otherwise;
          Alcotest.test_case "one kind per name" `Quick test_one_kind_per_name;
          Alcotest.test_case "malformed names rejected" `Quick
            test_malformed_names;
          Alcotest.test_case "fig11 restart note" `Quick test_restart_note;
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
          Alcotest.test_case "hotline lines are the profile's" `Quick
            test_hotline_lines;
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
          Alcotest.test_case "kv counter kinds" `Quick test_kv_counter_kinds;
        ] );
    ]
