(* Tests of the bench/perf benchmark: the lens is exact, the correctness
   gates reject broken runs, malformed input exits 2, and every workload's
   smoke run prints exactly the metrics BENCHMARK.json declares. *)

open Perf_suite

let perf = "./perf.exe"
let benchmark_json = "../../BENCHMARK.json"

(* ---------------- the lens ---------------- *)

let get name layers =
  match List.find_opt (fun (n, _, _) -> String.equal n name) layers with
  | Some (_, v, _) -> v
  | None -> Alcotest.failf "layer metric %s missing" name

let test_lens_exact (w : Suite.workload) () =
  let plain = Suite.sim_run ~traced:false ~scale:20 w ~seed:7 in
  let traced = Suite.sim_run ~traced:true ~scale:20 w ~seed:7 in
  Alcotest.(check string)
    "traced run reproduces cycles, ops, accesses and events"
    (Suite.pp_fingerprint plain) (Suite.pp_fingerprint traced);
  (match traced.verdict with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  match w.kind with
  | Suite.Set _ ->
      let l = traced.layers in
      let parts =
        get "dstruct.traverse_cycles" l +. get "dstruct.restart_cycles" l
        +. get "optik.lock_wait_cycles" l +. get "optik.critical_cycles" l
      in
      Alcotest.(check (float 1e-6))
        "traverse + restart + lock_wait + critical = op cycles"
        (get "dstruct.op_cycles" l) parts;
      Alcotest.(check bool) "ops were timed" true (get "dstruct.op_cycles" l > 0.)
  | Suite.Kv | Suite.Txn ->
      Alcotest.(check bool) "phases attributed" true
        (List.exists (fun (_, v, _) -> v > 0.) traced.layers)

(* Two threads contend for one OPTIK lock over the lens: whoever loses
   the race waits, and both spend cycles inside the critical section. *)
let test_lens_one_lock () =
  let module L = Optik.Versioned (Lens.Rt) in
  let lock = L.create () in
  let splits = Array.make 2 (Lens.zero ()) in
  let cycles = Array.make 2 0 in
  Lens.arm ~nthreads:2;
  let _ =
    Fun.protect ~finally:Lens.disarm (fun () ->
        Sim.Sched.run ~topology:Sim.Topology.xeon ~nthreads:2 (fun tid ->
            let t0 = Sim.Sched.now () in
            Lens.op_begin ();
            L.lock lock;
            Sim.Sched.work 2_000;
            L.unlock lock;
            splits.(tid) <- Lens.op_end ();
            cycles.(tid) <- Sim.Sched.now () - t0))
  in
  let sum f = f splits.(0) + f splits.(1) in
  Alcotest.(check bool) "lock_wait > 0" true (sum (fun s -> s.Lens.lock_wait) > 0);
  Alcotest.(check bool) "critical > 0" true (sum (fun s -> s.Lens.critical) > 0);
  Alcotest.(check int) "two acquisitions" 2 (sum (fun s -> s.Lens.acquires));
  Array.iteri
    (fun tid (s : Lens.split) ->
      Alcotest.(check int)
        (Printf.sprintf "thread %d split sums to its cycles" tid)
        cycles.(tid)
        (s.traverse + s.lock_wait + s.critical + s.restart))
    splits

(* Set-run percentiles stay within one cycle above Harness.Pstats's, so
   the latency metrics mean the same on every workload. *)
let test_percentile () =
  let rng = Harness.Rng.create 3 in
  List.iter
    (fun n ->
      let xs = Array.init n (fun _ -> 100 + Harness.Rng.below rng 7) in
      let p = Harness.Pstats.create () in
      Array.iter (Harness.Pstats.record p) xs;
      let s = Harness.Pstats.summarize [ p ] in
      Array.sort Int.compare xs;
      List.iter
        (fun (q, v) ->
          let x = Suite.percentile xs q in
          if not (float_of_int v <= x && x <= float_of_int (v + 1)) then
            Alcotest.failf "n=%d q=%g: %g is not within [%d, %d]" n q x v (v + 1))
        [ (0.5, s.p50); (0.99, s.p99) ])
    [ 1; 2; 3; 99; 100; 1_000; 16_000 ]

(* ---------------- running perf.exe ---------------- *)

let read_file path = In_channel.with_open_text path In_channel.input_all

(* Run perf.exe with [args]; returns (exit code, stdout, stderr). *)
let run_perf args =
  let out = "test_perf.out" and err = "test_perf.err" in
  let cmd =
    String.concat " " (List.map Filename.quote (perf :: args))
    ^ Printf.sprintf " > %s 2> %s" out err
  in
  let code = Sys.command cmd in
  (code, read_file out, read_file err)

let test_skewed_lens_refused () =
  let code, out, err = run_perf [ "--workload"; "list-read"; "--smoke"; "--trace"; "1"; "--skew-lens" ] in
  Alcotest.(check int) "exit 1" 1 code;
  Alcotest.(check string) "no metrics printed" "" out;
  Alcotest.(check bool) "names the failed gate" true
    (String.length err > 0)

let test_malformed args () =
  let code, out, err = run_perf args in
  Alcotest.(check int) "exit 2" 2 code;
  Alcotest.(check string) "no metrics printed" "" out;
  Alcotest.(check bool) "a message on stderr" true (String.length err > 0)

(* ---------------- correctness gates ---------------- *)

let rejected name = function
  | Ok () -> Alcotest.failf "%s: the gate accepted a broken run" name
  | Error _ -> ()

let test_kv_gate () =
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
          (Sim.Fault.plan ~seed:7
             [ Sim.Fault.shard_crash ~hits:40 ~down_for:0 1 Rt.Rt_intf.Op_boundary ]);
    }
  in
  rejected "kv broken retry policy" (Suite.kv_verdict (Kv.run cfg));
  Alcotest.(check bool) "the default service passes" true
    (Suite.kv_verdict (Kv.run (Suite.kv_config ~seed:7 ~requests:1_200 ~gap:Suite.kv_gap))
    = Ok ())

let test_txn_gate () =
  rejected "txn broken commit"
    (Suite.txn_verdict (Txn.Workload.run { Txn.Workload.default_config with broken = true }));
  Alcotest.(check bool) "the default workload passes" true
    (Suite.txn_verdict (Txn.Workload.run (Suite.txn_config ~seed:7 ~ops:800)) = Ok ())

let test_set_gate () =
  let spec =
    match (List.hd Suite.workloads).kind with
    | Suite.Set spec -> spec
    | _ -> assert false
  in
  let (module S : Harness.Registry.SET_OPS) = spec.sim in
  let t = S.create () in
  let prefilled = Suite.prefill (module S) t spec ~seed:7 in
  Alcotest.(check bool) "prefilled" true prefilled;
  Alcotest.(check bool) "consistent counts pass" true
    (Suite.set_check (module S) t spec ~prefilled ~inserted:0 ~deleted:0 = Ok ());
  rejected "size drift" (Suite.set_check (module S) t spec ~prefilled ~inserted:1 ~deleted:0)

(* ---------------- smoke: printed metrics = BENCHMARK.json ---------------- *)

let declared () =
  match Obs.Report.read_file benchmark_json with
  | Error e -> Alcotest.failf "%s: %s" benchmark_json e
  | Ok j ->
      let names key =
        match Option.bind (Obs.Report.member key j) Obs.Report.to_list with
        | Some l -> List.filter_map (fun m -> Option.bind (Obs.Report.member "name" m) Obs.Report.to_str) l
        | None -> Alcotest.failf "%s: no %s list" benchmark_json key
      in
      (names "workloads", names "end_to_end", names "per_layer")

let sort = List.sort_uniq String.compare

let test_declared_workloads () =
  let workloads, _, _ = declared () in
  Alcotest.(check (list string)) "workloads" (sort Suite.workload_names) (sort workloads);
  let run_seconds =
    match Obs.Report.read_file benchmark_json with
    | Ok j -> Option.bind (Obs.Report.member "run_seconds" j) Obs.Report.to_int
    | Error _ -> None
  in
  Alcotest.(check (option int)) "run_seconds = perf.exe's default --seconds"
    (Some Suite.default_seconds) run_seconds

(* [trace] is perf.exe's --trace: none prints every declared metric, 0
   only the end-to-end ones and 1 only the per-layer ones. *)
let test_smoke ?trace (w : Suite.workload) () =
  let _, e2e, layers = declared () in
  let expected, flag =
    match trace with
    | None -> (e2e @ layers, [])
    | Some 0 -> (e2e, [ "--trace"; "0" ])
    | Some _ -> (layers, [ "--trace"; "1" ])
  in
  let code, out, err = run_perf ([ "--workload"; w.name; "--smoke" ] @ flag) in
  if code <> 0 then Alcotest.failf "exit %d: %s" code err;
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' out) in
  let result = List.nth lines (List.length lines - 1) in
  let printed =
    List.filter_map
      (fun l ->
        match String.split_on_char ' ' l with
        | wl :: name :: _ when String.equal wl w.name -> Some name
        | _ -> None)
      lines
  in
  Alcotest.(check (list string)) "printed metrics = BENCHMARK.json" (sort expected) (sort printed);
  match Obs.Report.parse result with
  | Error e -> Alcotest.failf "last line is not JSON: %s" e
  | Ok j ->
      Alcotest.(check (option bool)) "correct" (Some true)
        (match Obs.Report.member "correct" j with Some (Obs.Report.Bool b) -> Some b | _ -> None);
      let keys =
        match Obs.Report.member "metrics" j with
        | Some (Obs.Report.Obj kvs) -> List.map fst kvs
        | _ -> []
      in
      Alcotest.(check (list string)) "result metrics" (sort printed) (sort keys)

let () =
  let per_workload f = List.map (fun (w : Suite.workload) -> Alcotest.test_case w.name `Quick (f w)) Suite.workloads in
  Alcotest.run "perf"
    [
      ("lens", per_workload test_lens_exact @ [ Alcotest.test_case "one lock" `Quick test_lens_one_lock ]);
      ("percentile", [ Alcotest.test_case "within a cycle of Pstats" `Quick test_percentile ]);
      ( "gates",
        [
          Alcotest.test_case "set size drift" `Quick test_set_gate;
          Alcotest.test_case "kv broken retry" `Quick test_kv_gate;
          Alcotest.test_case "txn broken commit" `Quick test_txn_gate;
          Alcotest.test_case "skewed lens" `Quick test_skewed_lens_refused;
        ] );
      ( "input",
        [
          Alcotest.test_case "unknown workload" `Quick (test_malformed [ "--workload"; "nope" ]);
          Alcotest.test_case "non-integer seed" `Quick
            (test_malformed [ "--workload"; "list-read"; "--seed"; "x7" ]);
          Alcotest.test_case "unknown flag" `Quick
            (test_malformed [ "--workload"; "list-read"; "--bogus" ]);
          Alcotest.test_case "zero seconds" `Quick
            (test_malformed [ "--workload"; "list-read"; "--seconds"; "0" ]);
          Alcotest.test_case "unwritable --out" `Quick
            (test_malformed [ "--workload"; "list-read"; "--smoke"; "--out"; "no-such-dir/r.json" ]);
        ] );
      ( "smoke",
        (Alcotest.test_case "declared workloads" `Quick test_declared_workloads :: per_workload test_smoke)
        @ [
            Alcotest.test_case "--trace 0" `Quick (test_smoke ~trace:0 (List.hd Suite.workloads));
            Alcotest.test_case "--trace 1" `Quick (test_smoke ~trace:1 (List.hd Suite.workloads));
          ] );
    ]
