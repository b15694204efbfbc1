(* Golden-digest determinism tests.

   The simulator's seeded outputs are part of its contract: chaos repro
   strings, soak failure tuples and trace exports must stay byte-identical
   across engine changes (inline fast path, event heap layout, contention
   accounting), or every recorded repro and committed trace silently goes
   stale. These tests pin MD5 digests of representative seeded outputs:

   - a fixed-seed chaos fuzzing session (trial strings + verdicts),
   - a fixed-trial chaos replay,
   - the same two for the kv and txn families, plus the replay of the
     broken-commit txn trial (a failing verdict),
   - a soak-style randomized sweep summary (workload tuple + full stats),
   - a Chrome trace_event export and its JSONL twin,
   - the figures engine's rendered output and run report in a tiny mode.

   The digests were recorded before the PR-4 hot-path overhaul and must
   survive it unchanged. If an *intentional* output-format change breaks
   them, regenerate with:

     GOLDEN_PRINT=1 dune exec test/test_digest.exe

   and update the constants below — never update them to paper over an
   unintended schedule change. *)

module R = Harness.Registry

let digest s = Digest.to_hex (Digest.string s)

(* ------------------------------------------------------------------ *)
(* Output producers                                                    *)

let with_ppf f =
  let buf = Buffer.create 8192 in
  let ppf = Format.formatter_of_buffer buf in
  let x = f ppf in
  Format.pp_print_flush ppf ();
  (x, Buffer.contents buf)

(* A fixed-seed fuzzing session. *)
let fuzz_output family ~runs =
  let failed, out = Chaos.fuzz family ~runs ~seed:3 in
  Printf.sprintf "failed=%d\n%s" failed out

(* ... over the CI smoke set. *)
let chaos_output () =
  fuzz_output (Chaos.sets Chaos.quick_entries :> (module Chaos.TRIAL)) ~runs:8

(* Replay of a pinned trial string. *)
let replay_output family s =
  let failures, out = with_ppf (fun ppf -> Chaos.replay family s ppf) in
  Printf.sprintf "trial=%s\nfailures=%d\n%s" s failures out

(* A replay of a trial drawn from a pinned rng, so the string itself is
   also covered by the digest. *)
let gen_replay_output (module T : Chaos.TRIAL) =
  replay_output (module T) (T.to_string (T.gen (Harness.Rng.create 99)))

let replay_output_sets () =
  gen_replay_output (Chaos.sets Chaos.quick_entries :> (module Chaos.TRIAL))

(* Every kv and txn trial starts from a pristine world, so these pins
   do not depend on what ran before them. *)
module Kv_t = Chaos.Kv_trial
module Txn_t = Chaos.Txn_trial

let kv_fuzz_output () = fuzz_output (module Kv_t) ~runs:4
let txn_fuzz_output () = fuzz_output (module Txn_t) ~runs:4
let kv_replay_output () = gen_replay_output (module Kv_t)
let txn_replay_output () = gen_replay_output (module Txn_t)

let txn_broken_output () =
  replay_output (module Txn_t) "txn/ll-optik@xeon b2 a8 t8 o2000 X70 w0 !"

(* The soak sweep of [optik_bench soak], pinned seed, full stats per run
   so any scheduling change shows up. *)
let soak_output () =
  let b = Buffer.create 4096 in
  let rng = Harness.Rng.create 424242 in
  for i = 1 to 6 do
    let c = Harness.Soak.sample Harness.Soak.bounded rng in
    let m = Harness.Soak.run c in
    Printf.bprintf b
      "%d %s -> ops=%d mops=%.6f wall=%.9f reads=%d writes=%d cas=%d \
       casf=%d size=%d valid=%b complete=%b\n"
      i (Harness.Soak.describe c) m.Harness.Runner.ops m.Harness.Runner.mops
      m.Harness.Runner.wall_s m.Harness.Runner.reads m.Harness.Runner.writes
      m.Harness.Runner.cas m.Harness.Runner.cas_failed
      m.Harness.Runner.final_size m.Harness.Runner.valid
      (not (Harness.Runner.aborted m))
  done;
  Buffer.contents b

(* The figures engine in a tiny mode: the rendered figures and claims of
   every experiment except fig9-fig11, then the run report of their
   measurements. Those three prefill lists and skip lists of up to 65536
   keys whatever the mode, which would take minutes. Like a fresh
   [optik_bench figures] process, it starts from a pristine world. *)
let figures_output () =
  Harness.World.reset ();
  let tiny =
    { Figures.Experiments.threads_of = (fun _ -> [ 1; 4 ]); ops_scale = 0.02;
      seed = 42 }
  in
  let ids =
    List.filter
      (fun id -> not (List.mem id [ "fig9"; "fig10"; "fig11" ]))
      Figures.Experiments.all_ids
  in
  let b = Buffer.create 65536 in
  let out l = Buffer.add_string b l; Buffer.add_char b '\n' in
  let runs = Figures.Experiments.run tiny out ids in
  Buffer.add_string b
    (Obs.Report.to_string
       (Harness.Report.make ~subcommand:"figures" ~seed:(Some 42) ~params:[]
          runs));
  Buffer.contents b

(* Trace exports of a recorded run: the Chrome trace_event JSON and the
   JSONL journal must both be byte-stable. *)
let trace_outputs () =
  let (module S : R.SET_OPS) =
    R.Sim_backend.find_named R.Sim_backend.lists "optik"
  in
  let w = Harness.Runner.uniform_workload ~init_size:256 ~update_pct:40 () in
  let m =
    Harness.Runner.run_set_sim ~topology:Sim.Topology.xeon ~nthreads:8
      ~ops:4_000 ~seed:11 ~record_obs:true
      (module S)
      w
  in
  match m.Harness.Runner.obs with
  | None -> Alcotest.fail "expected an observability summary"
  | Some s ->
      ( Obs.Trace.to_chrome s.Obs.Profile.s_record,
        Obs.Trace.to_jsonl s.Obs.Profile.s_record )

(* A seeded run report: the same bytes [optik_bench run ... --report]
   writes, so the report schema and the deterministic JSON printer are
   both pinned. Two structures (OPTIK vs lazy lists) and their diff. *)
let report_output name =
  let (module S : R.SET_OPS) =
    R.Sim_backend.find_named R.Sim_backend.lists name
  in
  let w = Harness.Runner.uniform_workload ~init_size:256 ~update_pct:40 () in
  let m =
    Harness.Runner.run_set_sim ~topology:Sim.Topology.xeon ~nthreads:8
      ~ops:4_000 ~seed:11 ~record_obs:true
      (module S)
      w
  in
  Obs.Report.to_string
    (Harness.Report.make ~subcommand:"run" ~seed:(Some 11)
       ~params:[ ("structure", Obs.Report.Str name) ]
       [ ("list/" ^ name, m) ])

let diff_output () =
  let parse s =
    match Obs.Report.parse s with
    | Ok j -> j
    | Error e -> Alcotest.failf "report reparse failed: %s" e
  in
  let a = parse (report_output "optik") in
  let b = parse (report_output "lazy") in
  match Obs.Report.diff a b with
  | Ok text -> text
  | Error e -> Alcotest.failf "diff failed: %s" e

(* ------------------------------------------------------------------ *)
(* Recorded digests (pre-PR-4 engine)                                  *)

let golden_chaos = "8029953889ca251b8fbaa4daa4094b23"
let golden_replay = "9305587bce9c034a34108a66ecdc1e6a"
let golden_soak = "c1eccf8222670fdf0e454345635e8d65"
(* PR-5 note: golden_chrome/golden_jsonl were regenerated when the OPTIK
   trylock-fail probe changed from a journal event to a counter (the
   journal now records Count rows instead of Instant rows); the
   chaos/replay/soak digests survived that change unchanged, which is the
   point — probes never touch the virtual clock. *)
let golden_chrome = "850006d657dbd05b7a13595366e44cd0"
let golden_jsonl = "954b88fc23c121c30a979276b9581b49"
(* PR-6 note: golden_report/golden_diff were regenerated when the
   latency summaries grew p99/p999 tail percentiles (for the KV
   service's per-class tails); the other five digests survived
   unchanged — the new percentiles are derived from the same recorded
   samples and nothing about the runs themselves moved. *)
let golden_report = "30e00611a1141c36d2319c89457d9c30"
let golden_diff = "43583b66f19053aef91773fd8efd0d5c"
(* The kv and txn pins were recorded from the code before the families
   shared one driver, which had to leave them unchanged. *)
let golden_kv_fuzz = "aa8a1f01b6d32fc7e1dc3dcdeb88ba47"
let golden_txn_fuzz = "cb23e5cda099c502978254a1a70d0ae3"
let golden_kv_replay = "b63087980e479631c44410320aeaa0d3"
let golden_txn_replay = "33e4fc8d6bf2791ff62750ea3ee36f76"
let golden_txn_broken = "13ea5ab3739d879dd54e5b3026da680f"
(* Recorded in a fresh process from the code before the paper loops, the
   figure grids and the figures driver were shared, which had to leave it
   unchanged. *)
let golden_figures = "626ef4a8b2e5ac51475031fd448f32c2"

(* ------------------------------------------------------------------ *)

let check_digest name golden data =
  Alcotest.(check string) (name ^ " digest") golden (digest data)

let test_chaos () = check_digest "chaos fuzz" golden_chaos (chaos_output ())
let test_replay () =
  check_digest "chaos replay" golden_replay (replay_output_sets ())

let test_services () =
  check_digest "kv fuzz" golden_kv_fuzz (kv_fuzz_output ());
  check_digest "txn fuzz" golden_txn_fuzz (txn_fuzz_output ());
  check_digest "kv replay" golden_kv_replay (kv_replay_output ());
  check_digest "txn replay" golden_txn_replay (txn_replay_output ());
  check_digest "txn broken replay" golden_txn_broken (txn_broken_output ())
let test_soak () = check_digest "soak sweep" golden_soak (soak_output ())

let test_figures () =
  check_digest "figures" golden_figures (figures_output ())

let test_traces () =
  let chrome, jsonl = trace_outputs () in
  check_digest "chrome trace" golden_chrome chrome;
  check_digest "jsonl trace" golden_jsonl jsonl

let test_report () =
  check_digest "run report" golden_report (report_output "optik")

let test_diff () = check_digest "report diff" golden_diff (diff_output ())

(* Two back-to-back productions digest identically: determinism within a
   process, independent of the recorded constants (catches state leaking
   from one run into the next). *)
let test_self_stable () =
  Alcotest.(check string) "chaos twice" (digest (chaos_output ()))
    (digest (chaos_output ()));
  Alcotest.(check string) "soak twice" (digest (soak_output ()))
    (digest (soak_output ()))

let () =
  if Sys.getenv_opt "GOLDEN_PRINT" <> None then begin
    Printf.printf "let golden_chaos = %S\n" (digest (chaos_output ()));
    Printf.printf "let golden_replay = %S\n" (digest (replay_output_sets ()));
    Printf.printf "let golden_soak = %S\n" (digest (soak_output ()));
    let chrome, jsonl = trace_outputs () in
    Printf.printf "let golden_chrome = %S\n" (digest chrome);
    Printf.printf "let golden_jsonl = %S\n" (digest jsonl);
    Printf.printf "let golden_report = %S\n" (digest (report_output "optik"));
    Printf.printf "let golden_diff = %S\n" (digest (diff_output ()));
    Printf.printf "let golden_kv_fuzz = %S\n" (digest (kv_fuzz_output ()));
    Printf.printf "let golden_txn_fuzz = %S\n" (digest (txn_fuzz_output ()));
    Printf.printf "let golden_kv_replay = %S\n" (digest (kv_replay_output ()));
    Printf.printf "let golden_txn_replay = %S\n" (digest (txn_replay_output ()));
    Printf.printf "let golden_txn_broken = %S\n" (digest (txn_broken_output ()));
    Printf.printf "let golden_figures = %S\n" (digest (figures_output ()));
    exit 0
  end;
  Alcotest.run "digest"
    [
      ( "golden",
        [
          Alcotest.test_case "chaos fuzz" `Quick test_chaos;
          Alcotest.test_case "chaos replay" `Quick test_replay;
          Alcotest.test_case "soak sweep" `Quick test_soak;
          Alcotest.test_case "trace exports" `Quick test_traces;
          Alcotest.test_case "run report" `Quick test_report;
          Alcotest.test_case "report diff" `Quick test_diff;
          Alcotest.test_case "self-stable" `Quick test_self_stable;
          Alcotest.test_case "kv and txn streams" `Quick test_services;
          Alcotest.test_case "figures" `Quick test_figures;
        ] );
    ]
