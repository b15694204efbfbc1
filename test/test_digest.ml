(* Golden-digest determinism tests and the pin ledger.

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
   - a run report and the diff of two.

   The pin ledger, [test/ledger.txt], is the exact pin for the runs the
   paper argues from, structure by structure. It has one row per
   registered structure's small seeded run, per run of the figures engine
   in a tiny mode (with each experiment's rendered text, the claims and
   the report envelope as rows of their own), per hostperf workload, and
   one for the transaction counters of the default txn workload. A row
   holds the run's ops, virtual wall time, accesses, events, CAS and
   failed CAS where it has them, and the md5 of its own output bytes.
   Those bytes, in ledger order, make up the whole structures and
   figures output, so the ledger is as strict as one digest over it; the
   hostperf rows are the simulated counts [BENCH_sim.json] also records,
   for information. On a mismatch the test names every moved metric with
   its old and new values, and every missing or extra row.

   If an *intentional* change breaks a digest or moves ledger rows,
   regenerate from the repository root with:

     GOLDEN_PRINT=1 dune exec test/test_digest.exe

   which prints the digests to paste below and rewrites [test/ledger.txt].
   Never do so to paper over an unintended schedule change: read which
   rows moved first. *)

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
(* The pin ledger                                                      *)

(* One row of [ledger.txt]: a seeded run, or a block of rendered text,
   with its metrics. [md5] digests the row's own output bytes; a run's
   counters sit next to it so that a moved row says what moved. *)
type row = { section : string; name : string; metrics : (string * string) list }

let ledger_file = "ledger.txt"

(* The simulated counts hostperf reports. *)
let count_metrics (r : Host_bench.result) =
  let i = string_of_int in
  [ ("ops", i r.r_ops); ("accesses", i r.r_accesses); ("events", i r.r_events) ]

let run_row section name (m : Harness.Runner.measurement) bytes =
  {
    section;
    name;
    metrics =
      count_metrics (Host_bench.of_measurement name m)
      @ [
          ("wall_us", Printf.sprintf "%.4f" (m.wall_s *. 1e6));
          ("cas", string_of_int m.cas);
          ("cas_failed", string_of_int m.cas_failed);
          ("md5", digest bytes);
        ];
  }

let text_row section name bytes =
  { section; name; metrics = [ ("md5", digest bytes) ] }

(* One small seeded run of every registered structure, hot-line sites
   included, each from a pristine world: a change to any structure's
   accesses, allocation order, allocation sites or probes moves its row.
   It covers the fig9-fig11 lists, hash tables and skip lists that the
   figure rows leave out, and runs the java tables a second time on a
   single bucket, where their segment grows during the run. A row's
   bytes are the run's report entry. *)
let structure_rows () =
  let module S = R.Sim_backend in
  let module Run = Harness.Runner in
  let topology = Sim.Topology.xeon and nthreads = 4 and ops = 2_000 in
  let seed = 7 in
  let entry id run =
    Harness.World.reset ();
    let m = run () in
    run_row "structures" id m
      (Obs.Report.to_string (Harness.Report.run_entry ~id m) ^ "\n")
  in
  let set family ?capacity ?(suffix = "") (module St : R.SET_OPS) =
    let w = Run.uniform_workload ?capacity ~init_size:64 ~update_pct:40 () in
    entry (family ^ "/" ^ St.name ^ suffix) (fun () ->
        Run.run_set_sim ~topology ~nthreads ~ops ~seed ~record_obs:true
          (module St) w)
  in
  List.concat_map
    (fun (family, sets) -> List.map (set family) sets)
    [
      ("map", S.maps);
      ("list", S.lists);
      ("hashtable", S.ht_harris :: S.hashtables);
      ("skiplist", S.skiplists);
      ("bst", S.bsts);
    ]
  @ List.map (set "hashtable" ~capacity:1 ~suffix:"@1") [ S.ht_java; S.ht_java_optik ]
  @ List.map
      (fun (module Qu : R.QUEUE_OPS) ->
        entry ("queue/" ^ Qu.name) (fun () ->
            Run.run_queue_sim ~topology ~nthreads ~ops ~seed ~record_obs:true
              ~enqueue_pct:50 (module Qu)))
      S.queues
  @ List.map
      (fun (module St : R.STACK_OPS) ->
        entry ("stack/" ^ St.name) (fun () ->
            Run.run_stack_sim ~topology ~nthreads ~ops ~seed ~record_obs:true
              ~push_pct:50 (module St)))
      S.stacks

(* Cut a report into the bytes before its runs, each run's bytes (the
   comma after it included) and the bytes after them: together, the
   whole report. The printer ends the [runs] array's opening line with
   ["["], and each run object on a line that starts ["    }"]. *)
let split_report report =
  let chunks, tail =
    List.fold_left
      (fun (chunks, cur) l ->
        let cur = cur ^ l ^ "\n" in
        if l = "  \"runs\": [" || String.starts_with ~prefix:"    }" l then
          (cur :: chunks, "")
        else (chunks, cur))
      ([], "")
      (String.split_on_char '\n' (String.sub report 0 (String.length report - 1)))
  in
  match List.rev chunks with
  | head :: runs -> (head, runs, tail)
  | [] -> Alcotest.fail "report has no runs array"

(* The figures engine in a tiny mode: the rendered figures of every
   experiment except fig9-fig11, the claims, then the run report of
   their measurements, one row per run. fig9-fig11 prefill lists and
   skip lists of up to 65536 keys whatever the mode, which would take
   minutes. Like a fresh [optik_bench figures] process, it starts from
   a pristine world. *)
let figure_rows () =
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
  let texts = ref [] and mark = ref 0 in
  let cut name =
    let bytes = Buffer.sub b !mark (Buffer.length b - !mark) in
    mark := Buffer.length b;
    text_row "figures" name bytes
  in
  let around id f =
    let claims = f () in
    texts := cut ("text/" ^ id) :: !texts;
    claims
  in
  let runs = Figures.Experiments.run tiny ~around out ids in
  let claims = cut "claims" in
  let report =
    Obs.Report.to_string
      (Harness.Report.make ~subcommand:"figures" ~seed:(Some 42) ~params:[]
         runs)
  in
  let head, entries, tail = split_report report in
  if List.length entries <> List.length runs then
    Alcotest.failf "report has %d runs, expected %d" (List.length entries)
      (List.length runs);
  List.rev !texts
  @ [ claims; text_row "figures" "report-head" head ]
  @ List.map2 (fun (id, m) bytes -> run_row "figures" id m bytes) runs entries
  @ [ text_row "figures" "report-tail" tail ]

(* The simulated counts of hostperf's workloads, each from a pristine
   world. fleet/chaos-quick counts trials on worker domains, whose
   accesses and events are not kept, so only its host rate means
   anything. *)
let hostperf_rows () =
  List.filter_map
    (fun (s : Host_bench.spec) ->
      if s.s_name = "fleet/chaos-quick" then None
      else begin
        Harness.World.reset ();
        Some
          { section = "hostperf"; name = s.s_name; metrics = count_metrics (s.s_run ()) }
      end)
    Host_bench.specs

(* The transaction manager's own counters at [txn]'s default workload:
   a change to how often commits abort or snapshots retry moves this row
   by name, whatever it does to the run's accesses. *)
let txn_rows () =
  let _, r = Txn.Workload.run Txn.Workload.default_config in
  let i = string_of_int in
  [
    {
      section = "txn";
      name = "bank-ll";
      metrics =
        [
          ("commits", i r.res_commits);
          ("aborts", i r.res_aborts);
          ("snapshots", i r.res_snapshots);
          ("snapshot_retries", i r.res_snap_retries);
        ];
    };
  ]

let ledger_rows () =
  structure_rows () @ figure_rows () @ hostperf_rows () @ txn_rows ()

(* A row is one line: section, name, then [metric=value] pairs. *)
let row_line r =
  String.concat " "
    (Printf.sprintf "%-10s %-36s" r.section r.name
    :: List.map (fun (k, v) -> k ^ "=" ^ v) r.metrics)

let ledger_header =
  "# The pin ledger: one row per seeded run of test/test_digest.ml.\n\
   # <section> <row> <metric>=<value> ...; md5 digests the row's output bytes.\n\
   # Regenerate from the repository root with\n\
   #   GOLDEN_PRINT=1 dune exec test/test_digest.exe\n\
   # and only for an intended change: the rows it moves say what changed.\n"

let ledger_text rows =
  ledger_header ^ String.concat "" (List.map (fun r -> row_line r ^ "\n") rows)

let parse_ledger text =
  String.split_on_char '\n' text
  |> List.filter_map (fun l ->
         match String.split_on_char ' ' l |> List.filter (( <> ) "") with
         | [] -> None
         | t :: _ when t.[0] = '#' -> None
         | section :: name :: kvs ->
             let kv t =
               match String.index_opt t '=' with
               | Some i ->
                   (String.sub t 0 i, String.sub t (i + 1) (String.length t - i - 1))
               | None -> Alcotest.failf "ledger: bad metric %S in %S" t l
             in
             Some { section; name; metrics = List.map kv kvs }
         | _ -> Alcotest.failf "ledger: bad line %S" l)

(* Every difference between two ledgers, one line each: a moved metric
   with its old and new values, a missing or an extra row by name, and
   rows that hold but appear in another order. *)
let compare_ledgers ~old ~now =
  let key r = r.section ^ " " ^ r.name in
  let find rows k = List.find_opt (fun r -> key r = k) rows in
  let changes =
    List.concat_map
      (fun o ->
        match find now (key o) with
        | None -> [ "missing " ^ key o ]
        | Some n ->
            let metric m rows = Option.value ~default:"-" (List.assoc_opt m rows) in
            let names =
              List.map fst o.metrics
              @ List.filter (fun m -> not (List.mem_assoc m o.metrics))
                  (List.map fst n.metrics)
            in
            List.filter_map
              (fun m ->
                let a = metric m o.metrics and b = metric m n.metrics in
                if a = b then None
                else Some (Printf.sprintf "moved   %s %s: %s -> %s" (key o) m a b))
              names)
      old
    @ List.filter_map
        (fun n -> if find old (key n) = None then Some ("extra   " ^ key n) else None)
        now
  in
  if changes = [] && List.map key old <> List.map key now then
    [ "order   the rows hold but appear in another order" ]
  else changes

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
(* Re-recorded when a snapshot retry began re-reading only its stale
   entries, when snapshots began skipping validation while the commit
   clock stands still, and when snapshot retries moved onto the shared
   jittered backoff: both txn replays run snapshot audits. *)
let golden_txn_replay = "649a61a111148c08f184975a91fa8c73"
let golden_txn_broken = "2160a44f51e1ac78fb7a458f374540c3"

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

let read_ledger () =
  parse_ledger (In_channel.with_open_text ledger_file In_channel.input_all)

(* The ledger recomputed from the code equals the committed one; on a
   mismatch every moved, missing or extra row is named. *)
let test_ledger () =
  match compare_ledgers ~old:(read_ledger ()) ~now:(ledger_rows ()) with
  | [] -> ()
  | changes ->
      Alcotest.failf "%d differences from test/%s:\n%s" (List.length changes)
        ledger_file (String.concat "\n" changes)

(* The comparer names exactly what differs: one changed metric of one
   row, with its old and new values, and a removed or an added row. *)
let test_ledger_negative () =
  let rows = read_ledger () in
  Alcotest.(check int) "the ledger round-trips" 0
    (List.length (compare_ledgers ~old:rows ~now:(parse_ledger (ledger_text rows))));
  let target r = r.section = "hostperf" && r.name = "hashtable/optik-gl" in
  let accesses = List.assoc "accesses" (List.find target rows).metrics in
  let bumped = string_of_int (int_of_string accesses + 1) in
  let edited =
    List.map
      (fun r ->
        if target r then
          { r with
            metrics =
              List.map
                (fun (k, v) -> (k, if k = "accesses" then bumped else v))
                r.metrics }
        else r)
      rows
  in
  Alcotest.(check (list string)) "one moved metric"
    [ Printf.sprintf "moved   hostperf hashtable/optik-gl accesses: %s -> %s"
        bumped accesses ]
    (compare_ledgers ~old:edited ~now:rows);
  let without = List.filter (fun r -> not (target r)) rows in
  Alcotest.(check (list string)) "a removed row"
    [ "missing hostperf hashtable/optik-gl" ]
    (compare_ledgers ~old:rows ~now:without);
  Alcotest.(check (list string)) "an added row"
    [ "extra   hostperf hashtable/optik-gl" ]
    (compare_ledgers ~old:without ~now:rows)

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
    let path = Filename.concat "test" ledger_file in
    Out_channel.with_open_text path (fun oc ->
        output_string oc (ledger_text (ledger_rows ())));
    Printf.printf "wrote %s\n" path;
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
        ] );
      ( "ledger",
        [
          Alcotest.test_case "recomputed" `Quick test_ledger;
          Alcotest.test_case "negative control" `Quick test_ledger_negative;
        ] );
    ]
