(* The pin ledger: the simulator's seeded outputs, row by row.

   The simulator's seeded outputs are part of its contract: chaos repro
   strings, soak failure tuples, trace exports and figure values must
   stay byte-identical across engine changes (inline fast path, event
   heap layout, contention accounting), or every recorded repro and
   committed trace silently goes stale. [test/ledger.txt] pins them, one
   row per piece of output, in sections:

   - [structures]: a small seeded run of every registered structure;
   - [figures]: every run of the figures engine in a tiny mode, each
     experiment's rendered text, the claims and the report envelope;
   - [hostperf]: the simulated counts of each hostperf workload, which
     [BENCH_sim.json] also records;
   - [chaos], [kv], [txn]: a fixed-seed fuzzing session of each trial
     family (one row per trial, with its verdict and its run's counts,
     so a change to a trial's schedule moves its row even when the
     verdict holds) and a fixed-trial replay; for txn also the default
     workload's result, the replay of the broken-commit trial and the
     broken commit protocol's verdict;
   - [soak]: the soak sweep, one row per run;
   - [obs]: a Chrome trace_event export and its JSONL twin, a run
     report and its diff with another, the wasted-work, attribution
     and timeline sections of a traced kv run and a traced txn run, and
     the Chrome trace, JSONL journal and Chrome timeline of a traced kv
     run with shard and client crashes and of a traced txn run.

   A row holds the counts its output prints (a run's ops, virtual wall
   time, accesses, events, CAS and failed CAS; a trial's verdict, and
   for a fuzz trial also its run's counts; an oracle's violations,
   transfers and audits) and the md5 of its own output bytes. An
   output's rows, in ledger order, make up the whole output, so the
   ledger is as strict as one digest over it. Each output
   has a test of its own that checks the rows it owns; on a mismatch the
   test names every moved metric with its old and new values, and every
   missing or extra row. [ledger recomputed] also fails on a ledger row
   that no output owns.

   If an *intentional* change moves ledger rows, rewrite the ledger from
   the repository root with:

     GOLDEN_PRINT=1 dune exec test/test_digest.exe

   Never do so to paper over an unintended schedule change: read which
   rows moved first. *)

module R = Harness.Registry
module W = Txn.Workload

let digest s = Digest.to_hex (Digest.string s)
let i = string_of_int

(* ------------------------------------------------------------------ *)
(* The pin ledger                                                      *)

(* One row of [ledger.txt]: a seeded run, or a block of rendered text,
   with its metrics. [md5] digests the row's own output bytes; a run's
   counters sit next to it so that a moved row says what moved. *)
type row = { section : string; name : string; metrics : (string * string) list }

(* A piece of a pinned output: the counts the output prints for it, and
   its bytes. An output's pieces, in order, make up the whole output. *)
type piece = { p_name : string; p_counts : (string * string) list; p_bytes : string }

let piece p_name p_counts p_bytes = { p_name; p_counts; p_bytes }

let pin section p =
  { section; name = p.p_name; metrics = p.p_counts @ [ ("md5", digest p.p_bytes) ] }

(* Checking and rewriting the ledger both use the same root. *)
let root = Tutil.root ()

let ledger_file = Filename.concat root "test/ledger.txt"

(* A run's simulated counts. *)
let run_counts (m : Harness.Runner.measurement) =
  [
    ("ops", i m.ops);
    ("accesses", i (m.reads + m.writes + m.cas + m.faa));
    ("events", i m.events);
    ("wall_us", Printf.sprintf "%.4f" (m.wall_s *. 1e6));
    ("cas", i m.cas);
    ("cas_failed", i m.cas_failed);
  ]

let run_row section name m bytes = pin section (piece name (run_counts m) bytes)
let text_row section name bytes = pin section (piece name [] bytes)

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
  let row ?capacity ?(suffix = "") (e : R.entry) =
    entry (R.id e ^ suffix) (fun () ->
        match e.structure with
        | R.Set s ->
            Run.run_set_sim ~topology ~nthreads ~ops ~seed ~record_obs:true s
              (Run.uniform_workload ?capacity ~init_size:64 ~update_pct:40 ())
        | R.Pool p ->
            Run.run_pool_sim ~topology ~nthreads ~ops ~seed ~record_obs:true
              ~add_pct:50 p)
  in
  let sets, others =
    List.partition
      (fun e -> match e.R.structure with R.Set _ -> true | _ -> false)
      S.entries
  in
  List.map row sets
  @ List.map (row ~capacity:1 ~suffix:"@1")
      [ S.find "hashtable/java"; S.find "hashtable/java-optik" ]
  @ List.map row others

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
        let r = s.s_run () in
        Some
          {
            section = "hostperf";
            name = s.s_name;
            metrics =
              [
                ("ops", i r.r_ops);
                ("accesses", i r.r_accesses);
                ("events", i r.r_events);
              ];
          }
      end)
    Host_bench.specs

(* ------------------------------------------------------------------ *)
(* Seeded outputs, cut into pieces                                     *)

(* [text]'s lines, each with its newline. *)
let lines text =
  match List.rev (String.split_on_char '\n' text) with
  | "" :: rev -> List.rev_map (fun l -> l ^ "\n") rev
  | _ -> Alcotest.failf "output does not end in a newline: %S" text

(* The counts a line prints: each number followed by a word, as
   [word=number], the first of each word only. *)
let counts line =
  let strip w =
    String.to_seq w
    |> Seq.filter (fun c -> not (String.contains "(),:;\n" c))
    |> String.of_seq
  in
  let words =
    List.filter (( <> ) "") (List.map strip (String.split_on_char ' ' line))
  in
  let rec go acc = function
    | n :: (w :: _ as rest) ->
        if int_of_string_opt n <> None && int_of_string_opt w = None
           && not (List.mem_assoc w acc)
        then go ((w, n) :: acc) rest
        else go acc rest
    | _ -> List.rev acc
  in
  go [] words

(* A fixed-seed fuzzing session: the failure count, one piece per trial
   (its line, and its failures, shrink and repro lines when it fails)
   with its verdict and its run's counts, then the summary line. *)
let fuzz_pieces family ~runs =
  let failed, out, ms = Chaos.fuzz family ~runs ~seed:3 in
  let ms = Array.of_list ms in
  (* Last first: each unindented line opens a chunk, and the indented
     lines under a failing trial join it. *)
  let chunks =
    List.fold_left
      (fun acc l ->
        match acc with
        | cur :: rest when l.[0] = ' ' -> (cur ^ l) :: rest
        | _ -> l :: acc)
      [] (lines out)
  in
  match chunks with
  | summary :: trials ->
      piece "fuzz/failed" [ ("failed", i failed) ] (Printf.sprintf "failed=%d\n" failed)
      :: List.rev_map
           (fun chunk ->
             Scanf.sscanf chunk "trial %d %s " (fun n verdict ->
                 piece ("fuzz/" ^ i n)
                   (("verdict", verdict) :: run_counts ms.(n))
                   chunk))
           trials
      @ [ piece "fuzz/summary" [ ("failed", i failed); ("trials", i runs) ] summary ]
  | [] -> Alcotest.fail "fuzzing printed nothing"

(* The replay of a pinned trial string, with its verdict and the counts
   its detail line prints. *)
let replay_piece name family s =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  let failures = Chaos.replay family s ppf in
  Format.pp_print_flush ppf ();
  let out = Buffer.contents buf in
  piece name
    (("failures", i failures)
     :: ("verdict", if failures = 0 then "PASS" else "FAIL")
     :: counts (List.nth (lines out) 1))
    (Printf.sprintf "trial=%s\nfailures=%d\n%s" s failures out)

(* A replay of a trial drawn from a pinned rng, so the string itself is
   also pinned. *)
let gen_replay_piece (module T : Chaos.TRIAL) =
  replay_piece "replay" (module T) (T.to_string (T.gen (Harness.Rng.create 99)))

let sets_family =
  (Chaos.sets (Chaos.select Chaos.quick_names) :> (module Chaos.TRIAL))

(* Every kv and txn trial starts from a pristine world, so these pins
   do not depend on what ran before them. *)
let kv_pieces () =
  let fuzz = fuzz_pieces (module Chaos.Kv_trial) ~runs:4 in
  fuzz @ [ gen_replay_piece (module Chaos.Kv_trial) ]

(* The default txn workload under the broken commit protocol: the
   oracle's verdict line and its first two violations, so a rewrite of
   the oracle that still finds some violation, but not this exact set,
   moves the row. *)
let broken_commit_piece () =
  let _, r = W.run { W.default_config with W.broken = true } in
  let o = r.W.res_oracle in
  let verdict = List.hd (lines (Format.asprintf "%a@." W.pp_oracle o)) in
  piece "broken-commit"
    (("verdict", if o.W.ok then "PASS" else "FAIL") :: counts verdict)
    (String.concat ""
       (verdict
       :: List.filteri (fun j _ -> j < 2)
            (List.map (fun v -> v ^ "\n") o.W.violations)))

(* The transaction manager's result at [txn]'s default workload: a
   change to how often commits abort or snapshots retry moves this row
   by name, whatever it does to the run's accesses. *)
let bank_piece () =
  let _, r = W.run W.default_config in
  piece "bank-ll"
    [
      ("commits", i r.res_commits);
      ("aborts", i r.res_aborts);
      ("snapshots", i r.res_snapshots);
      ("snapshot_retries", i r.res_snap_retries);
    ]
    (Format.asprintf "%a@." W.pp_result r)

let txn_pieces () =
  let bank = bank_piece () in
  let fuzz = fuzz_pieces (module Chaos.Txn_trial) ~runs:4 in
  let replay = gen_replay_piece (module Chaos.Txn_trial) in
  let broken =
    replay_piece "broken-replay" (module Chaos.Txn_trial)
      "txn/list/optik@xeon b2 a8 t8 o2000 X70 w0 !"
  in
  let commit = broken_commit_piece () in
  (bank :: fuzz) @ [ replay; broken; commit ]

(* The soak sweep of [optik_bench soak], pinned seed, full stats per run
   so any scheduling change shows up. *)
let soak_pieces () =
  let rng = Harness.Rng.create 424242 in
  let rec go n =
    if n > 6 then []
    else begin
      let c = Harness.Soak.sample Harness.Soak.bounded rng in
      let m = Harness.Soak.run c in
      let open Harness.Runner in
      let wall = Printf.sprintf "%.9f" m.wall_s in
      let p =
        piece ("run/" ^ i n)
          [
            ("ops", i m.ops); ("wall", wall); ("reads", i m.reads);
            ("writes", i m.writes); ("cas", i m.cas); ("cas_failed", i m.cas_failed);
            ("size", i m.final_size); ("valid", string_of_bool m.valid);
            ("complete", string_of_bool (not (aborted m)));
          ]
          (Printf.sprintf
             "%d %s -> ops=%d mops=%.6f wall=%s reads=%d writes=%d cas=%d \
              casf=%d size=%d valid=%b complete=%b\n"
             n (Harness.Soak.describe c) m.ops m.mops wall m.reads m.writes m.cas
             m.cas_failed m.final_size m.valid (not (aborted m)))
      in
      p :: go (n + 1)
    end
  in
  go 1

(* A recorded run of the list spelled [structure], from a pristine world. *)
let obs_run structure =
  Harness.World.reset ();
  let (module S : R.SET_OPS) = R.set_ops (R.Sim_backend.find structure) in
  let w = Harness.Runner.uniform_workload ~init_size:256 ~update_pct:40 () in
  Harness.Runner.run_set_sim ~topology:Sim.Topology.xeon ~nthreads:8 ~ops:4_000
    ~seed:11 ~record_obs:true
    (module S)
    w

(* A run's report: the same bytes [optik_bench run ... --report] writes. *)
let obs_report structure m =
  Obs.Report.to_string
    (Harness.Report.make ~subcommand:"run" ~seed:(Some 11)
       ~params:[ ("structure", Obs.Report.Str structure) ]
       [ (structure, m) ])

(* The recorded OPTIK list run that the trace, report and diff pins share. *)
let optik_run = lazy (obs_run "list/optik")

(* Its trace exports: the Chrome trace_event JSON and the JSONL journal. *)
let trace_pieces () =
  let record =
    match (Lazy.force optik_run).Harness.Runner.obs with
    | None -> Alcotest.fail "expected an observability summary"
    | Some s -> s.Obs.Profile.s_record
  in
  let chrome = Obs.Trace.to_chrome record in
  let events =
    List.length (List.filter (String.starts_with ~prefix:"{\"name\"") (lines chrome))
  in
  [
    piece "chrome" [ ("events", i events) ] chrome;
    piece "jsonl"
      [ ("entries", i (Array.length record.Obs.Journal.entries)) ]
      (Obs.Trace.to_jsonl record);
  ]

(* Its run report, one piece per run. *)
let report_pieces () =
  let m = Lazy.force optik_run in
  let head, entries, tail = split_report (obs_report "list/optik" m) in
  (piece "report/head" [] head
  :: List.map (piece "report/list/optik" (run_counts m)) entries)
  @ [ piece "report/tail" [] tail ]

(* The diff of its run report with the lazy list's. *)
let diff_pieces () =
  let parse s =
    match Obs.Report.parse s with
    | Ok j -> j
    | Error e -> Alcotest.failf "report reparse failed: %s" e
  in
  let optik = obs_report "list/optik" (Lazy.force optik_run) in
  let diff =
    let lazy_ = obs_report "list/lazy" (obs_run "list/lazy") in
    match Obs.Report.diff (parse optik) (parse lazy_) with
    | Ok text -> text
    | Error e -> Alcotest.failf "diff failed: %s" e
  in
  [ piece "diff" [ ("lines", i (List.length (lines diff))) ] diff ]

(* The wasted-work, attribution and timeline sections of a traced kv run
   and a traced txn run: between them every timeline track (retries,
   aborts, timeouts, sheds, failovers) and both the [retried] and
   [failed-over] request outcomes are non-zero. The kv run loses both
   copies of shard 0 at once, so its requests time out. *)
let service_sections name (m : Harness.Runner.measurement) trace =
  let record =
    match trace with
    | Some r -> r
    | None -> Alcotest.failf "%s: expected a recorded journal" name
  in
  let a = Obs.Attrib.analyze record in
  let tl = Obs.Attrib.timeline record in
  let bytes j = Obs.Report.to_string j ^ "\n" in
  let wasted =
    match Obs.Report.member "wasted" (Harness.Report.run_entry m) with
    | Some w -> w
    | None -> Alcotest.failf "%s: the run entry has no wasted section" name
  in
  let num path =
    match Option.bind (Obs.Report.member path wasted) Obs.Report.to_int with
    | Some v -> v
    | None -> Alcotest.failf "%s: wasted has no %s" name path
  in
  let total arr = i (Array.fold_left ( + ) 0 arr) in
  let _, attrib = Harness.Report.attrib_section a in
  let _, timeline = Harness.Report.timeline_section tl in
  [
    piece (name ^ "/wasted")
      (List.map
         (fun k -> (k, i (num k)))
         [ "restarts"; "validation_fails"; "lock_acquire_fails" ])
      (bytes wasted);
    piece (name ^ "/attrib")
      (("requests", i (List.length a.reqs))
      :: List.map
           (fun (o, n) -> (Obs.Attrib.outcome_name o, i n))
           (snd (Obs.Attrib.tally a a.reqs)))
      (bytes attrib);
    piece (name ^ "/timeline")
      [
        ("retries", total tl.tl_retries);
        ("aborts", total tl.tl_aborts);
        ("timeouts", total tl.tl_timeouts);
        ("sheds", total tl.tl_sheds);
        ("failovers", total tl.tl_failovers);
      ]
      (bytes timeline);
  ]

let section_pieces () =
  let kv_cfg =
    {
      Kv.default_config with
      seed = 7;
      nshards = 2;
      threads = 6;
      ops = 4_000;
      plan =
        Some
          (Sim.Fault.of_string
             "7;shardcrash(0:200000)@op-boundary,h40;shardcrash(2:200000)@op-boundary,h200");
    }
  in
  let m, r = Kv.run ~record_obs:true kv_cfg in
  let kv = service_sections "sections/kv" m r.Kv.res_trace in
  let m, r = W.run ~record_obs:true W.default_config in
  kv @ service_sections "sections/txn" m r.W.res_trace

(* The journals of a traced kv run and a traced txn run that between
   them hold every phase and every service and scheduler event. The kv
   run rolls a crash over each shard pair, so copies resync and take
   dual writes, and crashes client thread 3 inside a request. *)
let traced_kv =
  lazy
    (let cfg =
       {
         Kv.default_config with
         seed = 7;
         nshards = 2;
         threads = 6;
         ops = 3_000;
         plan =
           Some
             (Sim.Fault.of_string
                "7;shardcrash(0:60000)@op-boundary,h1000;shardcrash(1:60000)@op-boundary,h2000;crash@before-cas,t3,h40");
       }
     in
     match (snd (Kv.run ~record_obs:true cfg)).Kv.res_trace with
     | Some r -> r
     | None -> Alcotest.fail "traced kv: expected a recorded journal")

let traced_txn =
  lazy
    (match (snd (W.run ~record_obs:true W.default_config)).W.res_trace with
    | Some r -> r
    | None -> Alcotest.fail "traced txn: expected a recorded journal")

(* Each traced run's Chrome trace, JSONL journal and Chrome timeline. *)
let traced_pieces () =
  let exports name record =
    let chrome = Obs.Trace.to_chrome record in
    let events s =
      i (List.length (List.filter (String.starts_with ~prefix:"{\"name\"") (lines s)))
    in
    let timeline = Obs.Attrib.timeline_chrome (Obs.Attrib.timeline record) in
    [
      piece (name ^ "/chrome") [ ("events", events chrome) ] chrome;
      piece (name ^ "/jsonl")
        [ ("entries", i (Array.length record.Obs.Journal.entries)) ]
        (Obs.Trace.to_jsonl record);
      piece (name ^ "/timeline") [ ("events", events timeline) ] timeline;
    ]
  in
  exports "traces/kv" (Lazy.force traced_kv)
  @ exports "traces/txn" (Lazy.force traced_txn)

(* The traced runs speak the whole trace vocabulary: every phase, as a
   span or as kv's precomputed queueing delay, every service and
   scheduler event, and a request cut short by its thread's crash. *)
let test_trace_vocabulary () =
  let module J = Obs.Journal in
  let kinds =
    Array.map
      (fun (e : J.entry) -> e.kind)
      (Array.append (Lazy.force traced_kv).entries (Lazy.force traced_txn).entries)
  in
  let has f = Array.exists f kinds in
  List.iter
    (fun p ->
      Alcotest.(check bool) (J.phase_name p) true
        (has (function
          | J.Phase_begin q | Phase_elapsed (q, _) -> q = p
          | _ -> false)))
    [ Queue; Backoff; Route; Store; Acquire; Validate; Commit; Resync; Dual_write ];
  List.iter
    (fun i ->
      Alcotest.(check bool) (J.instant_name i) true
        (has (function J.Instant (j, _) -> j = i | _ -> false)))
    [ Retry; Storm; Node_crash; Thread_crash; Thread_finish ];
  let a = Obs.Attrib.analyze (Lazy.force traced_kv) in
  Alcotest.(check bool) "a request crashed" true
    (List.exists (fun (q : Obs.Attrib.areq) -> q.a_outcome = Crashed) a.reqs)

(* Every pinned output, in ledger order: the test that checks it, the
   ledger rows it owns (a section and a row-name prefix each), and its
   rows recomputed. Each output's rows are checked by their own test, so
   a failure names the output as well as the rows that moved. *)
let outputs =
  let rows section pieces () = List.map (pin section) (pieces ()) in
  [
    ( "recomputed",
      [ ("structures", ""); ("figures", ""); ("hostperf", "") ],
      fun () ->
        let structures = structure_rows () in
        let figures = figure_rows () in
        structures @ figures @ hostperf_rows () );
    ("chaos fuzz", [ ("chaos", "fuzz/") ], rows "chaos" (fun () -> fuzz_pieces sets_family ~runs:8));
    ("chaos replay", [ ("chaos", "replay") ], rows "chaos" (fun () -> [ gen_replay_piece sets_family ]));
    ( "kv and txn streams",
      [ ("kv", ""); ("txn", "") ],
      fun () ->
        let kv = rows "kv" kv_pieces () in
        kv @ rows "txn" txn_pieces () );
    ("soak sweep", [ ("soak", "") ], rows "soak" soak_pieces);
    ("trace exports", [ ("obs", "chrome"); ("obs", "jsonl") ], rows "obs" trace_pieces);
    ("run report", [ ("obs", "report/") ], rows "obs" report_pieces);
    ("report diff", [ ("obs", "diff") ], rows "obs" diff_pieces);
    ("service sections", [ ("obs", "sections/") ], rows "obs" section_pieces);
    ("service traces", [ ("obs", "traces/") ], rows "obs" traced_pieces);
  ]

let owns prefixes r =
  List.exists
    (fun (section, prefix) -> r.section = section && String.starts_with ~prefix r.name)
    prefixes

let output title = List.find (fun (t, _, _) -> t = title) outputs

let ledger_rows () = List.concat_map (fun (_, _, rows) -> rows ()) outputs

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

(* The rows of a ledger's text. A malformed line, a second row with the
   same section and name, or a row that names a metric twice fails,
   naming the line: the comparer pairs each row with the first of its
   name, so a second one would never be compared. *)
let parse_ledger text =
  let fail n fmt =
    Printf.ksprintf (Printf.ksprintf failwith "ledger line %d: %s" n) fmt
  in
  let seen = Hashtbl.create 256 in
  String.split_on_char '\n' text
  |> List.mapi (fun n l -> (n + 1, l))
  |> List.filter_map (fun (n, l) ->
         match String.split_on_char ' ' l |> List.filter (( <> ) "") with
         | [] -> None
         | t :: _ when t.[0] = '#' -> None
         | section :: name :: kvs ->
             let key = section ^ " " ^ name in
             if Hashtbl.mem seen key then fail n "duplicate row %S" key;
             Hashtbl.add seen key ();
             let kv metrics t =
               match String.index_opt t '=' with
               | Some i ->
                   let k = String.sub t 0 i in
                   if List.mem_assoc k metrics then
                     fail n "row %S repeats metric %S" key k;
                   (k, String.sub t (i + 1) (String.length t - i - 1)) :: metrics
               | None -> fail n "bad metric %S in %S" t l
             in
             Some { section; name; metrics = List.rev (List.fold_left kv [] kvs) }
         | _ -> fail n "bad line %S" l)

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

let read_ledger () =
  parse_ledger (In_channel.with_open_text ledger_file In_channel.input_all)

(* An output's rows recomputed from the code equal the committed
   ledger's rows it owns; on a mismatch every moved, missing or extra row
   is named. *)
let check_output title =
  let _, prefixes, rows = output title in
  let old = List.filter (owns prefixes) (read_ledger ()) in
  match compare_ledgers ~old ~now:(rows ()) with
  | [] -> ()
  | changes ->
      Alcotest.failf "%s: %d differences from %s:\n%s" title (List.length changes)
        ledger_file (String.concat "\n" changes)

(* The run rows of every structure, figure and hostperf workload hold,
   and every ledger row belongs to an output, so none goes unchecked. *)
let test_ledger () =
  check_output "recomputed";
  let orphans =
    List.filter
      (fun r -> not (List.exists (fun (_, prefixes, _) -> owns prefixes r) outputs))
      (read_ledger ())
  in
  Alcotest.(check (list string)) "rows no output owns" []
    (List.map (fun r -> r.section ^ " " ^ r.name) orphans)

(* The comparer names exactly what differs: one changed metric of one
   row, with its old and new values, and a removed or an added row; the
   parser refuses a second row of the same name and a repeated metric,
   naming the line. *)
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
    (compare_ledgers ~old:without ~now:rows);
  let refused what text expected =
    Alcotest.(check string) what expected
      (match parse_ledger text with
       | _ -> "accepted"
       | exception Failure e -> e)
  in
  refused "a duplicate row"
    "# header\ntxn        bank-ll commits=1\ntxn        bank-ll commits=2\n"
    "ledger line 3: duplicate row \"txn bank-ll\"";
  refused "a repeated metric"
    "txn        bank-ll commits=1 aborts=0 commits=2\n"
    "ledger line 1: row \"txn bank-ll\" repeats metric \"commits\""

(* [BENCH_sim.json] records hostperf's simulated counts next to its host
   rates: each row's ops, accesses and events are the ledger's [hostperf]
   row of the same name. fleet/chaos-quick counts trials on worker
   domains and has no ledger row. Each rate is its count over the row's
   one [host_s], up to the rounding of the written figures (a relative
   1e-4), so a re-recorded count cannot leave its rates behind. *)
let test_bench_counts () =
  let module J = Obs.Report in
  let bench =
    let file = Filename.concat root "BENCH_sim.json" in
    match J.parse (In_channel.with_open_text file In_channel.input_all) with
    | Ok j -> Option.value ~default:[] (Option.bind (J.member "results" j) J.to_list)
    | Error e -> Alcotest.failf "BENCH_sim.json does not parse: %s" e
  in
  let ledger = List.filter (fun r -> r.section = "hostperf") (read_ledger ()) in
  let differs row =
    match Option.bind (J.member "name" row) J.to_str with
    | None -> [ "a row without a name" ]
    | Some "fleet/chaos-quick" -> []
    | Some name -> (
        match List.find_opt (fun r -> r.name = name) ledger with
        | None -> [ name ^ ": no ledger row" ]
        | Some r ->
            List.filter_map
              (fun field ->
                let show = Option.fold ~none:"-" ~some:Fun.id in
                let b = Option.map i (Option.bind (J.member field row) J.to_int) in
                let l = List.assoc_opt field r.metrics in
                if b = l then None
                else
                  Some
                    (Printf.sprintf "%s %s: BENCH_sim.json has %s, the ledger %s"
                       name field (show b) (show l)))
              [ "ops"; "accesses"; "events" ])
  in
  let off_rate row =
    let num k = Option.value ~default:nan (Option.bind (J.member k row) J.to_number) in
    let name = Option.value ~default:"?" (Option.bind (J.member "name" row) J.to_str) in
    List.filter_map
      (fun count ->
        let want = num count /. num "host_s" and rate = num (count ^ "_per_hs") in
        (* a missing field is nan, which no comparison passes *)
        if Float.abs (want -. rate) <= 1e-4 *. Float.max 1. rate then None
        else
          Some
            (Printf.sprintf "%s %s_per_hs: BENCH_sim.json has %.1f, %s / host_s is %.1f"
               name count rate count want))
      [ "ops"; "accesses"; "events" ]
  in
  Alcotest.(check bool) "BENCH_sim.json has rows" true (bench <> []);
  Alcotest.(check (list string)) "counts that differ from the ledger" []
    (List.concat_map differs bench);
  Alcotest.(check (list string)) "rates that are not count / host_s" []
    (List.concat_map off_rate bench)

(* Two back-to-back productions are identical: determinism within a
   process (catches state leaking from one run into the next). *)
let test_self_stable () =
  let twice title =
    let _, _, rows = output title in
    Alcotest.(check bool) (title ^ " twice") true (rows () = rows ())
  in
  twice "chaos fuzz";
  twice "chaos replay";
  twice "soak sweep"

let () =
  if Sys.getenv_opt "GOLDEN_PRINT" <> None then begin
    Out_channel.with_open_text ledger_file (fun oc ->
        output_string oc (ledger_text (ledger_rows ())));
    Printf.printf "wrote %s\n" ledger_file;
    exit 0
  end;
  let pinned title = Alcotest.test_case title `Quick (fun () -> check_output title) in
  Alcotest.run "digest"
    [
      ( "golden",
        [
          pinned "chaos fuzz";
          pinned "chaos replay";
          pinned "soak sweep";
          pinned "trace exports";
          pinned "run report";
          pinned "report diff";
          Alcotest.test_case "self-stable" `Quick test_self_stable;
          pinned "kv and txn streams";
          pinned "service sections";
          pinned "service traces";
          Alcotest.test_case "trace vocabulary" `Quick test_trace_vocabulary;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "recomputed" `Quick test_ledger;
          Alcotest.test_case "negative control" `Quick test_ledger_negative;
          Alcotest.test_case "BENCH_sim.json counts" `Quick test_bench_counts;
        ] );
    ]
