(* Command-line front-end for the experiment engine: pick experiments,
   sweep density, or run a single ad-hoc workload against one data
   structure on either backend.

   Examples:
     optik_bench figures --ids fig5,fig12
     optik_bench figures --full
     optik_bench run --structure list/optik --threads 12 --size 1024 \
                     --updates 40 --skewed
     optik_bench run --structure skiplist/optik2 --seed 5 --report a.json
     optik_bench diff a.json b.json
     optik_bench list *)

open Cmdliner

let out = print_endline

(* Host wall-clock reporting goes to stderr so that every subcommand's
   stdout stays byte-deterministic for a given seed (timings are the one
   thing that varies run to run). *)
let with_host_time label ops_done f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let dt = Float.max 1e-9 (Unix.gettimeofday () -. t0) in
  let n = ops_done r in
  Printf.eprintf "[host] %s: %.3fs wall-clock%s\n%!" label dt
    (if n > 0 then
       Printf.sprintf ", %.0f ops/host-sec" (float_of_int n /. dt)
     else "");
  r

(* ---------------- the subcommand skeleton ---------------- *)

module J = Obs.Report

(* Every subcommand takes [--report FILE] and emits a schema-versioned
   JSON run report there (see DESIGN.md, "Run reports"). Reports carry
   only deterministic data: same command line + same seed => byte-
   identical file, diffable with [optik_bench diff]. *)
let report_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "report" ] ~docv:"FILE"
        ~doc:
          "Write a schema-versioned JSON run report to $(docv): probe \
           counters, scheduler stats, latency summaries and the normalized \
           wasted-work section for every measured run. Deterministic for a \
           given seed; compare two reports with $(b,optik_bench diff).")

let int_arg = Cli.int_arg
let flag_arg = Cli.flag_arg
let seed_arg ?(default = 42) doc = int_arg "seed" default doc

let write_report path (j : J.json) =
  Harness.Report.write path j;
  Printf.eprintf "[host] wrote report %s\n%!" path

(* The one exit path of every subcommand: [body ()] checks and builds its
   configuration, runs and prints, and returns whether it failed plus its
   report. An [Invalid_argument] it raises — a malformed flag, trial
   string or fault plan, or a configuration a library rejects before
   running — exits 2 with its message, as do cmdliner's own parse errors
   (see the last line) and a [Sys_error] from a file it cannot open (the
   message names the path and the OS error; --report's path is tried
   before [body] runs); the report is written when --report was given;
   a failure exits 1. [exits] documents these
   statuses in every man page. *)
let exits =
  Cmd.Exit.
    [
      info 0 ~doc:"on success.";
      info 1 ~doc:"when a run fails an oracle, check or gate.";
      info 2 ~doc:"on malformed input: a flag, value, trial string, plan or path.";
      info 125 ~doc:"on an unexpected internal error.";
    ]

let main report body =
  let malformed msg =
    prerr_endline msg;
    exit 2
  in
  (* A report path that cannot be opened fails before the run, not after
     it. Opening to append keeps an existing file's bytes, and a file the
     check created goes again, so a run that then fails leaves none. *)
  let writable path =
    let fresh = not (Sys.file_exists path) in
    close_out (open_out_gen [ Open_wronly; Open_creat; Open_append ] 0o644 path);
    if fresh then Sys.remove path
  in
  match
    Option.iter writable report;
    body ()
  with
  | exception (Invalid_argument msg | Sys_error msg) -> malformed msg
  | failed, (j : unit -> J.json) ->
      (try Option.iter (fun path -> write_report path (j ())) report
       with Sys_error msg -> malformed msg);
      if failed then exit 1

(* ---------------- trial streams ---------------- *)

(* The chaos, kv and txn subcommands drive their trial family through
   the chaos driver instead of one run when given these. *)
let replay_arg doc =
  Arg.(value & opt (some string) None & info [ "replay" ] ~docv:"TRIAL" ~doc)

type trials = Fuzz of int | Replay of string

(* --fuzz N / --replay TRIAL; [None] is the single run. *)
let trials_arg ~fuzz_doc ~replay_doc =
  Term.(
    const (fun n replay ->
        if n > 0 then Some (Fuzz n) else Option.map (fun s -> Replay s) replay)
    $ int_arg ~range:Harness.Range.non_negative "fuzz" 0 fuzz_doc
    $ replay_arg replay_doc)

(* --jobs J: the worker domains a fuzz run farms its trials over. *)
let jobs_arg =
  int_arg ~range:Harness.Range.non_negative "jobs" ~docv:"J" 0
    "Worker domains for fuzzing (0, the default: the host's recommended \
     domain count minus one). Output bytes do not depend on $(docv): trial \
     i is always drawn from seed + i*1000003 and every trial starts from a \
     pristine per-domain simulator world."

(* A trial stream's report sections: the failure count and the printed
   lines. *)
let trial_sections failures output =
  let lines =
    String.split_on_char '\n' output |> List.filter (fun l -> String.trim l <> "")
  in
  [
    ("failures", J.Int failures);
    ("trials", J.Arr (List.map (fun l -> J.Str l) lines));
  ]

(* Fuzz or replay [family], print the output, and report the same lines.
   Report params leave out --jobs, so runs of different widths diff
   clean. *)
let trial_stream ~subcommand ~seed ~params ~jobs family trials =
  let module T = (val family : Chaos.TRIAL) in
  let failures, output =
    match trials with
    | Fuzz runs ->
        with_host_time
          (Printf.sprintf "%s fuzz %d trials" T.command runs)
          (fun _ -> runs)
          (fun () ->
            let failures, output, _ =
              Chaos.fuzz
                ?jobs:(if jobs = 0 then None else Some jobs)
                family ~runs ~seed
            in
            (failures, output))
    | Replay s ->
        with_host_time (T.command ^ " replay")
          (fun _ -> 1)
          (fun () ->
            let buf = Buffer.create 1024 in
            let ppf = Format.formatter_of_buffer buf in
            let failures = Chaos.replay family s ppf in
            Format.pp_print_flush ppf ();
            (failures, Buffer.contents buf))
  in
  print_string output;
  ( failures > 0,
    fun () ->
      J.make ~subcommand ~seed:(Some seed) ~params ~runs:[]
        ~sections:(trial_sections failures output) )

(* ---------------- request tracing ---------------- *)

(* The service subcommands (kv, txn) share these: --attrib records the
   run's journal and prints/reports per-phase latency attribution;
   --timeline FILE additionally writes the windowed virtual-time series
   as Chrome counter tracks. Either implies tracing; traced and untraced
   runs are cycle-identical (emissions never advance the virtual clock),
   so turning them on cannot change the measured numbers. *)
let attrib_arg =
  flag_arg "attrib"
    "Trace every request and attribute its latency to typed phases (queue, \
     route, store, backoff, acquire, validate, commit, resync, dual-write): \
     prints the per-phase and per-outcome summary and attaches the \
     $(b,attrib) and $(b,timeline) sections to --report (diffable with \
     $(b,optik_bench diff))."

let timeline_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "timeline" ] ~docv:"FILE"
        ~doc:
          "Write the virtual-time timeline — windowed completion, retry, \
           abort, timeout, shed, failover, crash and storm counts plus \
           per-phase occupancy — as Chrome counter tracks to $(docv) (load \
           in Perfetto). Implies the tracing --attrib turns on.")

let print_attrib (a : Obs.Attrib.t) =
  let module A = Obs.Attrib in
  Printf.printf "  traced          %d requests (%d dropped mid-run)\n"
    (List.length a.A.reqs) a.A.dropped;
  let grand = List.fold_left (fun s (r : A.areq) -> s + r.A.a_total) 0 a.A.reqs in
  let phases, outcomes = A.tally a a.A.reqs in
  List.iter
    (fun (p, total) ->
      if total > 0 then
        Printf.printf "    phase %-10s %10d cycles  %5.1f%%\n" p total
          (100. *. float_of_int total /. float_of_int (max 1 grand)))
    phases;
  let by_outcome =
    List.filter_map
      (fun (o, n) ->
        if n = 0 then None else Some (Printf.sprintf "%s=%d" (A.outcome_name o) n))
      outcomes
  in
  if by_outcome <> [] then
    Printf.printf "    outcomes        %s\n" (String.concat "  " by_outcome)

(* Only the windows where something went wrong: quiet windows carry no
   diagnosis, and 24 all-zero lines would bury the storm/crash ones. *)
let print_timeline (tl : Obs.Attrib.timeline) =
  let module A = Obs.Attrib in
  Printf.printf "  timeline        %d windows x %d cycles\n" tl.A.tl_nwindows
    tl.A.tl_width;
  for w = 0 to tl.A.tl_nwindows - 1 do
    if
      tl.A.tl_aborts.(w) + tl.A.tl_timeouts.(w) + tl.A.tl_sheds.(w)
      + tl.A.tl_failovers.(w) + tl.A.tl_crashes.(w) + tl.A.tl_storms.(w)
      > 0
    then
      Printf.printf
        "    w%02d reqs=%-5d retries=%-5d aborts=%-4d timeouts=%-4d \
         sheds=%-4d failovers=%-4d crashes=%-3d storms=%d\n"
        w tl.A.tl_reqs.(w) tl.A.tl_retries.(w) tl.A.tl_aborts.(w)
        tl.A.tl_timeouts.(w) tl.A.tl_sheds.(w) tl.A.tl_failovers.(w)
        tl.A.tl_crashes.(w) tl.A.tl_storms.(w)
  done

(* Analyze a run's trace: print the summaries, write the Chrome timeline
   when asked, and return the report sections. *)
let trace_analysis ~timeline_file (trace : Obs.Journal.record option) =
  match trace with
  | None -> []
  | Some rec_ ->
      let a = Obs.Attrib.analyze rec_ in
      let tl = Obs.Attrib.timeline rec_ in
      print_attrib a;
      print_timeline tl;
      (match timeline_file with
      | None -> ()
      | Some path ->
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_string oc (Obs.Attrib.timeline_chrome tl));
          Printf.eprintf "[host] wrote timeline %s\n%!" path);
      [ Harness.Report.attrib_section a; Harness.Report.timeline_section tl ]

(* ---------------- figures ---------------- *)

let figures_cmd =
  let ids =
    let doc =
      "Comma-separated experiment ids (default: all). Known ids: "
      ^ String.concat ", " Figures.Experiments.all_ids
    in
    Arg.(value & opt (some string) None & info [ "ids" ] ~docv:"IDS" ~doc)
  in
  let full = flag_arg "full" "Dense thread sweeps (slower)." in
  let seed =
    seed_arg
      "Workload seed threaded into every runner call except those of \
       fig5, stack and ablation-victim, which run fixed seeds (default \
       42, the seed the committed figures use). Two seeds make an A/B \
       pair for $(b,optik_bench diff)."
  in
  let run ids full seed report =
    main report @@ fun () ->
    let ids =
      match ids with
      | None -> Figures.Experiments.all_ids
      | Some s -> String.split_on_char ',' s |> List.map String.trim
    in
    let runs =
      with_host_time
        (Printf.sprintf "figures %s" (String.concat "," ids))
        (fun _ -> 0)
        (fun () ->
          Figures.Experiments.run
            (Figures.Experiments.mode_of ~full ~seed)
            ~around:(fun id f -> with_host_time id (fun _ -> 0) f)
            out ids)
    in
    ( false,
      fun () ->
        Harness.Report.make ~subcommand:"figures" ~seed:(Some seed)
          ~params:
            [ ("ids", J.Str (String.concat "," ids)); ("full", J.Bool full) ]
          runs )
  in
  Cmd.v
    (Cmd.info ~exits "figures"
       ~doc:"Regenerate the paper's figures (simulator).")
    Term.(const run $ ids $ full $ seed $ report_arg)

(* ---------------- single ad-hoc run ---------------- *)

(* Every measuring subcommand names an aborted run's verdict this way. *)
let print_aborted (m : Harness.Runner.measurement) =
  match m.Harness.Runner.outcome with
  | Harness.Runner.Complete -> ()
  | Harness.Runner.Aborted rep ->
      Printf.printf "  ABORTED: %s\n"
        (Format.asprintf "%a" Sim.Sched.pp_verdict rep.Sim.Sched.r_verdict)

let run_cmd =
  let structure =
    Arg.(
      value
      & opt string "list/optik"
      & info [ "structure" ] ~docv:"FAMILY/NAME"
          ~doc:
            "Set structure to run, as $(b,optik_bench list) prints it: a map, \
             list, hashtable, skiplist or bst family and the figure name.")
  in
  let threads = int_arg "threads" 10 "Thread count." in
  let size = int_arg "size" 1024 "Initial size." in
  let updates =
    int_arg "updates" ~docv:"PCT" 40
      "Attempted update percentage (split insert/delete)."
  in
  let skewed = flag_arg "skewed" "Zipfian keys (a = 0.9)." in
  let ops = int_arg "ops" 20_000 "Total operations." in
  let seed =
    seed_arg
      "RNG seed: same seed, same workload, same simulated schedule, same \
       result. The effective seed is always printed so any run can be \
       replayed."
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record the run's observability journal and write it to $(docv): \
             Chrome trace_event JSON (load in chrome://tracing or Perfetto), \
             or JSONL when $(docv) ends in .jsonl. Deterministic: same seed, \
             byte-identical file. Recording never perturbs the simulated \
             clock, so traced and untraced runs report identical figures.")
  in
  let profile =
    flag_arg "profile"
      "Record the run and print contention profiles: the hot-line \
       table (coherence transfers, failed CAS, owner bounces and \
       serialization stalls per allocation site), the ops/restarts \
       time series and per-thread totals."
  in
  let run structure threads size updates skewed machine ops seed trace profile
      report =
    main report @@ fun () ->
    let topology = Cli.topology_of_machine machine in
    let (module S : Harness.Registry.SET_OPS) =
      Harness.Registry.(set_ops (Sim_backend.find structure))
    in
    let w =
      (if skewed then Harness.Runner.skewed_workload
       else Harness.Runner.uniform_workload)
        ~capacity:size ~init_size:size ~update_pct:updates ()
    in
    (* A report wants hot-line stall attribution, so it records the
       journal like --profile does; recording never perturbs the
       simulated clock, so the printed figures are unchanged. *)
    let record_obs = profile || trace <> None || report <> None in
    let m =
      Harness.Runner.run_set_sim ~topology ~nthreads:threads ~ops ~seed
        ~record_obs (module S) w
    in
    Printf.printf
      "%s on %s, %d threads, size %d, %d%% attempted updates%s, seed %d\n"
      structure machine threads size updates
      (if skewed then " (zipf 0.9)" else "")
      seed;
    print_aborted m;
    (match m.Harness.Runner.outcome with
    | Harness.Runner.Complete -> ()
    | Harness.Runner.Aborted r -> Format.printf "%a@?" Sim.Sched.pp_report r);
    Printf.printf "  throughput      %.2f Mops/s\n" m.Harness.Runner.mops;
    Printf.printf "  effective upd   %.1f%%\n" m.Harness.Runner.eff_update_pct;
    Printf.printf "  CAS total/failed %d/%d\n" m.Harness.Runner.cas
      m.Harness.Runner.cas_failed;
    Printf.printf "  final size      %d (valid: %b)\n"
      m.Harness.Runner.final_size m.Harness.Runner.valid;
    Array.iteri
      (fun i cls ->
        let l = m.Harness.Runner.lat.(i) in
        if l.Harness.Pstats.n > 0 then
          Printf.printf "  %-9s p50=%-8d p95=%d cycles\n" cls
            l.Harness.Pstats.p50 l.Harness.Pstats.p95)
      Harness.Runner.class_names;
    List.iter
      (fun (k, v) -> Printf.printf "  counter %-28s %d\n" k v)
      m.Harness.Runner.counters;
    Printf.eprintf "[host] run %s: %.3fs wall-clock, %.0f ops/host-sec\n%!"
      structure m.Harness.Runner.host_s
      (float_of_int m.Harness.Runner.ops /. m.Harness.Runner.host_s);
    (match m.Harness.Runner.obs with
    | None -> ()
    | Some s ->
        (match trace with
        | None -> ()
        | Some path ->
            Obs.Trace.write_file path s.Obs.Profile.s_record;
            Printf.printf "  trace           %s (%d events)\n" path
              s.Obs.Profile.s_events);
        if profile then Format.printf "%a@?" Obs.Profile.pp s);
    ( Chaos.run_failures m <> [],
      fun () ->
        Harness.Report.make ~subcommand:"run" ~seed:(Some seed)
          ~params:
            [
              ("structure", J.Str structure);
              ("threads", J.Int threads);
              ("size", J.Int size);
              ("updates", J.Int updates);
              ("skewed", J.Bool skewed);
              ("machine", J.Str machine);
              ("ops", J.Int ops);
            ]
          [ (structure, m) ] )
  in
  Cmd.v
    (Cmd.info ~exits "run" ~doc:"Run one workload against one structure.")
    Term.(
      const run $ structure $ threads $ size $ updates $ skewed
      $ Cli.machine_arg $ ops $ seed $ trace $ profile $ report_arg)

(* ---------------- soak ---------------- *)

(* A bounded, deterministic soak sweep: the sampler of test/soak.ml at a
   narrower shape, runs-bounded instead of time-bounded so its output
   (and report) is reproducible. The unbounded wall-clock soak remains
   test/soak.exe. *)
let soak_cmd =
  let runs_arg =
    int_arg ~range:Harness.Range.positive "runs" 6
      "Number of randomized runs (default 6)."
  in
  let seed =
    seed_arg ~default:424242
      "Sweep seed (default 424242, the seed of the pin ledger's soak \
       rows): drives structure, topology, thread-count and workload \
       sampling."
  in
  let run runs seed report =
    main report @@ fun () ->
    let module Soak = Harness.Soak in
    let rng = Harness.Rng.create seed in
    let failures = ref 0 in
    let measured = ref [] in
    with_host_time
      (Printf.sprintf "soak %d runs" runs)
      (fun _ -> 0)
      (fun () ->
        for i = 1 to runs do
          let c = Soak.sample Soak.bounded rng in
          let m = Soak.run c in
          if Chaos.run_failures m <> [] then incr failures;
          Printf.printf "%d %s -> ops=%d mops=%.6f valid=%b complete=%b\n" i
            (Soak.describe c) m.Harness.Runner.ops m.Harness.Runner.mops
            m.Harness.Runner.valid
            (not (Harness.Runner.aborted m));
          let id = Harness.Registry.id c.Soak.structure in
          measured := (Printf.sprintf "soak/%02d/%s" i id, m) :: !measured
        done);
    Printf.printf "soak finished: %d runs, %d failures\n" runs !failures;
    ( !failures > 0,
      fun () ->
        Harness.Report.make ~subcommand:"soak" ~seed:(Some seed)
          ~params:[ ("runs", J.Int runs) ]
          (List.rev !measured) )
  in
  Cmd.v
    (Cmd.info ~exits "soak"
       ~doc:
         "Bounded deterministic soak sweep: randomized structures, \
          topologies and workloads from one seed, invariant-checked; \
          reproducible, unlike the time-bounded test/soak.exe.")
    Term.(const run $ runs_arg $ seed $ report_arg)

(* ---------------- chaos ---------------- *)

let chaos_cmd =
  let runs =
    int_arg ~range:Harness.Range.positive "runs" 100 "Number of random trials."
  in
  let seed =
    seed_arg ~default:1
      "Fuzzing seed. Trial $(i,i) is drawn from seed + i*1000003, so a \
       (seed, runs) pair is byte-deterministic and any sub-range can be \
       re-fuzzed independently."
  in
  let structures =
    Arg.(
      value
      & opt (some string) None
      & info [ "structures" ] ~docv:"NAMES"
          ~doc:
            "Comma-separated structures to fuzz (default: one \
             representative per family and figure). Any registered \
             structure can be named, as $(b,optik_bench list) prints it, \
             e.g. list/harris,queue/ms-lf,skiplist/optik2.")
  in
  let quick =
    flag_arg "quick"
      "Restrict to the fast representatives (no skip lists, no BST)."
  in
  let replay =
    replay_arg
      "Replay one trial string (as emitted in a repro line) instead of \
       fuzzing, and print its verdict."
  in
  let run runs seed structures quick replay jobs report =
    main report @@ fun () ->
    let entries =
      Chaos.select
        (match structures with
        | None -> if quick then Chaos.quick_names else Chaos.default_names
        | Some s -> String.split_on_char ',' s |> List.map String.trim)
    in
    let family = Chaos.sets entries in
    let trials = match replay with Some s -> Replay s | None -> Fuzz runs in
    trial_stream ~subcommand:"chaos" ~seed
      ~params:
        [
          ("runs", J.Int runs);
          ("quick", J.Bool quick);
          ("structures", match structures with None -> J.Null | Some s -> J.Str s);
          ("replay", match replay with None -> J.Null | Some s -> J.Str s);
        ]
      ~jobs
      (family :> (module Chaos.TRIAL))
      trials
  in
  Cmd.v
    (Cmd.info ~exits "chaos"
       ~doc:
         "Randomized fault/schedule fuzzing over the registry structures, \
          with crash-aware linearizability, liveness and invariant oracles, \
          and counterexample shrinking.")
    Term.(
      const run $ runs $ seed $ structures $ quick $ replay $ jobs_arg
      $ report_arg)

(* ---------------- kv and txn ---------------- *)

(* The service runs print their measurement the same way. *)
let print_latencies (m : Harness.Runner.measurement) =
  Array.iteri
    (fun i cls ->
      let l = m.Harness.Runner.lat.(i) in
      if l.Harness.Pstats.n > 0 then
        Printf.printf "  %-8s n=%-6d p50=%-8d p95=%-8d p99=%-8d p999=%d cycles\n"
          cls l.Harness.Pstats.n l.Harness.Pstats.p50 l.Harness.Pstats.p95
          l.Harness.Pstats.p99 l.Harness.Pstats.p999)
    m.Harness.Runner.lat_classes;
  List.iter
    (fun (k, v) -> Printf.printf "  counter %-24s %d\n" k v)
    m.Harness.Runner.counters

let trial_params = function
  | Fuzz n -> [ ("fuzz", J.Int n) ]
  | Replay s -> [ ("replay", J.Str s) ]

let kv_cmd =
  let rolling =
    int_arg ~range:Harness.Range.non_negative "rolling" 0
      "Roll $(docv) crashes round-robin over the shard pairs \
       (alternating primary/replica per round). More crashes than \
       shards is legal under the re-armable warranty: each pair \
       absorbs one crash per completed resync, so such plans need a \
       finite --down-for and a --stagger spanning the resync window. \
       Ignored when --faults is given."
  in
  let down_for =
    int_arg ~range:Harness.Range.non_negative "down-for" ~docv:"CYCLES"
      120_000 "How long each rolling crash keeps the store down."
  in
  let stagger =
    int_arg ~range:Harness.Range.non_negative "stagger" 0
      "Requests between rolling crashes (default: ops / (rolling+1))."
  in
  let trials =
    trials_arg
      ~fuzz_doc:
        "Instead of one run: fuzz $(docv) random KV trials (shard crashes, \
         client crashes, stalls, storms) under the service oracles, \
         shrinking failures to one-line repros."
      ~replay_doc:"Replay one KV trial string (as emitted by --fuzz)."
  in
  let run cfg rolling down_for stagger trials jobs report attrib timeline =
    main report @@ fun () ->
    let (cfg : Kv.config) = cfg () in
    let seed = cfg.seed and machine = cfg.topo.Sim.Topology.name in
    ignore (Kv.rep_ops cfg.rep : (module Harness.Registry.SET_OPS));
    match trials with
    | Some t ->
        trial_stream ~subcommand:"kv" ~seed ~params:(trial_params t) ~jobs
          (module Chaos.Kv_trial)
          t
    | None ->
        (* The rolling plan divides by the shard count, so the config is
           checked before the plan is built. *)
        Kv.check cfg;
        let plan =
          match cfg.plan with
          | None when rolling > 0 ->
              let stagger =
                if stagger > 0 then stagger else max 1 (cfg.ops / (rolling + 1))
              in
              Some
                (Kv.rolling_plan ~seed ~nshards:cfg.nshards ~count:rolling
                   ~down_for ~stagger ())
          | plan -> plan
        in
        let cfg = { cfg with plan } and w = cfg.workload and p = cfg.policy in
        let record_obs = attrib || timeline <> None in
        let m, r =
          with_host_time
            (Printf.sprintf "kv %s" cfg.rep)
            (fun (m, _) -> m.Harness.Runner.ops)
            (fun () -> Kv.run ~record_obs cfg)
        in
        let failures = Chaos.Kv_trial.judge cfg (m, r) in
        Printf.printf
          "kv/%s on %s, %d shards (primary+replica), %d clients, %d requests, \
           %d%% reads %d%% scans, seed %d\n"
          cfg.rep machine cfg.nshards cfg.threads cfg.ops w.read_pct w.scan_pct
          seed;
        Printf.printf "  faults          %s\n"
          (match plan with
          | None -> "none"
          | Some p -> Sim.Fault.to_string p);
        print_aborted m;
        Printf.printf "  throughput      %.3f Mreq/s (simulated)\n"
          m.Harness.Runner.mops;
        Printf.printf "  acked writes    %d (%.1f%% of requests)\n"
          r.Kv.res_oracle.Kv.acked_writes m.Harness.Runner.eff_update_pct;
        let ctr name =
          Option.value ~default:0
            (List.assoc_opt name m.Harness.Runner.counters)
        in
        Printf.printf
          "  retries %d  timeouts %d  sheds %d  failovers %d  backoff-cycles \
           %d\n"
          (ctr "kv.retries") (ctr "kv.timeouts") (ctr "kv.sheds")
          (ctr "kv.failovers")
          (ctr "kv.backoff-cycles");
        if ctr "kv.resyncs" > 0 || ctr "kv.resync-aborts" > 0 then
          Printf.printf "  resyncs %d  aborted %d  re-arms %d\n"
            (ctr "kv.resyncs")
            (ctr "kv.resync-aborts")
            (ctr "kv.rearms");
        print_latencies m;
        Array.iteri
          (fun i (p, rr) ->
            let s = r.Kv.res_shard_lat.(i) in
            Printf.printf
              "  shard s%-2d       primary=%-6d replica=%-6d p99=%-8d p999=%-8d \
               warranty=%s\n"
              i p rr s.Harness.Pstats.p99 s.Harness.Pstats.p999
              (Kv.warranty_name r.Kv.res_warranty.(i)))
          r.Kv.res_shard_sizes;
        if r.Kv.res_events <> [] then begin
          Printf.printf "  failover timeline:\n";
          List.iter (fun e -> Printf.printf "    %s\n" e) r.Kv.res_events
        end;
        Printf.printf "  %s\n"
          (Format.asprintf "%a" Kv.pp_oracle r.Kv.res_oracle);
        Chaos.report_failures Format.std_formatter failures;
        let trace_sections =
          trace_analysis ~timeline_file:timeline r.Kv.res_trace
        in
        ( failures <> [],
          fun () ->
            Harness.Report.make ~subcommand:"kv" ~seed:(Some seed)
              ~params:
                [
                  ("rep", J.Str cfg.rep);
                  ("shards", J.Int cfg.nshards);
                  ("threads", J.Int cfg.threads);
                  ("ops", J.Int cfg.ops);
                  ("keys", J.Int w.keys);
                  ("read", J.Int w.read_pct);
                  ("scan", J.Int w.scan_pct);
                  ("machine", J.Str machine);
                  ( "faults",
                    match plan with
                    | None -> J.Null
                    | Some p -> J.Str (Sim.Fault.to_string p) );
                  ("broken_retry", J.Bool (not p.idempotent));
                  ("no_replication", J.Bool (not p.replicate));
                  ("degraded_for", J.Int p.degraded_cycles);
                  ("resync_batch", J.Int p.resync_batch);
                  ( "broken_resync",
                    if not p.resync_dual_write then J.Str "dual-write"
                    else if not p.resync_fencing then J.Str "fencing"
                    else J.Null );
                ]
              ~sections:(Kv.report_section cfg r :: trace_sections)
              [ ("kv/" ^ cfg.rep, m) ] )
  in
  Cmd.v
    (Cmd.info ~exits "kv"
       ~doc:
         "Sharded KV service over the registry structures: open-loop zipfian \
          clients, deadlines, retry/backoff, replica failover, scan \
          shedding, rolling shard crashes, and the acknowledged-write \
          exactly-once oracle.")
    Term.(
      const run $ Cli.kv $ rolling $ down_for $ stagger $ trials $ jobs_arg
      $ report_arg $ attrib_arg $ timeline_arg)

let txn_cmd =
  let module W = Txn.Workload in
  let trials =
    trials_arg
      ~fuzz_doc:
        "Instead of one run: fuzz $(docv) random transaction trials (reps, \
         topologies, contention levels) under the strict serializability \
         oracle, shrinking failures to one-line repros."
      ~replay_doc:"Replay one transaction trial string (as emitted by --fuzz)."
  in
  let run cfg trials jobs report attrib timeline =
    main report @@ fun () ->
    let (cfg : W.config) = cfg () in
    let machine = cfg.topo.Sim.Topology.name in
    ignore (W.rep cfg.rep : (module Harness.Registry.SET_OPS) * _ * int);
    match trials with
    | Some t ->
        trial_stream ~subcommand:"txn" ~seed:cfg.seed ~params:(trial_params t)
          ~jobs
          (module Chaos.Txn_trial)
          t
    | None ->
        let record_obs = attrib || timeline <> None in
        let m, r =
          with_host_time
            (Printf.sprintf "txn %s" cfg.rep)
            (fun (m, _) -> m.Harness.Runner.ops)
            (fun () -> W.run ~record_obs cfg)
        in
        let failures = Chaos.Txn_trial.judge cfg (m, r) in
        Printf.printf
          "txn/%s on %s, %d objects x %d accounts, %d threads, %d \
           transactions, %d%% transfers, seed %d%s\n"
          cfg.rep machine cfg.objects cfg.accounts cfg.threads cfg.ops
          cfg.transfer_pct cfg.seed
          (if cfg.broken then " (BROKEN commit protocol)" else "");
        print_aborted m;
        Printf.printf "  throughput      %.3f Mtxn/s (simulated)\n"
          m.Harness.Runner.mops;
        print_latencies m;
        Printf.printf "%s\n" (Format.asprintf "%a" W.pp_result r);
        Chaos.report_failures Format.std_formatter failures;
        let trace_sections =
          trace_analysis ~timeline_file:timeline r.W.res_trace
        in
        ( failures <> [],
          fun () ->
            Harness.Report.make ~subcommand:"txn" ~seed:(Some cfg.seed)
              ~params:
                [
                  ("rep", J.Str cfg.rep);
                  ("objects", J.Int cfg.objects);
                  ("accounts", J.Int cfg.accounts);
                  ("threads", J.Int cfg.threads);
                  ("ops", J.Int cfg.ops);
                  ("transfer_pct", J.Int cfg.transfer_pct);
                  ("machine", J.Str machine);
                  ("broken", J.Bool cfg.broken);
                ]
              ~sections:(W.report_section cfg r :: trace_sections)
              [ ("txn/" ^ cfg.rep, m) ] )
  in
  Cmd.v
    (Cmd.info ~exits "txn"
       ~doc:
         "Multi-key optimistic transactions over the registry structures: \
          contended bank transfers with read-set validation and sorted \
          lock-set commit, abort-free snapshot audits, and a strict \
          serializability oracle over the committed history.")
    Term.(
      const run $ Cli.txn $ trials $ jobs_arg $ report_arg $ attrib_arg
      $ timeline_arg)

(* ---------------- hostperf ---------------- *)

let hostperf_cmd =
  let out_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:
            "Write the results as line-oriented JSON to $(docv) (the format \
             of the committed BENCH_sim.json baseline).")
  in
  let baseline =
    Arg.(
      value
      & opt (some string) None
      & info [ "baseline" ] ~docv:"FILE"
          ~doc:
            "Compare against a committed BENCH_sim.json and exit non-zero if \
             any workload's simulated-ops/host-sec or accesses/host-sec \
             falls more than the tolerance below it. The simulated counts \
             are not compared here: test/ledger.txt pins them exactly.")
  in
  let tolerance =
    Arg.(
      value & opt float 20.
      & info [ "tolerance" ] ~docv:"PCT"
          ~doc:"Allowed regression vs the baseline, percent in [0,100] (default 20).")
  in
  let repeats =
    int_arg ~range:Harness.Range.positive "repeats" 3
      "Run each workload $(docv) times and keep the best host time \
       (the simulated side is identical every repeat)."
  in
  let run out_file baseline tolerance repeats report =
    main report @@ fun () ->
    if not (tolerance >= 0. && tolerance <= 100.) then
      Harness.Range.fail "hostperf" "tolerance must be in [0,100], got %g"
        tolerance;
    let results = Host_bench.run ~repeats () in
    Format.printf "%a@?" Host_bench.pp_table results;
    (match out_file with
    | None -> ()
    | Some path ->
        Host_bench.write_json path results;
        Printf.eprintf "[host] wrote %s\n%!" path);
    let failed =
      match baseline with
      | None -> false
      | Some path ->
          let content =
            try In_channel.with_open_text path In_channel.input_all
            with Sys_error msg -> invalid_arg ("cannot read baseline: " ^ msg)
          in
          if Host_bench.parse_baseline content = [] then
            invalid_arg (Printf.sprintf "baseline %s contains no results" path);
          let regressions =
            Host_bench.check_baseline ~baseline:content ~tolerance_pct:tolerance
              results
          in
          if regressions = [] then
            Printf.printf "hostperf: within %.0f%% of baseline %s\n" tolerance
              path;
          List.iter
            (fun g ->
              Printf.eprintf
                "hostperf REGRESSION: %s %s = %.0f, below floor %.0f (baseline \
                 - %.0f%%)\n"
                g.Host_bench.g_name g.Host_bench.g_metric g.Host_bench.g_measured
                g.Host_bench.g_floor tolerance)
            regressions;
          regressions <> []
    in
    (* Only the simulated side of hostperf is deterministic; host seconds
       stay out of the report (they live in --out / stderr). *)
    ( failed,
      fun () ->
        J.make ~subcommand:"hostperf" ~seed:None
          ~params:[ ("repeats", J.Int repeats) ]
          ~runs:
            (List.map
               (fun (r : Host_bench.result) ->
                 J.Obj
                   [
                     ("id", J.Str r.Host_bench.r_name);
                     ("name", J.Str r.Host_bench.r_name);
                     ("threads", J.Int r.Host_bench.r_threads);
                     ( "metrics",
                       J.Obj
                         [
                           ("ops", J.Int r.Host_bench.r_ops);
                           ("accesses", J.Int r.Host_bench.r_accesses);
                           ("events", J.Int r.Host_bench.r_events);
                         ] );
                   ])
               results)
          ~sections:[] )
  in
  Cmd.v
    (Cmd.info ~exits "hostperf"
       ~doc:
         "Measure engine throughput in simulated-ops per host-second over \
          fixed representative workloads, optionally gating against a \
          committed baseline.")
    Term.(const run $ out_file $ baseline $ tolerance $ repeats $ report_arg)

(* ---------------- diff ---------------- *)

let diff_cmd =
  let file_a =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"A.json" ~doc:"Baseline report file.")
  in
  let file_b =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"B.json" ~doc:"Report file to compare against A.")
  in
  let top =
    int_arg "top" ~docv:"K" 10 "How many top regressions to rank (default 10)."
  in
  let run file_a file_b top =
    main None @@ fun () ->
    let fail fmt = Printf.ksprintf invalid_arg fmt in
    let load label path =
      match J.read_file path with
      | Error e -> fail "cannot parse %s (%s): %s" label path e
      | Ok j -> (
          match J.validate j with
          | Ok () -> j
          | Error e -> fail "report %s (%s) failed validation: %s" label path e)
    in
    let a = load "A" file_a and b = load "B" file_b in
    match J.diff ~top a b with
    | Ok text ->
        print_string text;
        (false, fun () -> J.Null)
    | Error e -> fail "diff failed: %s" e
  in
  Cmd.v
    (Cmd.info ~exits "diff"
       ~doc:
         "Compare two run reports (seed-vs-seed, structure-vs-structure, \
          commit-vs-commit): deterministic per-metric deltas, top-K \
          regressions, and hot-line stall attribution when both reports \
          carry profiles.")
    Term.(const run $ file_a $ file_b $ top)

(* ---------------- probes ---------------- *)

let probes_cmd =
  let run () =
    (* Probe handles are created lazily by the subsystems that own them
       (a process that never runs a transaction registers no txn.*
       counters), so touch each service once: building a KV service and a
       transaction manager registers their probes without running a
       simulation. Module-level handles (scheduler, runner, structure
       internals) registered when their modules loaded. *)
    ignore (Kv.create Kv.default_config : Kv.t);
    ignore (Txn.Workload.T.create ());
    List.iter
      (fun (name, _) -> Printf.printf "counter    %s\n" name)
      (Sim.Sim_rt.Probe.all ())
  in
  Cmd.v
    (Cmd.info ~exits "probes"
       ~doc:
         "List every registered probe as 'counter  <name>'. The registry \
          rejects a name outside the <owner>.<metric> form when it is \
          registered.")
    Term.(const run $ const ())

(* ---------------- list ---------------- *)

let list_cmd =
  let run () =
    List.iter
      (fun (e : Harness.Registry.entry) ->
        Printf.printf "%-22s %s\n" (Harness.Registry.id e)
          (Harness.Registry.guarantee_name e.guarantee))
      Harness.Registry.Sim_backend.entries;
    Printf.printf "experiments: %s\n"
      (String.concat ", " Figures.Experiments.all_ids)
  in
  Cmd.v
    (Cmd.info ~exits "list" ~doc:"List available structures and experiments.")
    Term.(const run $ const ())

let () =
  let info =
    Cmd.info ~exits "optik_bench" ~version:"1.0"
      ~doc:"OPTIK (PPoPP'16) reproduction: benchmarks and ad-hoc runs"
  in
  let cmd =
    Cmd.group info
      [
        figures_cmd;
        run_cmd;
        soak_cmd;
        chaos_cmd;
        kv_cmd;
        txn_cmd;
        hostperf_cmd;
        diff_cmd;
        probes_cmd;
        list_cmd;
      ]
  in
  exit
    (match Cmd.eval_value cmd with
    | Ok (`Ok () | `Help | `Version) -> 0
    | Error (`Parse | `Term) -> 2
    | Error `Exn -> 125)
