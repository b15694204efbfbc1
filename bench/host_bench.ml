(** Host-throughput benchmark for the simulator engine
    ([optik_bench hostperf]).

    Every figure sweep, chaos trial and soak iteration is bottlenecked by
    how many simulated memory accesses per {e host} second [lib/sim] can
    retire, so this module tracks that number directly: it runs a fixed
    set of representative workloads, measures host wall-clock per run
    (best of [repeats], to shed scheduler noise), and reports
    simulated-ops, simulated-accesses and scheduler-events per
    host-second. The simulated side of every run is fully deterministic —
    identical seeds give identical ops/accesses/events — only the host
    seconds vary between machines and runs.

    Results serialize to [BENCH_sim.json], one result object per line;
    the committed baseline is read back with {!Obs.Report.parse} for the
    CI tolerance gate. *)

module R = Harness.Registry
module Runner = Harness.Runner

type result = {
  r_name : string;  (** spec name, stable across engine versions *)
  r_threads : int;
  r_ops : int;  (** benchmark operations completed (simulated) *)
  r_accesses : int;  (** simulated memory accesses: reads+writes+cas+faa *)
  r_events : int;  (** scheduler (slow-path) events *)
  r_host_s : float;  (** best-of-repeats host seconds for the run *)
}

let ops_per_hs r = float_of_int r.r_ops /. r.r_host_s
let accesses_per_hs r = float_of_int r.r_accesses /. r.r_host_s
let events_per_hs r = float_of_int r.r_events /. r.r_host_s

(* ------------------------------------------------------------------ *)
(* Workload specs                                                      *)

type spec = { s_name : string; s_run : unit -> result }

(* The simulated counts of a finished run; [r_host_s] is the time it took
   to simulate. *)
let of_measurement name (m : Runner.measurement) =
  {
    r_name = name;
    r_threads = m.threads;
    r_ops = m.ops;
    r_accesses = m.reads + m.writes + m.cas + m.faa;
    r_events = m.events;
    r_host_s = m.host_s;
  }

let set_spec name family structure ~topology ~nthreads ~ops ~size ~updates
    ~capacity =
  {
    s_name = name;
    s_run =
      (fun () ->
        let (module S : R.SET_OPS) = R.Sim_backend.find_named family structure in
        let capacity = if capacity then Some (2 * size) else None in
        let w =
          Runner.uniform_workload ?capacity ~init_size:size ~update_pct:updates ()
        in
        Dstruct.Sl_common.reset_states ();
        of_measurement name
          (Runner.run_set_sim ~topology ~nthreads ~ops ~seed:7 (module S) w));
  }

(* Four representative structures across the engine's regimes:
   - a pointer-chasing traversal workload (linked list) that lives on the
     inline read fast path;
   - a shallow-structure, high-update workload (hash table) dominated by
     RMW pricing and line ownership;
   - a tall-structure workload (skip list) mixing long traversals with
     multi-line updates;
   - the chaos-smoke shape: a tiny, heavily contended structure on a
     small flat machine with 2x oversubscription, which exercises the
     scheduling-window and suspension machinery the fuzzer leans on. *)
let specs =
  [
    set_spec "list/optik" R.Sim_backend.lists "optik" ~topology:Sim.Topology.xeon
      ~nthreads:8 ~ops:60_000 ~size:512 ~updates:40 ~capacity:false;
    set_spec "hashtable/optik-gl" R.Sim_backend.hashtables "optik-gl"
      ~topology:Sim.Topology.xeon ~nthreads:16 ~ops:120_000 ~size:1024
      ~updates:40 ~capacity:true;
    set_spec "skiplist/optik2" R.Sim_backend.skiplists "optik2"
      ~topology:Sim.Topology.opteron ~nthreads:12 ~ops:40_000 ~size:1024
      ~updates:20 ~capacity:false;
    set_spec "chaos-smoke" R.Sim_backend.lists "optik"
      ~topology:(Sim.Topology.uniform ~n:4 ())
      ~nthreads:8 ~ops:60_000 ~size:48 ~updates:50 ~capacity:false;
    (* The KV service end-to-end: shard routing, health refresh,
       retry/backoff and the history log on top of the store accesses —
       tracks the service-layer overhead, not just the structures. *)
    {
      s_name = "kv/ht-optik";
      s_run =
        (fun () ->
          let cfg =
            {
              Kv.default_config with
              Kv.ops = 12_000;
              seed = 7;
              plan =
                Some
                  (Kv.rolling_plan ~seed:7 ~nshards:4 ~count:2
                     ~down_for:60_000 ~stagger:4_000 ());
            }
          in
          of_measurement "kv/ht-optik" (fst (Kv.run cfg)));
    };
    (* The multi-key transaction manager end-to-end: read-set tracking,
       commit-time validation and ticket ordering on top of the store
       accesses. *)
    {
      s_name = "txn/bank-ll";
      s_run =
        (fun () ->
          let cfg =
            {
              Txn.Workload.default_config with
              Txn.Workload.ops = 8_000;
              seed = 7;
            }
          in
          of_measurement "txn/bank-ll" (fst (Txn.Workload.run cfg)));
    };
    (* Capacity: 10_000 virtual threads hammering 64 striped counters on
       a small flat machine. No set semantics — this row isolates the
       per-thread engine costs (arena records, line table, event heap)
       that the capacity push targets; it is the gate that a 10k-thread
       run stays cheap. *)
    {
      s_name = "cap/faa-10k";
      s_run =
        (fun () ->
          let topology = Sim.Topology.uniform ~n:4 () in
          let group = Rt.Group.fresh () in
          let locs =
            Array.init 64 (fun _ -> Sim.Sched.loc_packed ~group 0)
          in
          of_measurement "cap/faa-10k"
            (Runner.simulate ~name:"cap/faa-10k" ~topology ~nthreads:10_000
               ~ops:40_000 ~seed:0 ~classes:[||] (fun _ tid ->
                 let i = ref tid in
                 while not (Sim.Sched.stop_requested ()) do
                   ignore (Sim.Sched.faa locs.(!i land 63) 1);
                   i := !i + 7;
                   Sim.Sched.tick ();
                   Sim.Sched.work 32
                 done)));
    };
    (* The fuzz driver end-to-end: spawn worker domains, reset each
       world, run a small range of quick chaos trials per task. Ops =
       trials, so ops/host-sec is trials/sec — the number the fleet
       exists to multiply. Accesses and events are 0 (per-domain probe
       worlds are torn down with the workers), so only the ops rate is
       gated. *)
    {
      s_name = "fleet/chaos-quick";
      s_run =
        (fun () ->
          let trials = 12 and seed = 7 in
          let jobs = min 4 (Harness.Fleet.default_jobs ()) in
          let host0 = Unix.gettimeofday () in
          ignore
            (Chaos.fuzz ~jobs
               (Chaos.sets Chaos.quick_entries :> (module Chaos.TRIAL))
               ~runs:trials ~seed);
          {
            r_name = "fleet/chaos-quick";
            r_threads = jobs;
            r_ops = trials;
            r_accesses = 0;
            r_events = 0;
            r_host_s = Unix.gettimeofday () -. host0;
          });
    };
  ]

(* Best of [repeats] host times; the simulated side is identical every
   repeat. *)
let measure ?(repeats = 3) (s : spec) =
  let rec go n (last : result) best =
    if n <= 1 then { last with r_host_s = Float.max 1e-9 best }
    else
      let r = s.s_run () in
      go (n - 1) r (Float.min best r.r_host_s)
  in
  let first = s.s_run () in
  go repeats first first.r_host_s

let run ?(repeats = 3) () = List.map (measure ~repeats) specs

(* ------------------------------------------------------------------ *)
(* JSON (one result per line)                                          *)

let result_line r =
  Printf.sprintf
    "  {\"name\": %S, \"threads\": %d, \"ops\": %d, \"accesses\": %d, \
     \"events\": %d, \"host_s\": %.6f, \"ops_per_hs\": %.1f, \
     \"accesses_per_hs\": %.1f, \"events_per_hs\": %.1f}"
    r.r_name r.r_threads r.r_ops r.r_accesses r.r_events r.r_host_s
    (ops_per_hs r) (accesses_per_hs r) (events_per_hs r)

let to_json results =
  String.concat "\n"
    ([ "{"; "  \"schema\": \"optik-hostperf-v1\","; "  \"results\": [" ]
    @ [ String.concat ",\n" (List.map result_line results) ]
    @ [ "  ]"; "}"; "" ])

let write_json path results =
  let oc = open_out path in
  output_string oc (to_json results);
  close_out oc

(* ------------------------------------------------------------------ *)
(* Baseline comparison                                                 *)

(** Parse a committed [BENCH_sim.json] into
    [(name, ops_per_hs, accesses_per_hs)] rows; rows missing a field are
    skipped, and unparsable content has none. *)
let parse_baseline content =
  let module J = Obs.Report in
  let field k conv row = Option.bind (J.member k row) conv in
  let rows =
    match J.parse content with
    | Ok j -> Option.value ~default:[] (field "results" J.to_list j)
    | Error _ -> []
  in
  List.filter_map
    (fun row ->
      match
        ( field "name" J.to_str row,
          field "ops_per_hs" J.to_number row,
          field "accesses_per_hs" J.to_number row )
      with
      | Some name, Some ops, Some acc -> Some (name, ops, acc)
      | _ -> None)
    rows

type regression = {
  g_name : string;
  g_metric : string;
  g_measured : float;
  g_floor : float;  (** baseline * (1 - tolerance) *)
}

(** Compare measured results against a baseline file's contents: any spec
    whose simulated-ops/host-sec or accesses/host-sec falls more than
    [tolerance_pct] percent below the committed number is a regression.
    Baseline specs missing from the measured set are ignored (removed
    workloads), measured specs missing from the baseline pass (new
    workloads get their numbers committed on the next baseline refresh). *)
let check_baseline ~baseline ~tolerance_pct results =
  let base = parse_baseline baseline in
  let frac = 1. -. (tolerance_pct /. 100.) in
  List.concat_map
    (fun r ->
      match List.find_opt (fun (n, _, _) -> n = r.r_name) base with
      | None -> []
      | Some (_, b_ops, b_acc) ->
          let check metric measured b =
            let floor = b *. frac in
            if measured < floor then
              [ { g_name = r.r_name; g_metric = metric; g_measured = measured; g_floor = floor } ]
            else []
          in
          check "ops_per_hs" (ops_per_hs r) b_ops
          @ check "accesses_per_hs" (accesses_per_hs r) b_acc)
    results

let pp_table ppf results =
  Format.fprintf ppf "%-22s %3s %12s %12s %10s %9s@\n" "spec" "thr"
    "sim-ops/hs" "accesses/hs" "events/hs" "host-s";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-22s %3d %12.0f %12.0f %10.0f %9.4f@\n" r.r_name
        r.r_threads (ops_per_hs r) (accesses_per_hs r) (events_per_hs r)
        r.r_host_s)
    results
