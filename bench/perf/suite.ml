(** The [bench/perf] benchmark: workloads, runs, metrics and correctness
    gates. [perf.ml] is the command line around it; the test calls it
    directly.

    Every number is taken from outside the layers, by timing calls into
    their public functions: the set workloads drive the registry
    structures with the same loop as {!Harness.Runner.run_set_sim}, the
    service workloads call [Kv.run] and [Txn.Workload.run]. End-to-end
    metrics come only from untraced runs. Per-layer metrics come from a
    traced run (the {!Lens} for the set workloads, the journal and
    {!Obs.Attrib} for [kv] and [txn]) that must reproduce its untraced
    twin's simulated statistics exactly. *)

module R = Harness.Registry
module Rng = Harness.Rng
module J = Obs.Report

let topology = Sim.Topology.xeon

(* ------------------------------------------------------------------ *)
(* Host clock, statistics                                              *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let since t0 = float_of_int (now_ns () - t0) *. 1e-9

let median = function
  | [] -> 0.
  | xs ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(** Latency of one class of operation, in cycles (simulated runs) or
    nanoseconds (native runs): {!Harness.Pstats} percentiles, as every
    layer of the repository reports them. Simulated set runs add a
    sub-cycle share (see {!percentile}). *)
type lat = { n : int; p50 : float; p99 : float }

let lat_of_summary (s : Harness.Pstats.summary) =
  { n = s.Harness.Pstats.n; p50 = float_of_int s.p50; p99 = float_of_int s.p99 }

let lat_of collectors = lat_of_summary (Harness.Pstats.summarize (Array.to_list collectors))

(** Percentile [q] (0.5 or 0.99) of sorted simulated latencies, in
    cycles: the sample {!Harness.Pstats} reports, by its rank rules, plus
    the share of the samples tied at that count which lie below rank
    [q * n], each integer count [v] read as spread over [\[v, v+1\]]. The
    value is at most one cycle above the [Pstats] percentile that [kv]
    and [txn] runs report; the fraction keeps a percentile that lands on
    a heavily tied count moving with the sample (every [map-hot] run's
    median search takes exactly 129 cycles, so a whole-cycle median would
    read the same time at every seed). *)
let percentile (s : int array) q =
  let n = Array.length s in
  if n = 0 then 0.
  else begin
    let i =
      if q <= 0.95 then int_of_float (q *. float_of_int (n - 1))
      else min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)
    in
    let v = s.(i) and first = ref i and last = ref i in
    while !first > 0 && s.(!first - 1) = v do decr first done;
    while !last < n - 1 && s.(!last + 1) = v do incr last done;
    float_of_int v
    +. Float.min 1.
         ((q *. float_of_int n -. float_of_int !first) /. float_of_int (!last - !first + 1))
  end

(** Latencies of one class of simulated set operation, in an array sized
    up front so that recording never allocates inside the measured
    window. *)
type samples = { a : int array; mutable len : int }

let samples cap = { a = Array.make cap 0; len = 0 }

let record s v =
  s.a.(s.len) <- v;
  s.len <- s.len + 1

let lat_of_samples s =
  let sorted = Array.sub s.a 0 s.len in
  Array.sort Int.compare sorted;
  { n = s.len; p50 = percentile sorted 0.5; p99 = percentile sorted 0.99 }

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)

type set_spec = {
  sim : (module R.SET_OPS);
  lensed : (module R.SET_OPS);  (** the same structure over {!Lens.Rt} *)
  native : (module R.SET_OPS);
  init_size : int;  (** keys drawn uniformly from [1 .. 2 * init_size] *)
  capacity : int option;
  update_pct : int;  (** split evenly between inserts and deletes *)
  threads : int;
  ops : int;
  native_ops : int;  (** per domain, per native run *)
}

type kind = Set of set_spec | Kv | Txn

type workload = {
  name : string;
  kind : kind;
  run_s : float;
      (** host seconds one untraced run takes on the 2-core x86 host the
          benchmark was sized on: [--seconds S] makes the untraced step
          [ceil (S / run_s)] runs, a count fixed by [S] alone *)
}

(* Every put inserts a fresh element, so the stores grow with the run and
   tail latency with them: the length stays fixed, and steadiness comes
   from more sub-seeds instead. *)
let kv_requests = 24_000

(* ~19.8 Mreq/s offered, near the knee [kv.max_mreq_s] finds, so that
   queueing behind a slow request shows in the latencies. *)
let kv_gap = 1_000

let txn_ops = 16_000

let workloads =
  [
    {
      name = "list-read";
      kind =
        Set
          {
            sim = R.Sim_backend.ll_optik;
            lensed = Lens.Registry.ll_optik;
            native = R.Native.ll_optik;
            init_size = 512;
            capacity = None;
            update_pct = 20;
            threads = 20;
            ops = 150_000;
            native_ops = 250_000;
          };
      run_s = 1.8;
    };
    {
      name = "map-hot";
      kind =
        Set
          {
            sim = R.Sim_backend.map_optik;
            lensed = Lens.Registry.map_optik;
            native = R.Native.map_optik;
            init_size = 64;
            capacity = Some 128;
            update_pct = 80;
            threads = 20;
            ops = 150_000;
            native_ops = 1_200_000;
          };
      run_s = 1.6;
    };
    { name = "kv-zipf"; kind = Kv; run_s = 0.45 };
    { name = "txn-bank"; kind = Txn; run_s = 2.4 };
  ]

let workload_names = List.map (fun w -> w.name) workloads
let find_workload name = List.find_opt (fun w -> String.equal w.name name) workloads

(** Seed of run [i] of a step: run 0 runs at the given seed itself. *)
let sub_seed seed i = seed + (i * 100_003)

(* ------------------------------------------------------------------ *)
(* Runs                                                                *)

(** One simulated run, as seen from outside. *)
type run = {
  cycles : int;  (** simulated wall-clock cycles *)
  ops : int;
  accesses : int;  (** reads + writes + CAS + FAA *)
  events : int;
  cas : int;
  cas_failed : int;
  host_s : float;  (** host time of the measured window *)
  setup_s : float;  (** host time of the rest: build, prefill, checks *)
  alloc_words : float;  (** minor words allocated in the measured window *)
  reads : lat;
  updates : lat;
  failed : int;  (** requests that timed out or were shed *)
  verdict : (unit, string) result;
  layers : (string * float * int) list;
      (** traced runs only: per-layer metric, value and its base *)
}

(** The simulated statistics a traced run must reproduce exactly. *)
let fingerprint r = (r.cycles, r.ops, r.accesses, r.events, r.cas, r.cas_failed)

let pp_fingerprint r =
  Printf.sprintf "cycles=%d ops=%d accesses=%d events=%d cas=%d cas_failed=%d"
    r.cycles r.ops r.accesses r.events r.cas r.cas_failed

let sim_mops r =
  float_of_int r.ops /. (float_of_int r.cycles /. (topology.Sim.Topology.ghz *. 1e9)) /. 1e6

let stats_fields (st : Sim.Sched.stats) =
  ( st.Sim.Sched.wall_cycles,
    st.ops,
    st.reads + st.writes + st.cas + st.faa,
    st.events,
    st.cas,
    st.cas_failed )

(* Fill to [init_size] distinct keys outside any simulation, from the
   same generator as [Harness.Runner]'s prefill. *)
let prefill (type a) (module S : R.SET_OPS with type t = a) (t : a) spec ~seed =
  let rng = Rng.create (seed + 7919) in
  let range = 2 * spec.init_size in
  let n = ref 0 and attempts = ref 0 in
  while !n < spec.init_size && !attempts < spec.init_size * 1000 do
    incr attempts;
    let k = 1 + Rng.below rng range in
    if S.insert t k k then incr n
  done;
  !n = spec.init_size

(* One iteration of the paper's loop, as [Harness.Runner] draws it: key
   first, then the operation. 0 = search, 1 = successful insert, 2 =
   successful delete, 3 = failed update. *)
let one_op (type a) (module S : R.SET_OPS with type t = a) (t : a) rng ~range
    ~update_pct =
  let key = 1 + Rng.below rng range in
  let p = Rng.below rng 100 in
  if p < update_pct / 2 then if S.insert t key key then 1 else 3
  else if p < update_pct then match S.delete t key with Some _ -> 2 | None -> 3
  else (ignore (S.search t key : int option); 0)

let set_check (type a) (module S : R.SET_OPS with type t = a) (t : a) spec
    ~prefilled ~inserted ~deleted =
  let size = S.size t and expected = spec.init_size + inserted - deleted in
  if not prefilled then Error "prefill did not reach the initial size"
  else if not (S.validate t) then Error (S.name ^ ": structure invariant broken")
  else if size <> expected then
    Error
      (Printf.sprintf "%s: size %d after the run, expected %d (%d + %d inserts - %d deletes)"
         S.name size expected spec.init_size inserted deleted)
  else Ok ()

let outcome_check = function
  | Harness.Runner.Complete -> Ok ()
  | Harness.Runner.Aborted rep -> Error ("run aborted: " ^ rep.Sim.Sched.r_reason)

let ( &&& ) a b = match a with Ok () -> b () | e -> e

let per base v = float_of_int v /. float_of_int (max 1 base)

(** A simulated set run. With [traced], the structure runs over the
    {!Lens} and the run carries the lens's per-layer split. *)
let set_run ~traced spec ~seed ~ops =
  let (module S : R.SET_OPS) = if traced then spec.lensed else spec.sim in
  let t0 = now_ns () in
  Dstruct.Sl_common.reset_states ();
  let t = match spec.capacity with Some capacity -> S.create ~capacity () | None -> S.create () in
  let prefilled = prefill (module S) t spec ~seed in
  let setup_before = since t0 in
  Sim.Sim_rt.Probe.reset_all ();
  let range = 2 * spec.init_size in
  (* each thread stops at the first op boundary past the target *)
  let reads = samples (ops + spec.threads) and updates = samples (ops + spec.threads) in
  let inserted = ref 0 and deleted = ref 0 in
  let tot = Lens.zero () and mismatches = ref 0 and op_cycles = ref 0 in
  let body tid =
    let rng = Rng.create ((seed * 65_599) + tid) in
    while not (Sim.Sched.stop_requested ()) do
      let t0 = Sim.Sched.now () in
      if traced then Lens.op_begin ();
      let cls = one_op (module S) t rng ~range ~update_pct:spec.update_pct in
      let t1 = Sim.Sched.now () in
      let d = t1 - t0 in
      if traced then begin
        let s = Lens.op_end () in
        if s.traverse + s.lock_wait + s.critical + s.restart <> d || s.traverse < 0
        then incr mismatches;
        tot.traverse <- tot.traverse + s.traverse;
        tot.lock_wait <- tot.lock_wait + s.lock_wait;
        tot.critical <- tot.critical + s.critical;
        tot.restart <- tot.restart + s.restart;
        tot.restarts <- tot.restarts + s.restarts;
        tot.acquires <- tot.acquires + s.acquires;
        op_cycles := !op_cycles + d
      end;
      (match cls with 1 -> incr inserted | 2 -> incr deleted | _ -> ());
      record (if cls = 0 then reads else updates) d;
      Sim.Sched.tick ();
      (* the short wait between iterations of [Harness.Runner] *)
      Sim.Sched.work (64 + Rng.below rng 64)
    done
  in
  if traced then Lens.arm ~nthreads:spec.threads;
  let minor0 = Gc.minor_words () in
  let h0 = now_ns () in
  let stats, outcome =
    Fun.protect ~finally:Lens.disarm (fun () ->
        Harness.Runner.run_guarded ~topology ~nthreads:spec.threads ~ops_target:ops body)
  in
  let host_s = since h0 in
  let alloc_words = Gc.minor_words () -. minor0 in
  let c0 = now_ns () in
  let verdict =
    outcome_check outcome &&& fun () ->
    set_check (module S) t spec ~prefilled ~inserted:!inserted ~deleted:!deleted &&& fun () ->
    if !mismatches > 0 then
      Error (Printf.sprintf "lens split differs from op cycles on %d ops" !mismatches)
    else Ok ()
  in
  let reads = lat_of_samples reads and updates = lat_of_samples updates in
  let cycles, ops, accesses, events, cas, cas_failed = stats_fields stats in
  let layers =
    if not traced then []
    else
      let fails =
        Option.value ~default:0 (List.assoc_opt "optik.trylock-fail" (Sim.Sim_rt.Probe.dump ()))
      in
      [
        ("dstruct.op_cycles", per ops !op_cycles, ops);
        ("dstruct.traverse_cycles", per ops tot.traverse, ops);
        ("dstruct.restarts", per ops tot.restarts, ops);
        ("dstruct.restart_cycles", per ops tot.restart, ops);
        ("optik.acquires", per ops tot.acquires, ops);
        ("optik.trylock_fail_frac", per (fails + tot.acquires) fails, fails + tot.acquires);
        ("optik.lock_wait_cycles", per ops tot.lock_wait, ops);
        ("optik.critical_cycles", per ops tot.critical, ops);
      ]
  in
  {
    cycles;
    ops;
    accesses;
    events;
    cas;
    cas_failed;
    host_s;
    setup_s = setup_before +. since c0;
    alloc_words;
    reads;
    updates;
    failed = 0;
    verdict;
    layers;
  }

let ctr (m : Harness.Runner.measurement) name =
  Option.value ~default:0 (List.assoc_opt name m.Harness.Runner.counters)

let measured_fields (m : Harness.Runner.measurement) =
  ( int_of_float (Float.round (m.wall_s *. topology.Sim.Topology.ghz *. 1e9)),
    m.ops,
    m.reads + m.writes + m.cas + m.faa,
    m.events,
    m.cas,
    m.cas_failed )

(* Per-request self cycles of each phase [Obs.Attrib] reports, keyed by
   the phase names given; every request's phases sum to its latency. *)
let phase_cycles record phases =
  let a = Obs.Attrib.analyze record in
  let n = List.length a.Obs.Attrib.reqs in
  List.map
    (fun (phase, metric) ->
      let total =
        List.fold_left
          (fun acc (q : Obs.Attrib.areq) ->
            acc + Option.value ~default:0 (List.assoc_opt phase q.a_phases))
          0 a.reqs
      in
      (metric, per n total, n))
    phases

let kv_phases =
  List.map
    (fun p -> (p, Printf.sprintf "kv.%s_cycles" p))
    [ "queue"; "store" ]

let txn_phases =
  [
    ("other", "txn.read_cycles");
    ("acquire", "txn.acquire_cycles");
    ("commit", "txn.commit_cycles");
    ("backoff", "txn.backoff_cycles");
  ]

(** The [kv-zipf] service: [ht-optik] stores, 4 primary+replica shards,
    8 open-loop clients, zipf 0.9 over 4096 keys, 70% get / 10% scan /
    20% put, hot-key storms on, flash-crowd bursts off, no faults. *)
let kv_config ~seed ~requests ~gap =
  {
    Kv.default_config with
    Kv.ops = requests;
    seed;
    workload = { Kv.default_workload with Kv.gap; burst_every = 0 };
  }

(** The gate every [kv] run must pass: a complete run, valid stores and
    the acknowledged-write oracle's service-level verdict. *)
let kv_verdict ((m : Harness.Runner.measurement), (r : Kv.result)) =
  outcome_check m.outcome &&& fun () ->
  if not m.valid then Error "kv: store invariant broken"
  else if not r.Kv.res_oracle.Kv.warranted_ok then
    Error (Format.asprintf "kv: %a" Kv.pp_oracle r.Kv.res_oracle)
  else Ok ()

let kv_run ~traced ?(gap = kv_gap) ~seed ~requests () =
  let cfg = kv_config ~seed ~requests ~gap in
  let minor0 = Gc.minor_words () in
  let t0 = now_ns () in
  let ((m, r) as res) = Kv.run ~record_obs:traced cfg in
  let total = since t0 in
  let alloc_words = Gc.minor_words () -. minor0 in
  let cycles, ops, accesses, events, cas, cas_failed = measured_fields m in
  let layers =
    match r.Kv.res_trace with
    | None -> []
    | Some record ->
        phase_cycles record kv_phases
        @ [
            ("kv.retries", per ops (ctr m "kv.retries"), ops);
            ("kv.shed_frac", per ops (ctr m "kv.sheds"), ops);
            ("kv.timeout_frac", per ops (ctr m "kv.timeouts"), ops);
          ]
  in
  {
    cycles;
    ops;
    accesses;
    events;
    cas;
    cas_failed;
    host_s = m.host_s;
    setup_s = total -. m.host_s;
    alloc_words;
    reads = lat_of_summary m.lat.(Kv.class_get);
    updates = lat_of_summary m.lat.(Kv.class_put);
    failed = ctr m "kv.timeouts" + ctr m "kv.sheds";
    verdict = kv_verdict res;
    layers;
  }

(** The [txn-bank] workload: [Txn.Workload]'s defaults (4 [ll-optik]
    objects of 16 accounts, 70% transfers, 30% snapshot audits, 8
    threads) at [ops] transactions. *)
let txn_config ~seed ~ops = { Txn.Workload.default_config with Txn.Workload.ops; seed }

(** The gate every [txn] run must pass: a complete run, valid objects and
    the strict-serializability oracle. *)
let txn_verdict ((m : Harness.Runner.measurement), (r : Txn.Workload.result)) =
  outcome_check m.outcome &&& fun () ->
  if not m.valid then Error "txn: object invariant broken"
  else if not r.Txn.Workload.res_oracle.Txn.Workload.ok then
    Error (Format.asprintf "txn: %a" Txn.Workload.pp_oracle r.res_oracle)
  else Ok ()

let txn_run ~traced ~seed ~ops =
  let minor0 = Gc.minor_words () in
  let t0 = now_ns () in
  let ((m, r) as res) = Txn.Workload.run ~record_obs:traced (txn_config ~seed ~ops) in
  let total = since t0 in
  let alloc_words = Gc.minor_words () -. minor0 in
  let cycles, ops, accesses, events, cas, cas_failed = measured_fields m in
  let layers =
    match r.Txn.Workload.res_trace with
    | None -> []
    | Some record ->
        let attempts = r.res_commits + r.res_aborts in
        phase_cycles record txn_phases
        @ [
            ("txn.abort_frac", per attempts r.res_aborts, attempts);
            ("txn.snapshot_retries", per r.res_snapshots r.res_snap_retries, r.res_snapshots);
          ]
  in
  {
    cycles;
    ops;
    accesses;
    events;
    cas;
    cas_failed;
    host_s = m.host_s;
    setup_s = total -. m.host_s;
    alloc_words;
    reads = lat_of_summary m.lat.(Txn.Workload.class_audit);
    updates = lat_of_summary m.lat.(Txn.Workload.class_transfer);
    failed = 0;
    verdict = txn_verdict res;
    layers;
  }

(** Run workload [w] once at [seed], scaled by [scale] (1 = full length). *)
let sim_run ~traced ~scale w ~seed =
  match w.kind with
  | Set spec -> set_run ~traced spec ~seed ~ops:(spec.ops / scale)
  | Kv -> kv_run ~traced ~seed ~requests:(kv_requests / scale) ()
  | Txn -> txn_run ~traced ~seed ~ops:(txn_ops / scale)

(* ------------------------------------------------------------------ *)
(* Native runs                                                         *)

type native = {
  n_ops : int;
  n_wall_s : float;
  n_lat : lat;  (** nanoseconds, of every [stride]-th op *)
  n_trylock_fails : int;
  n_verdict : (unit, string) result;
}

let native_domains = 2

(* Per-domain counters, a cache line apart so the domains do not share
   one. *)
let pad = 8
let counters () = Array.make (native_domains * pad) 0
let bump a tid = a.(tid * pad) <- a.(tid * pad) + 1
let total a = Array.fold_left ( + ) 0 a

(* A sense-reversing barrier, so both domains start and stop together. *)
let barrier n =
  let count = Atomic.make n and sense = Atomic.make 0 in
  fun () ->
    let s = Atomic.get sense in
    if Atomic.fetch_and_add count (-1) = 1 then begin
      Atomic.set count n;
      Atomic.incr sense
    end
    else
      while Atomic.get sense = s do
        Domain.cpu_relax ()
      done

(** The set workload's structure and op mix on [native_domains] real
    domains. Each op is timed with [Monotonic_clock]; every [stride]-th
    time is kept, so that no domain's collector wraps. The gate is the
    simulated run's: [validate] and the size implied by the successful
    updates. Set-up and checks are not timed. *)
let native_run spec ~seed ~ops_per_domain =
  let (module S : R.SET_OPS) = spec.native in
  let t = match spec.capacity with Some capacity -> S.create ~capacity () | None -> S.create () in
  let prefilled = prefill (module S) t spec ~seed in
  let range = 2 * spec.init_size in
  let inserted = counters () and deleted = counters () in
  Rt.Native_rt.Probe.reset_all ();
  let fails = Rt.Native_rt.Probe.counter "optik.trylock-fail" in
  let stride = 1 + ((ops_per_domain - 1) / Harness.Pstats.capacity) in
  let lats = Array.init native_domains (fun _ -> Harness.Pstats.create ()) in
  let bar = barrier native_domains in
  let start = ref 0 and stop = ref 0 in
  let run tid () =
    Rt.Native_rt.set_tid tid;
    let rng = Rng.create ((seed * 65_599) + tid) in
    bar ();
    if tid = 0 then start := now_ns ();
    for i = 1 to ops_per_domain do
      let a = now_ns () in
      let cls = one_op (module S) t rng ~range ~update_pct:spec.update_pct in
      let b = now_ns () in
      (match cls with 1 -> bump inserted tid | 2 -> bump deleted tid | _ -> ());
      if i mod stride = 0 then Harness.Pstats.record lats.(tid) (b - a)
    done;
    bar ();
    if tid = 0 then stop := now_ns ()
  in
  Rt.Native_rt.set_nthreads native_domains;
  let others = List.init (native_domains - 1) (fun i -> Domain.spawn (run (i + 1))) in
  run 0 ();
  List.iter Domain.join others;
  Rt.Native_rt.set_nthreads 1;
  {
    n_ops = native_domains * ops_per_domain;
    n_wall_s = float_of_int (!stop - !start) *. 1e-9;
    n_lat = lat_of lats;
    n_trylock_fails = Rt.Native_rt.Probe.count fails;
    n_verdict =
      set_check (module S) t spec ~prefilled ~inserted:(total inserted) ~deleted:(total deleted)
      |> Result.map_error (fun e -> "native: " ^ e);
  }

(* ------------------------------------------------------------------ *)
(* kv capacity                                                         *)

(** Offered load of the [kv-zipf] clients at [gap], in Mreq/s: each
    client's next arrival is [gap] plus a uniform jitter in
    [\[0, gap/4)]. *)
let kv_offered gap =
  let jitter = float_of_int (max 1 (gap / 4) - 1) /. 2. in
  float_of_int Kv.default_config.threads *. topology.Sim.Topology.ghz *. 1e3
  /. (float_of_int gap +. jitter)

let kv_p99_limit_us = 20.
let kv_fail_limit = 0.001

(** The highest offered rate, in Mreq/s, at which [kv-zipf] keeps get and
    put p99 within {!kv_p99_limit_us} and fails at most {!kv_fail_limit}
    of its requests: a deterministic bisection over the client gap in
    [\[500, 4000\]] cycles, to 25 cycles. Returns the rate and every run
    made. *)
let kv_capacity ~seed ~requests =
  let limit = kv_p99_limit_us *. topology.Sim.Topology.ghz *. 1e3 in
  let runs = ref [] in
  let ok gap =
    let r = kv_run ~traced:false ~gap ~seed ~requests () in
    runs := r :: !runs;
    r.reads.p99 <= limit && r.updates.p99 <= limit
    && per r.ops r.failed <= kv_fail_limit
  in
  let rate =
    if ok 500 then kv_offered 500
    else if not (ok 4000) then 0.
    else begin
      let lo = ref 500 and hi = ref 4000 in
      while !hi - !lo > 25 do
        let mid = (!lo + !hi) / 2 in
        if ok mid then hi := mid else lo := mid
      done;
      kv_offered !hi
    end
  in
  (rate, List.rev !runs)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

type metric = { m_name : string; m_unit : string }

let m m_name m_unit = { m_name; m_unit }

(** End-to-end metrics, from untraced runs. *)
let end_to_end =
  [
    m "setup_s" "s";
    m "sim_mops" "Mops/s";
    m "sim_read_p50_us" "us";
    m "sim_read_p99_us" "us";
    m "sim_update_p50_us" "us";
    m "sim_update_p99_us" "us";
  ]

(** Per-layer metrics, from the traced step. A metric whose layer a
    workload does not exercise reads 0 there. The host rate, the heap
    peak and the native rates sit here because their spread between runs
    on a shared 2-core host exceeds a 10% bound (see README.md). *)
let per_layer =
  [
    m "dstruct.op_cycles" "cycles/op";
    m "dstruct.traverse_cycles" "cycles/op";
    m "dstruct.restarts" "count/op";
    m "dstruct.restart_cycles" "cycles/op";
    m "optik.acquires" "count/op";
    m "optik.trylock_fail_frac" "ratio";
    m "optik.lock_wait_cycles" "cycles/op";
    m "optik.critical_cycles" "cycles/op";
    m "sim.accesses" "count/op";
    m "sim.events" "count/op";
    m "sim.alloc_words" "words/op";
    m "sim.cas_fail_frac" "ratio";
    m "sim.host_ns_per_access" "ns";
    m "sim.host_ns_per_event" "ns";
    m "host_kops_per_s" "kops/s";
    m "peak_heap_mb" "MB";
  ]
  @ List.map (fun (_, n) -> m n "cycles/req") kv_phases
  @ [
      m "kv.retries" "count/req";
      m "kv.shed_frac" "ratio";
      m "kv.timeout_frac" "ratio";
      m "kv.max_mreq_s" "Mreq/s";
    ]
  @ List.map (fun (_, n) -> m n "cycles/txn") txn_phases
  @ [
      m "txn.abort_frac" "ratio";
      m "txn.snapshot_retries" "count/audit";
      m "native_mops" "Mops/s";
      m "native_p50_us" "us";
      m "native_p99_us" "us";
      m "native.trylock_fails" "count/op";
      m "obs.trace_overhead_frac" "ratio";
    ]

let unit_of name =
  match List.find_opt (fun x -> String.equal x.m_name name) (end_to_end @ per_layer) with
  | Some x -> x.m_unit
  | None -> invalid_arg ("Suite.unit_of: " ^ name)

(** One reported value: the metric, its value, and [n], the samples or
    base behind it. *)
type value = { name : string; value : float; n : int }

let v (name, value, n) = { name; value; n }

(* ------------------------------------------------------------------ *)
(* Measuring a workload                                                *)

type options = {
  seed : int;
  seconds : float;
      (** host seconds the untraced step was sized to fill: it makes
          [ceil (seconds / run_s)] runs *)
  smoke : bool;  (** 1/20 length, one run per step, one native run *)
}

type outcome = {
  values : value list;
  attempted : int;
  failed : int;
  verdict : (unit, string) result;
}

let us_of_cycles c = c /. (topology.Sim.Topology.ghz *. 1e3)
let scale o = if o.smoke then 20 else 1

(** [--seconds] when not given: [run_seconds] in [BENCHMARK.json]. *)
let default_seconds = 20

(** Untraced runs in the end-to-end step: a function of [--seconds] and
    the workload only, never of how fast the host runs. *)
let repeats o w = if o.smoke then 1 else max 1 (int_of_float (Float.ceil (o.seconds /. w.run_s)))

(** Traced runs in the per-layer step, each with its untraced twin. *)
let layer_pairs o = if o.smoke then 1 else 2

(** Native runs of a set workload: one discarded warm-up, then the
    measured ones. *)
let native_plan o = if o.smoke then (0, 1) else (1, 5)

(* Start every run from a collected heap, so neither its host time nor
   the peak heap depends on the runs before it. *)
let fresh f =
  Gc.full_major ();
  f ()

let all_ok verdicts = List.fold_left (fun acc v -> acc &&& fun () -> v) (Ok ()) verdicts
let ops_of runs = List.fold_left (fun a (r : run) -> a + r.ops) 0 runs
let failed_of runs = List.fold_left (fun a (r : run) -> a + r.failed) 0 runs

(* A traced run must agree exactly with its untraced twin: the simulator
   is deterministic, and the lens and the journal must not perturb it. *)
let same what (a : run) (b : run) =
  if fingerprint a = fingerprint b then Ok ()
  else Error (Printf.sprintf "%s: %s vs %s" what (pp_fingerprint a) (pp_fingerprint b))

(** Step 1: untraced runs at sub-seeds [0 .. repeats-1], giving the
    end-to-end metrics. The simulated metrics are means over the runs,
    [setup_s] is their median. *)
let end_to_end_step o w =
  let k = repeats o w in
  let runs =
    List.init k (fun i ->
        fresh (fun () -> sim_run ~traced:false ~scale:(scale o) w ~seed:(sub_seed o.seed i)))
  in
  let mean f = List.fold_left (fun a r -> a +. f r) 0. runs /. float_of_int k in
  let n f = List.fold_left (fun a r -> a + f r) 0 runs in
  let reads r = r.reads.n and updates r = r.updates.n in
  {
    values =
      List.map v
        [
          ("setup_s", median (List.map (fun r -> r.setup_s) runs), k);
          ("sim_mops", mean sim_mops, n (fun r -> r.ops));
          ("sim_read_p50_us", us_of_cycles (mean (fun r -> r.reads.p50)), n reads);
          ("sim_read_p99_us", us_of_cycles (mean (fun r -> r.reads.p99)), n reads);
          ("sim_update_p50_us", us_of_cycles (mean (fun r -> r.updates.p50)), n updates);
          ("sim_update_p99_us", us_of_cycles (mean (fun r -> r.updates.p99)), n updates);
        ];
    attempted = ops_of runs;
    failed = failed_of runs;
    verdict = all_ok (List.map (fun (r : run) -> r.verdict) runs);
  }

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.

(** Step 2: traced runs, each paired with its untraced twin, the native
    twin of a set workload and the capacity search of [kv-zipf], giving
    the per-layer metrics. The deterministic ones come from the first
    pair, at the seed itself; the host-time ones are medians over the
    pairs. *)
let per_layer_step o w =
  let run ~traced i = sim_run ~traced ~scale:(scale o) w ~seed:(sub_seed o.seed i) in
  (* The first untraced run goes alone, so the heap peak is one untraced
     run's: traced runs hold a journal, native runs their samples. *)
  let plain = fresh (fun () -> run ~traced:false 0) in
  let heap = peak_heap_mb () in
  let pairs =
    (plain, run ~traced:true 0)
    :: List.init (layer_pairs o - 1) (fun i ->
           let plain = fresh (fun () -> run ~traced:false (i + 1)) in
           (plain, run ~traced:true (i + 1)))
  in
  let natives =
    match w.kind with
    | Set spec ->
        let warmup, measured = native_plan o in
        List.init (warmup + measured) (fun i ->
            fresh (fun () ->
                native_run spec ~seed:(sub_seed o.seed i)
                  ~ops_per_domain:(spec.native_ops / scale o)))
    | Kv | Txn -> []
  in
  let timed = List.filteri (fun i _ -> i >= fst (native_plan o)) natives in
  let capacity, cap_runs =
    match w.kind with
    | Kv ->
        let rate, runs = kv_capacity ~seed:o.seed ~requests:(kv_requests / scale o) in
        ([ ("kv.max_mreq_s", rate, List.length runs) ], runs)
    | Set _ | Txn -> ([], [])
  in
  let plain0, traced0 = List.hd pairs in
  let ops = plain0.ops in
  let host f = median (List.map f pairs) and npairs = List.length pairs in
  let native =
    if timed = [] then []
    else
      let samples = List.fold_left (fun a n -> a + n.n_lat.n) 0 timed in
      let ops = List.fold_left (fun a n -> a + n.n_ops) 0 timed in
      let nat f = median (List.map f timed) in
      [
        ("native_mops", nat (fun n -> float_of_int n.n_ops /. n.n_wall_s /. 1e6), List.length timed);
        ("native_p50_us", nat (fun n -> n.n_lat.p50 /. 1e3), samples);
        ("native_p99_us", nat (fun n -> n.n_lat.p99 /. 1e3), samples);
        ("native.trylock_fails", per ops (List.fold_left (fun a n -> a + n.n_trylock_fails) 0 timed), ops);
      ]
  in
  let found =
    traced0.layers @ capacity @ native
    @ [
        ("sim.accesses", per ops plain0.accesses, ops);
        ("sim.events", per ops plain0.events, ops);
        ("sim.alloc_words", plain0.alloc_words /. float_of_int (max 1 ops), ops);
        ("sim.cas_fail_frac", per plain0.cas plain0.cas_failed, plain0.cas);
        ( "sim.host_ns_per_access",
          host (fun (p, _) -> p.host_s *. 1e9 /. float_of_int (max 1 p.accesses)),
          npairs );
        ("sim.host_ns_per_event", host (fun (p, _) -> p.host_s *. 1e9 /. float_of_int (max 1 p.events)), npairs);
        ("host_kops_per_s", host (fun (p, _) -> float_of_int p.ops /. p.host_s /. 1e3), npairs);
        ("peak_heap_mb", heap, 1);
        ("obs.trace_overhead_frac", host (fun (p, t) -> (t.host_s /. p.host_s) -. 1.), npairs);
      ]
  in
  (* A metric whose layer the workload does not run reads 0. *)
  let values =
    List.map
      (fun x ->
        match List.find_opt (fun (name, _, _) -> String.equal name x.m_name) found with
        | Some f -> v f
        | None -> { name = x.m_name; value = 0.; n = 0 })
      per_layer
  in
  (* The capacity search overloads the service on purpose: its runs must
     pass the gates, but their timeouts are not the workload's failures. *)
  let runs = List.concat_map (fun (p, t) -> [ p; t ]) pairs in
  let verdict =
    all_ok (List.map (fun (r : run) -> r.verdict) (runs @ cap_runs))
    &&& (fun () -> all_ok (List.map (fun n -> n.n_verdict) natives))
    &&& fun () ->
    all_ok (List.map (fun (p, t) -> same "traced run differs from its untraced run" p t) pairs)
  in
  {
    values;
    attempted = ops_of runs + List.fold_left (fun a n -> a + n.n_ops) 0 natives;
    failed = failed_of runs;
    verdict;
  }

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

let line workload v =
  Printf.sprintf "%s %s %s %s n=%d" workload v.name (J.float_repr v.value) (unit_of v.name) v.n

(** The run report, in [Obs.Report]'s envelope: one run per workload
    whose metrics are the reported values. *)
let report ~workload ~seed ~params values =
  J.make ~subcommand:"perf" ~seed:(Some seed) ~params
    ~runs:
      [
        J.Obj
          [
            ("id", J.Str workload);
            ("metrics", J.Obj (List.map (fun v -> (v.name, J.Float v.value)) values));
            ("n", J.Obj (List.map (fun v -> (v.name, J.Int v.n)) values));
          ];
      ]
    ~sections:[ ("units", J.Obj (List.map (fun v -> (v.name, J.Str (unit_of v.name))) values)) ]

(** The one-line result object: [correct], [attempted], [failed] and each
    metric's value and unit, printed by [Obs.Report] with its line breaks
    and indentation removed. *)
let result_line ~attempted ~failed values =
  let j =
    J.Obj
      [
        ("correct", J.Bool true);
        ("attempted", J.Int attempted);
        ("failed", J.Int failed);
        ( "metrics",
          J.Obj
            (List.map
               (fun v ->
                 (v.name, J.Obj [ ("value", J.Float v.value); ("unit", J.Str (unit_of v.name)) ]))
               values) );
      ]
  in
  String.split_on_char '\n' (J.to_string j) |> List.map String.trim |> String.concat ""
