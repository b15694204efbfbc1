(** Sharded in-memory KV service over the OPTIK structure registry.

    The microbenchmarks measure structures in isolation; this module
    composes them into a production-shaped service and measures what the
    composition adds: a hash-partitioned store whose shards are registry
    structures (one primary + one replica store per shard), fronted by an
    open-loop client population (zipfian key popularity, read/write/scan
    mixes, hot-key storms, flash-crowd bursts) and hardened with

    - per-request deadlines,
    - bounded retry with seeded exponential backoff + jitter,
    - shard health tracking with failover to the replica,
    - graceful degradation: scans are shed before point ops suffer.

    Rolling shard crashes come from {!Sim.Fault} ([Shard_crash] /
    [Shard_recover] actions): a crash conceptually loses the store's
    contents — the service observes the epoch bump, wipes the backing
    structure, and serves from the surviving copy.

    {2 The acknowledged-write oracle}

    The service promises {e exactly-once visible effect per acknowledged
    write}: after the run (and after wiping stores whose crash the
    service never observed), every acked put must have exactly one of its
    attempt-elements present in its shard pair — zero means an ack was
    lost to a crash, two or more means a retry duplicated an effect the
    client was already acked for. Requests are recorded crash-aware
    through {!Harness.History.Log}: a client thread that crashes
    mid-request leaves its request in flight, and the ack flag on the
    request record — not its completed/pending position — decides whether
    it carries an obligation.

    Every attempt writes a globally unique element, so visibility is
    countable per request even though the registry structures cannot be
    enumerated. Elements are dense ids above every key ([keys + uid]
    under the idempotent policy; the deliberately broken one adds the
    attempt number above the uid bits), so consecutive puts spread over
    every hash bucket and never collide with a key a get probes (see
    {!element}).

    {2 The re-armable f = 1 warranty}

    Replication degree is 2, so each (primary, replica) pair tolerates
    one crash between repairs — the classic f = 1 failure budget. A
    crash {e spends} the pair's budget; a second crash before the wiped
    copy has caught back up {e voids} the warranty (acked writes may
    genuinely be lost, and the oracle excuses exactly those). What makes
    the budget renewable is {e resync} (anti-entropy): once a recovered
    store exits its degraded window, the first request to observe it
    copies the surviving peer's contents over in bounded batches
    ([fold] snapshot of the key set, then a live per-key re-read), while
    concurrent writes are dual-written to both copies. Epoch fencing
    aborts the copy if either side crashes mid-repair. On catch-up the
    pair is back to two live copies and the budget {e re-arms}, so
    {!rolling_plan} and the chaos generator can legally schedule many
    sequential crashes per pair. Single-copy acks (peer down at refresh)
    are sound because they only happen once the pair's budget is already
    spent. The negative controls ([--broken-resync]) skip the dual-write
    or the fence and must be caught by the oracle. *)

module R = Harness.Registry
module Rng = Harness.Rng
module Probe = Sim.Sim_rt.Probe

(* ------------------------------------------------------------------ *)
(* Policies and workloads                                              *)

type policy = {
  replicate : bool;  (** write both copies (off: the loss negative test) *)
  idempotent : bool;
      (** retries re-write the same element (off: the duplication
          negative test — every retry writes a fresh element, so a retry
          after a lost ack duplicates the visible effect) *)
  degraded_cycles : int;
      (** a freshly recovered node reports [Recovering] for this long
          before resync may start; scans shed on it, point ops proceed *)
  resync_batch : int;  (** keys copied per resync batch *)
  resync_dual_write : bool;
      (** writes during a resync also go to the catching-up copy (off:
          the resync loss negative test — writes acked during the copy
          window live only in the survivor and vanish at its next
          crash, which the re-armed warranty no longer excuses) *)
  resync_fencing : bool;
      (** abort the copy — and refuse to re-arm — when either side's
          crash epoch moves mid-resync (off: the warranty forgery
          negative test — a fenceless copier "completes" against a
          crashed source and re-arms a voided pair) *)
}

let default_policy =
  {
    replicate = true;
    idempotent = true;
    degraded_cycles = 50_000;
    resync_batch = 64;
    resync_dual_write = true;
    resync_fencing = true;
  }

let broken_retry_policy = { default_policy with idempotent = false }
let no_replication_policy = { default_policy with replicate = false }

let broken_resync_policy = function
  | `Dual_write -> { default_policy with resync_dual_write = false }
  | `Fencing -> { default_policy with resync_fencing = false }

(* The fixed shape of deadlines, retries, backoff and load. A request
   has [deadline] cycles from its intended arrival and at most
   [max_retries] retries. Attempt [n] backs off [backoff_base ⋅ 2^n]
   cycles, at most [backoff_cap], plus jitter below [backoff_base].
   Keys are zipf-popular with skew [alpha]; a scan probes [scan_width]
   consecutive keys. Every [storm_every] cycles, for [storm_len], all
   clients draw uniformly from the [hot_keys] most popular keys. A
   flash-crowd burst (every [burst_every], see {!workload}) lasts
   [burst_len] and divides the arrival gap by [burst_factor]. *)
let deadline = 400_000
let max_retries = 8
let backoff_base = 256
let backoff_cap = 16_384
let alpha = 0.9
let scan_width = 8
let storm_every = 400_000
let storm_len = 80_000
let hot_keys = 8
let burst_len = 60_000
let burst_factor = 8

type workload = {
  keys : int;  (** key space [1 .. keys] *)
  read_pct : int;
  scan_pct : int;  (** remainder after reads and scans is puts *)
  gap : int;  (** open-loop inter-arrival gap per client, cycles *)
  burst_every : int;  (** flash-crowd period (0 disables) *)
}

let default_workload =
  {
    keys = 4096;
    read_pct = 70;
    scan_pct = 10;
    gap = 1_500;
    burst_every = 550_000;
  }

type config = {
  rep : string;  (** registry representation backing every store *)
  nshards : int;
  threads : int;  (** open-loop client threads *)
  ops : int;  (** requests to serve (ticks) *)
  seed : int;
  topo : Sim.Topology.t;
  workload : workload;
  policy : policy;
  plan : Sim.Fault.plan option;
}

let default_config =
  {
    rep = "hashtable/optik";
    nshards = 4;
    threads = 8;
    ops = 6_000;
    seed = 42;
    topo = Sim.Topology.xeon;
    workload = default_workload;
    policy = default_policy;
    plan = None;
  }

(* The registry structures a store can be, by [family/name]. *)
let rep_names =
  [
    "map/optik"; "hashtable/optik"; "list/optik"; "list/harris";
    "skiplist/optik2";
  ]

let rep_ops name =
  let e = R.Sim_backend.find name in
  if not (List.mem name rep_names) then
    invalid_arg
      (Printf.sprintf "Kv: %s is not a store rep (reps: %s)" name
         (String.concat ", " rep_names));
  R.set_ops e

(* Every range rule of a run, each stated once: [run] applies them, and
   so does the chaos trial grammar, so a flag and a trial string out of
   range get the same message. A plan may aim only at the run's clients
   and its [2 * nshards] stores. *)
let check (cfg : config) =
  let fn = "Kv.check" and w = cfg.workload and p = cfg.policy in
  Harness.Range.positive fn "shards" cfg.nshards;
  Harness.Range.threads fn cfg.threads;
  Harness.Range.positive fn "ops" cfg.ops;
  Harness.Range.positive fn "keys" w.keys;
  if p.degraded_cycles < 0 then
    Harness.Range.fail fn "degraded must be >= 0, got %d" p.degraded_cycles;
  Harness.Range.positive fn "batch" p.resync_batch;
  Harness.Range.pct fn "read pct" w.read_pct;
  Harness.Range.pct fn "scan pct" w.scan_pct;
  Harness.Range.pct fn "read + scan pct" (w.read_pct + w.scan_pct);
  Option.iter
    (Sim.Fault.check_targets ~threads:cfg.threads ~stores:(2 * cfg.nshards))
    cfg.plan

(* ------------------------------------------------------------------ *)
(* Stores, nodes, shards                                               *)

(* A store is one registry structure behind an existential: wiping
   replaces the structure wholesale (a crash loses the contents), which
   is why [st] is mutable and [capacity] is remembered. *)
type store =
  | Store : {
      sops : (module R.SET_OPS with type t = 'a);
      mutable st : 'a;
      capacity : int;
    }
      -> store

let store_make (module S : R.SET_OPS) capacity =
  Store { sops = (module S); st = S.create ~capacity (); capacity }

let store_insert (Store { sops = (module S); st; _ }) e = S.insert st e e
let store_mem (Store { sops = (module S); st; _ }) e = S.search st e <> None
let store_size (Store { sops = (module S); st; _ }) = S.size st
let store_valid (Store { sops = (module S); st; _ }) = S.validate st

(* Resync primitives: snapshot enumeration, then a key/value read and
   write per copied key. *)
let store_fold (Store { sops = (module S); st; _ }) f acc = S.fold st f acc
let store_put (Store { sops = (module S); st; _ }) k v = S.insert st k v
let store_get (Store { sops = (module S); st; _ }) k = S.search st k

let store_wipe (Store ({ sops = (module S); _ } as s)) =
  s.st <- S.create ~capacity:s.capacity ()

(* One physical copy: primary or replica of a shard. [n_id] is the
   logical store index the fault engine addresses ([Shard_crash]); the
   convention is primary of shard i = i, replica of shard i =
   nshards + i. [n_epoch] is the last crash count the service observed —
   a mismatch against [Fault.shard_crash_count] means the store crashed
   (and conceptually lost everything) since we last looked. *)
(* Per-node recovery state machine:

     Healthy --crash--> Crashed --back up--> Wiped --degraded window
       ^                                       | elapses, peer live
       |                                       v
       +-- next refresh <-- Caught_up <-- Resyncing

   [Crashed] covers "crash observed, store wiped, node still down";
   [Wiped] is up but empty (serving, degraded); [Resyncing] while the
   batched copy is in flight (an epoch fence aborts back to [Wiped]);
   [Caught_up] is the copy's completion, promoted to [Healthy] — with a
   timeline event — by the next refresh that observes it. *)
type nstate = Healthy | Crashed | Wiped | Resyncing | Caught_up

(* The pair's f = 1 failure budget. [Armed]: a crash is survivable.
   [Spent]: one copy is behind; a successful resync re-arms. [Voided]:
   a second crash hit before catch-up — acked writes may be gone for
   good, and the oracle excuses losses only here. Terminal: resync still
   repairs a voided pair's stores, but never re-arms it. *)
type warranty = Armed | Spent | Voided

let warranty_name = function
  | Armed -> "armed"
  | Spent -> "spent"
  | Voided -> "voided"

type node = {
  n_id : int;
  n_label : string;
  n_store : store;
  mutable n_epoch : int;
  mutable n_was_down : bool;
  mutable n_recovered_at : int;
  mutable n_state : nstate;
}

type shard = {
  primary : node;
  replica : node;
  mutable s_warranty : warranty;
  mutable s_resync : bool;  (** a copy is in flight on this pair *)
}

type health = Up | Recovering | Down

type shard_counters = {
  c_restarts : Probe.counter;  (** request retries attributed here *)
  c_timeouts : Probe.counter;
  c_sheds : Probe.counter;
  c_failovers : Probe.counter;  (** requests served by the replica *)
  c_wipes : Probe.counter;
  c_resync_keys : Probe.counter;  (** keys copied into this pair *)
  c_resync_batches : Probe.counter;
  c_resync_dual : Probe.counter;  (** writes landed on a resyncing copy *)
  c_resync_aborted : Probe.counter;  (** copies abandoned at the fence *)
}

(* ------------------------------------------------------------------ *)
(* Requests and the oracle                                             *)

type kind = Get | Put | Scan

(* One client request, recorded crash-aware in a [History.Log]. Mutable
   because the oracle reads the final ack state off the same record the
   request loop updates — a thread that crashes right after setting
   [q_acked] leaves an in-flight record that still carries the
   obligation. *)
type req = {
  q_uid : int;
  q_key : int;
  q_kind : kind;
  mutable q_elems : int list;  (** every element any attempt wrote *)
  mutable q_acked : bool;
  mutable q_attempts : int;
}

type oracle = {
  ok : bool;  (** strict exactly-once: nothing lost or duplicated at all *)
  warranted_ok : bool;
      (** the service-level verdict: no duplicates, and every lost
          acked write belongs to a pair whose warranty is honestly
          [Voided] (a double crash before catch-up — the one
          loss the f = 1 contract permits). A loss in an [Armed] or
          [Spent] pair means the re-arm machinery forged a warranty:
          exactly what the broken-resync controls must trip. *)
  acked_writes : int;
  lost : (int * int) list;  (** (uid, key): acked, nothing visible *)
  lost_unwarranted : (int * int) list;
      (** the subset of [lost] in pairs that are not [Voided] *)
  duplicated : (int * int * int) list;
      (** (uid, key, copies): acked, several attempt-elements visible *)
  ghost_writes : int;
      (** unacked puts with a visible effect — allowed (the ack may have
          been lost after the effect landed), reported for visibility *)
}

type result = {
  res_oracle : oracle;
  res_events : string list;  (** failover timeline, chronological *)
  res_warranty : warranty array;  (** per pair, post-quiesce *)
  res_shard_sizes : (int * int) array;  (** (primary, replica) per shard *)
  res_shard_lat : Harness.Pstats.summary array;
      (** request latency per home shard (the shard the key routes to),
          all request classes pooled — localizes a crash's tail damage *)
  res_trace : Obs.Journal.record option;
      (** the raw journal when [run ~record_obs:true]; feeds
          {!Obs.Attrib} and the trace exporters *)
}

let lat_classes = [| "get"; "put"; "scan"; "timeout"; "shed" |]
let class_get = 0
let class_put = 1
let class_scan = 2
let class_timeout = 3
let class_shed = 4

(* ------------------------------------------------------------------ *)
(* The service                                                         *)

type t = {
  cfg : config;
  shards : shard array;
  shard_ctr : shard_counters array;
  shard_lat : Harness.Pstats.t array;
      (** per home shard; shared across clients — safe, the simulator
          runs on one OS thread *)
  last_acked : int array;  (** per key: last acked element, 0 = none *)
  mutable next_uid : int;
  log : req Harness.History.Log.t;
  mutable events_rev : (int * string) list;
  (* service-level counters *)
  k_retries : Probe.counter;
  k_timeouts : Probe.counter;
  k_sheds : Probe.counter;
  k_failovers : Probe.counter;
  k_backoff : Probe.counter;
  k_acked : Probe.counter;
  k_wipes : Probe.counter;
  k_resyncs : Probe.counter;  (** copies completed (pair caught up) *)
  k_resync_aborts : Probe.counter;
  k_rearms : Probe.counter;  (** warranties restored by a catch-up *)
  resync_lat : Harness.Pstats.t;  (** completed-copy durations *)
}

let push_event t msg = t.events_rev <- (Sim.Sched.now (), msg) :: t.events_rev

(* Journal [msg] at [clk], which may predate events pushed since, keeping
   the newest-first timeline ordered by clock. *)
let push_event_at t clk msg =
  let rec ins = function
    | ((c, _) as e) :: tl when c > clk -> e :: ins tl
    | l -> (clk, msg) :: l
  in
  t.events_rev <- ins t.events_rev

let shard_of t key = key mod Array.length t.shards

(* The element attempt [attempt] of put [uid] writes: a dense id above
   every key ([1 .. keys]), so a get probing a bare key misses for
   certain. Consecutive uids are consecutive integers, which [Ht.hash]
   spreads over every bucket; a power-of-two stride would not, since the
   bucket keeps only the low bits of the hash. The broken-retry policy
   tags each attempt above bit 32 rather than with a stride tied to
   [ops], which uids pass by up to the thread count; attempts stay
   distinct while uids stay below 2{^32}. *)
let element (cfg : config) ~uid ~attempt =
  let id = cfg.workload.keys + uid in
  if cfg.policy.idempotent then id else id + (attempt lsl 32)

(* Buckets per store. Elements are unique per acked put, so a store
   holds at most ~ops/nshards of them; dense elements spread them over
   every bucket, so at the kv-zipf config (24000 requests, 20% puts,
   4 shards) each store ends with ~1200 elements in 1024 buckets, about
   one per bucket. Each simulated bucket is expensive host-side (its
   atomics are tracked cache lines), so do NOT scale buckets linearly
   with ops. *)
let store_capacity (cfg : config) =
  max 256 (min 1024 (cfg.ops / (2 * max 1 cfg.nshards)))

let create (cfg : config) : t =
  let (module S : R.SET_OPS) = rep_ops cfg.rep in
  let capacity = store_capacity cfg in
  let node id label =
    {
      n_id = id;
      n_label = label;
      n_store = store_make (module S) capacity;
      n_epoch = 0;
      n_was_down = false;
      n_recovered_at = 0;
      n_state = Healthy;
    }
  in
  let shards =
    Array.init cfg.nshards (fun i ->
        {
          primary = node i (Printf.sprintf "s%d" i);
          replica = node (cfg.nshards + i) (Printf.sprintf "s%dr" i);
          s_warranty = Armed;
          s_resync = false;
        })
  in
  let shard_ctr =
    Array.init cfg.nshards (fun i ->
        let c ?kind m = Probe.counter ?kind (Printf.sprintf "kv-s%d.%s" i m) in
        {
          c_restarts = c ~kind:Restart "restarts";
          c_timeouts = c "timeouts";
          c_sheds = c "sheds";
          c_failovers = c "failovers";
          c_wipes = c "wipes";
          c_resync_keys = c "resync-keys-copied";
          c_resync_batches = c "resync-batches";
          c_resync_dual = c "resync-dual-writes";
          c_resync_aborted = c ~kind:Restart "resync-aborted";
        })
  in
  {
    cfg;
    shards;
    shard_ctr;
    shard_lat = Array.init cfg.nshards (fun _ -> Harness.Pstats.create ());
    last_acked = Array.make (cfg.workload.keys + 1) 0;
    next_uid = 1;
    log = Harness.History.Log.create ~nthreads:cfg.threads;
    events_rev = [];
    k_retries = Probe.counter ~kind:Retry "kv.retries";
    k_timeouts = Probe.counter ~kind:Timeout "kv.timeouts";
    k_sheds = Probe.counter ~kind:Shed "kv.sheds";
    k_failovers = Probe.counter ~kind:Failover "kv.failovers";
    k_backoff = Probe.counter "kv.backoff-cycles";
    k_acked = Probe.counter "kv.acked-writes";
    k_wipes = Probe.counter "kv.wipes";
    k_resyncs = Probe.counter "kv.resyncs";
    k_resync_aborts = Probe.counter "kv.resync-aborts";
    k_rearms = Probe.counter "kv.rearms";
    resync_lat = Harness.Pstats.create ();
  }

(* Post-run events (the [quiesce] sweep runs outside the simulation) sort
   after every in-run one. *)
let say ~post_run t msg =
  if post_run then t.events_rev <- (max_int, msg) :: t.events_rev
  else push_event t msg

(* Each observed crash spends one unit of the pair's budget. [post_run]
   crashes (found by quiesce) use the post-run event timestamp. *)
let spend_budget ?(post_run = false) t si =
  let sh = t.shards.(si) in
  let say = say ~post_run t in
  match sh.s_warranty with
  | Armed ->
      sh.s_warranty <- Spent;
      say (Printf.sprintf "s%d pair budget spent (f=1)" si)
  | Spent ->
      sh.s_warranty <- Voided;
      say (Printf.sprintf "s%d pair warranty VOIDED (crash before catch-up)" si)
  | Voided -> ()

(* Small-list split for the batched copier. *)
let rec take n = function
  | [] -> ([], [])
  | l when n <= 0 -> ([], l)
  | x :: tl ->
      let a, b = take (n - 1) tl in
      (x :: a, b)

(* The batched copier: refill [dst] from its surviving peer [src].

   Snapshot = the key set folded up front; each key is then re-read
   {e live} at copy time. An element's value never changes once
   inserted, so the live read is the value to copy. Keys the dual-write
   path already delivered to [dst] are skipped; keys deleted (or wiped)
   since the snapshot read back [None] and are not resurrected. That
   last rule is what gives the epoch fence teeth: a fenceless copier
   walking a crashed-and-wiped source "completes" with every unvisited
   key silently dropped.

   Fencing: before every batch, and once more before declaring
   catch-up, both nodes' crash counts are compared against the values
   captured at start; any movement aborts — the pair lost a copy
   mid-repair, and re-arming would forge a warranty. The abort leaves
   [dst] as [Wiped], so a later request retries the repair (a voided
   pair still gets its stores fixed; it just never re-arms).

   Runs inline in the first client thread that observes the node past
   its degraded window — the repair cost lands in that request's
   latency (and in the dedicated "resync" class). *)
let do_resync t si ~src ~dst =
  let p = t.cfg.policy in
  let sh = t.shards.(si) in
  let ctr = t.shard_ctr.(si) in
  Sim.Sched.obs_emit (Phase_begin Resync);
  sh.s_resync <- true;
  dst.n_state <- Resyncing;
  let t0 = Sim.Sched.now () in
  let src_e0 = Sim.Fault.shard_crash_count src.n_id in
  let dst_e0 = Sim.Fault.shard_crash_count dst.n_id in
  push_event t
    (Printf.sprintf "s%d resync %s <- %s started" si dst.n_label src.n_label);
  let keys = List.rev (store_fold src.n_store (fun k _ acc -> k :: acc) []) in
  let fenced () =
    p.resync_fencing
    && (Sim.Fault.shard_crash_count src.n_id <> src_e0
       || Sim.Fault.shard_crash_count dst.n_id <> dst_e0)
  in
  (* Snapshot keys [dst] holds after the copy, counted host-side for the
     catch-up event: narrating [store_size] would walk every bucket. *)
  let held = ref 0 in
  let copy_key k =
    if store_get dst.n_store k <> None then incr held
    else begin
      (match store_get src.n_store k with
      | None -> ()  (* gone since the snapshot: do not resurrect *)
      | Some v ->
          ignore (store_put dst.n_store k v : bool);
          incr held);
      Probe.incr ctr.c_resync_keys;
      Sim.Sched.work 64 (* per-key transfer framing *)
    end
  in
  let rec batches = function
    | [] -> true
    | _ when fenced () -> false
    | ks ->
        let batch, rest = take p.resync_batch ks in
        Probe.incr ctr.c_resync_batches;
        List.iter copy_key batch;
        Sim.Sched.work 256 (* batch turnaround *);
        batches rest
  in
  (* The fence verdict and the state/warranty transitions it licenses
     must be one atomic step: a crash landing between them would read
     the pair as still [Spent] and void a warranty the completed copy
     had just earned. So: decide, transition, then narrate, dating the
     catch-up at the decision; nothing in between yields. Clearing
     [s_resync] is one of the transitions: the fault engine's resync
     probe reads it. *)
  if batches keys && not (fenced ()) then begin
    let decided = Sim.Sched.now () in
    sh.s_resync <- false;
    dst.n_state <- Caught_up;
    Probe.incr t.k_resyncs;
    Harness.Pstats.record t.resync_lat (decided - t0);
    (* Two live copies again: re-arm the pair's f = 1 budget — but only
       from [Spent]; a [Voided] pair has (potentially) lost acked writes
       for good and must stay out of warranty. The fenceless policy
       skips that guard too: completing against a mid-copy crash and
       re-arming anyway is precisely the forgery the negative control
       needs the oracle to catch. *)
    let rearmed =
      sh.s_warranty = Spent
      || ((not p.resync_fencing) && sh.s_warranty = Voided)
    in
    if rearmed then begin
      sh.s_warranty <- Armed;
      Probe.incr t.k_rearms
    end;
    push_event_at t decided
      (Printf.sprintf "s%d resync %s caught up (%d/%d snapshot keys)" si
         dst.n_label !held (List.length keys));
    if rearmed then
      push_event_at t decided
        (Printf.sprintf "s%d pair budget re-armed (f=1 restored)" si)
  end
  else begin
    sh.s_resync <- false;
    dst.n_state <- Wiped;
    Probe.incr ctr.c_resync_aborted;
    Probe.incr t.k_resync_aborts;
    push_event t
      (Printf.sprintf "s%d resync %s aborted (epoch fence)" si dst.n_label)
  end;
  Sim.Sched.obs_emit (Phase_end Resync)

(* Start a resync if the pair has none in flight and the peer is usable
   as a source: live, with no unobserved crash (its epoch must be
   current, or the snapshot would read conceptually lost contents).
   When both copies are wiped the same copy runs with whatever the peer
   still holds — each side refills from the other's remnant and the pair
   converges; it just never re-arms (two crashes voided it). *)
let maybe_resync t si dst =
  let sh = t.shards.(si) in
  if not sh.s_resync then begin
    let src = if dst == sh.primary then sh.replica else sh.primary in
    if
      Sim.Fault.shard_crash_count src.n_id = src.n_epoch
      && not (Sim.Fault.shard_down src.n_id)
    then do_resync t si ~src ~dst
  end

(* Observe the crashes of [node] the service has not seen yet, returning
   the current epoch: bump the epoch, wipe the store (its contents are
   lost) and spend the pair budget once per crash. In-run, the node
   restarts its recovery clock as [Crashed] and the crash is journaled;
   the [post_run] sweep leaves both alone. *)
let observe_crash ?(post_run = false) t si node =
  let e = Sim.Fault.shard_crash_count node.n_id in
  if e <> node.n_epoch then begin
    let crashes = e - node.n_epoch in
    node.n_epoch <- e;
    store_wipe node.n_store;
    Probe.incr t.k_wipes;
    Probe.incr t.shard_ctr.(si).c_wipes;
    if not post_run then begin
      node.n_state <- Crashed;
      node.n_recovered_at <- Sim.Sched.now ();
      if Obs.Journal.recording () then
        Sim.Sched.obs_emit (Instant (Node_crash, Some node.n_id))
    end;
    say ~post_run t
      (Printf.sprintf "%s crashed (epoch %d): %s" node.n_label e
         (if post_run then "wiped post-run" else "store wiped"));
    for _ = 1 to crashes do
      spend_budget ~post_run t si
    done
  end;
  e

(* Observe one node: detect crashes (epoch bump → wipe, the contents are
   lost, budget spent), advance the recovery state machine — including
   driving a due resync inline — then report health. Returns the epoch
   {e this caller} observed so a writer can later detect a crash that
   raced its own insert — comparing against [n_epoch] would miss a crash
   another thread already refreshed away. *)
let refresh t shard_idx node : health * int =
  let e = observe_crash t shard_idx node in
  if Sim.Fault.shard_down node.n_id then begin
    if not node.n_was_down then begin
      node.n_was_down <- true;
      push_event t (Printf.sprintf "%s down" node.n_label)
    end;
    (Down, e)
  end
  else begin
    if node.n_was_down then begin
      node.n_was_down <- false;
      node.n_recovered_at <- Sim.Sched.now ();
      push_event t (Printf.sprintf "%s back up" node.n_label)
    end;
    match node.n_state with
    | Healthy -> (Up, e)
    | Caught_up ->
        node.n_state <- Healthy;
        push_event t (Printf.sprintf "%s healthy" node.n_label);
        (Up, e)
    | Resyncing -> (Recovering, e)
    | Crashed ->
        node.n_state <- Wiped;
        (Recovering, e)
    | Wiped ->
        if
          Sim.Sched.now () - node.n_recovered_at
          < t.cfg.policy.degraded_cycles
        then (Recovering, e)
        else begin
          maybe_resync t shard_idx node;
          (match node.n_state with
           | Caught_up | Healthy -> Up
           | _ -> Recovering),
          e
        end
  end

(* Post-run sweep: wipe stores whose crash the service never observed
   (the crash fired after the last request touched them), so the oracle
   never reads conceptually lost contents — and spend the pair budgets
   those crashes consumed, so the warranty the oracle judges against is
   honest. Runs outside the simulation, where [Sched.now () = 0], so it
   must not consult [shard_down] — an unexpired finite window would look
   permanently down; epoch comparison alone is the crash signal. *)
let quiesce t =
  Array.iteri
    (fun i sh ->
      List.iter
        (fun node -> ignore (observe_crash ~post_run:true t i node : int))
        [ sh.primary; sh.replica ])
    t.shards

(* ------------------------------------------------------------------ *)
(* Request execution                                                   *)

(* Exponential backoff with seeded jitter; counted so reports can show
   cycles burned waiting rather than working. *)
let backoff t rng n =
  let b = min backoff_cap (backoff_base lsl min n 20) + Rng.below rng backoff_base in
  Probe.add t.k_backoff b;
  Sim.Sched.obs_emit (Phase_begin Backoff);
  Sim.Sched.work b;
  Sim.Sched.obs_emit (Phase_end Backoff)

(* One write attempt against a shard pair. The ack rule:

   - [confirmed]: at least one copy that was up at refresh took (or
     already had) the element and its store has not crashed since the
     refresh this attempt made.
   - [missing]: a copy that was up at refresh did not confirm — retry so
     an ack always reflects every copy that was writable.
   - [ambiguous]: a copy took the element but its store crashed before we
     could decide — the effect may or may not survive elsewhere, which is
     exactly the lost-ack window; never ack on it, retry instead. Under
     the idempotent policy the retry re-writes the same element (safe);
     under the broken policy it writes a fresh one, and if the first
     attempt's element survived somewhere the oracle sees a duplicate. *)
let attempt_put t req =
  let p = t.cfg.policy in
  let si = shard_of t req.q_key in
  let sh = t.shards.(si) in
  req.q_attempts <- req.q_attempts + 1;
  let elem = element t.cfg ~uid:req.q_uid ~attempt:req.q_attempts in
  if not (List.mem elem req.q_elems) then req.q_elems <- elem :: req.q_elems;
  Sim.Sched.obs_emit (Phase_begin Route);
  let p_h, p_epoch = refresh t si sh.primary in
  let r_h, r_epoch =
    if p.replicate then refresh t si sh.replica else (Down, 0)
  in
  Sim.Sched.obs_emit (Phase_end Route);
  if p_h = Down && r_h <> Down then begin
    Probe.incr t.k_failovers;
    Probe.incr t.shard_ctr.(si).c_failovers
  end;
  (* Dual-write: a copy that is mid-resync still takes live writes (the
     copier skips keys already present), so nothing acked during the
     copy window exists only in the survivor. The broken policy skips
     the resyncing copy — and must exclude it from the ack equation, or
     no ack would ever issue — leaving the copy-window writes
     single-copy after a "successful" catch-up. *)
  let skip_dual node =
    (not p.resync_dual_write) && node.n_state = Resyncing
  in
  let apply node h =
    h <> Down && (not (skip_dual node))
    &&
    (* a write landing on a mid-resync copy is the dual-write phase *)
    let dual = node.n_state = Resyncing in
    if dual then Sim.Sched.obs_emit (Phase_begin Dual_write);
    let applied =
      store_insert node.n_store elem || store_mem node.n_store elem
    in
    if dual then Sim.Sched.obs_emit (Phase_end Dual_write);
    applied
  in
  Sim.Sched.obs_emit (Phase_begin Store);
  let applied_p = apply sh.primary p_h in
  let applied_r = p.replicate && apply sh.replica r_h in
  Sim.Sched.obs_emit (Phase_end Store);
  if applied_p && sh.primary.n_state = Resyncing then
    Probe.incr t.shard_ctr.(si).c_resync_dual;
  if applied_r && sh.replica.n_state = Resyncing then
    Probe.incr t.shard_ctr.(si).c_resync_dual;
  (* Re-check against the epochs this attempt observed: a crash that
     raced the insert invalidates it even if another thread has already
     refreshed the node. *)
  let p_crashed = Sim.Fault.shard_crash_count sh.primary.n_id <> p_epoch in
  let r_crashed =
    p.replicate && Sim.Fault.shard_crash_count sh.replica.n_id <> r_epoch
  in
  let p_ok = applied_p && not p_crashed in
  let r_ok = applied_r && not r_crashed in
  let confirmed = p_ok || r_ok in
  let missing =
    (p_h <> Down && (not (skip_dual sh.primary)) && not p_ok)
    || p.replicate && r_h <> Down
       && (not (skip_dual sh.replica))
       && not r_ok
  in
  let ambiguous = (applied_p && p_crashed) || (applied_r && r_crashed) in
  if confirmed && (not missing) && not ambiguous then begin
    req.q_acked <- true;
    t.last_acked.(req.q_key) <- elem;
    Probe.incr t.k_acked;
    true
  end
  else false

(* After failed attempt [n] of a point request on shard [si]: time the
   request out once retries or the deadline run out ([true]), else count
   and journal the retry and back off before it ([false]). *)
let timed_out t rng si ~arrival n =
  if n >= max_retries || Sim.Sched.now () - arrival > deadline then begin
    Probe.incr t.k_timeouts;
    Probe.incr t.shard_ctr.(si).c_timeouts;
    true
  end
  else begin
    Probe.incr t.k_retries;
    Probe.incr t.shard_ctr.(si).c_restarts;
    if Obs.Journal.recording () then
      Sim.Sched.obs_emit (Instant (Retry, Some n));
    backoff t rng n;
    false
  end

let do_put t rng ~arrival req =
  let si = shard_of t req.q_key in
  let rec go n =
    if attempt_put t req then class_put
    else if timed_out t rng si ~arrival n then class_timeout
    else go (n + 1)
  in
  go 0

(* Reads route to the primary, preferring an [Up] copy over a degraded
   one — a wiped or mid-resync store serves stale (mostly empty) data,
   so while exactly one copy is caught up, reads follow it; both down
   means retry/backoff until the deadline. The probed element is the
   key's last acked write when there is one — so reads traverse the
   structure to real depth — and the bare key (a guaranteed miss at
   realistic cost) otherwise. *)
let do_get t rng ~arrival key =
  let si = shard_of t key in
  let sh = t.shards.(si) in
  let probe = if t.last_acked.(key) <> 0 then t.last_acked.(key) else key in
  let failover () =
    Probe.incr t.k_failovers;
    Probe.incr t.shard_ctr.(si).c_failovers
  in
  let rec go n =
    Sim.Sched.obs_emit (Phase_begin Route);
    let p_h, _ = refresh t si sh.primary in
    let node =
      if p_h = Up then Some sh.primary
      else begin
        let r_h, _ = refresh t si sh.replica in
        if r_h = Up then begin
          failover ();
          Some sh.replica
        end
        else if p_h <> Down then Some sh.primary
        else if r_h <> Down then begin
          failover ();
          Some sh.replica
        end
        else None
      end
    in
    Sim.Sched.obs_emit (Phase_end Route);
    match node with
    | Some node ->
        Sim.Sched.obs_emit (Phase_begin Store);
        ignore (store_mem node.n_store probe);
        Sim.Sched.obs_emit (Phase_end Store);
        class_get
    | None ->
        if timed_out t rng si ~arrival n then class_timeout else go (n + 1)
  in
  go 0

(* Scans degrade first: a scan is shed — a cheap rejection, no store
   touched — when the request is already far behind its intended arrival
   (the service is overloaded) or the first touched shard is freshly
   recovered (it is rebuilding; point ops may proceed, bulk reads wait).
   An executed scan probes [scan_width] consecutive keys with per-key
   failover; any key with both copies down times the scan out. *)
let do_scan t ~arrival key =
  let w = t.cfg.workload in
  let si0 = shard_of t key in
  let behind = Sim.Sched.now () - arrival > deadline / 2 in
  Sim.Sched.obs_emit (Phase_begin Route);
  let first_h, _ = refresh t si0 t.shards.(si0).primary in
  Sim.Sched.obs_emit (Phase_end Route);
  if behind || first_h = Recovering then begin
    Probe.incr t.k_sheds;
    Probe.incr t.shard_ctr.(si0).c_sheds;
    class_shed
  end
  else begin
    let hi = min w.keys (key + scan_width - 1) in
    let all_served = ref true in
    let k = ref key in
    Sim.Sched.obs_emit (Phase_begin Store);
    while !all_served && !k <= hi do
      let si = shard_of t !k in
      let sh = t.shards.(si) in
      let p_h, _ = refresh t si sh.primary in
      let node =
        if p_h <> Down then Some sh.primary
        else begin
          let r_h, _ = refresh t si sh.replica in
          if r_h <> Down then begin
            Probe.incr t.k_failovers;
            Probe.incr t.shard_ctr.(si).c_failovers;
            Some sh.replica
          end
          else None
        end
      in
      (match node with
      | Some node ->
          let probe = if t.last_acked.(!k) <> 0 then t.last_acked.(!k) else !k in
          ignore (store_mem node.n_store probe);
          Sim.Sched.work 32
      | None -> all_served := false);
      incr k
    done;
    Sim.Sched.obs_emit (Phase_end Store);
    if !all_served then class_scan
    else begin
      Probe.incr t.k_timeouts;
      Probe.incr t.shard_ctr.(si0).c_timeouts;
      class_timeout
    end
  end

(* ------------------------------------------------------------------ *)
(* Client loop                                                         *)

(* Open-loop arrivals: each client advances an intended-arrival clock by
   gap + jitter per request, independent of completions. Ahead of
   schedule means idle until the arrival; behind schedule means the
   request queued, and its measured latency includes the queueing delay —
   the open-loop property that makes overload visible as tail latency
   instead of silently throttling the load. *)
let client t lat tid =
  let w = t.cfg.workload in
  let rng = Rng.create ((t.cfg.seed * 65_599) + tid) in
  let z = Harness.Zipf.create ~range:w.keys ~alpha in
  let next_arrival = ref 0 in
  while not (Sim.Sched.stop_requested ()) do
    let arrival = !next_arrival in
    let now = Sim.Sched.now () in
    if now < arrival then Sim.Sched.work (arrival - now);
    let in_burst = w.burst_every > 0 && arrival mod w.burst_every < burst_len in
    let gap = if in_burst then max 1 (w.gap / burst_factor) else w.gap in
    next_arrival := arrival + gap + Rng.below rng (max 1 (gap / 4));
    let in_storm = arrival mod storm_every < storm_len in
    let key =
      if in_storm then Harness.Zipf.popular z (Rng.below rng (min hot_keys w.keys))
      else Harness.Zipf.sample z rng
    in
    let r = Rng.below rng 100 in
    Sim.Sim_rt.on_fault Rt.Rt_intf.Op_boundary;
    (* Request markers: id 0 is the untraced sentinel (real ids start at
       1). Queueing delay elapsed before this point, so it travels as a
       precomputed-duration phase instant rather than a span. *)
    let trace_id =
      if Obs.Journal.recording () then begin
        let kind =
          if r < w.read_pct then "get"
          else if r < w.read_pct + w.scan_pct then "scan"
          else "put"
        in
        let id = Obs.Journal.next_req_id () in
        Sim.Sched.obs_emit (Obs.Journal.Req_begin (kind, id));
        let q = Sim.Sched.now () - arrival in
        if q > 0 then
          Sim.Sched.obs_emit (Phase_elapsed (Queue, q));
        if in_storm then
          Sim.Sched.obs_emit (Instant (Storm, None));
        id
      end
      else 0
    in
    let cls =
      if r < w.read_pct then do_get t rng ~arrival key
      else if r < w.read_pct + w.scan_pct then do_scan t ~arrival key
      else begin
        let uid = t.next_uid in
        t.next_uid <- uid + 1;
        let req =
          {
            q_uid = uid;
            q_key = key;
            q_kind = Put;
            q_elems = [];
            q_acked = false;
            q_attempts = 0;
          }
        in
        Harness.History.Log.record t.log req (fun () ->
            do_put t rng ~arrival req)
      end
    in
    if trace_id <> 0 && Obs.Journal.recording () then
      Sim.Sched.obs_emit (Obs.Journal.Req_end (lat_classes.(cls), trace_id));
    let d = Sim.Sched.now () - arrival in
    Harness.Pstats.record lat.(cls) d;
    Harness.Pstats.record t.shard_lat.(shard_of t key) d;
    Sim.Sched.tick ()
  done

(* ------------------------------------------------------------------ *)
(* Oracle                                                              *)

(* Count, per put, how many distinct attempt-elements are visible in the
   key's shard pair. An element present in both copies counts once —
   that is replication, not duplication. Runs post-quiesce, outside the
   simulation, so the membership probes cost nothing. *)
let check_oracle t : oracle =
  let lost = ref [] and lost_unw = ref [] and dup = ref [] in
  let acked = ref 0 and ghosts = ref 0 in
  Harness.History.Log.iter t.log (fun req ->
      match req.q_kind with
      | Get | Scan -> ()
      | Put ->
          let si = shard_of t req.q_key in
          let sh = t.shards.(si) in
          let visible =
            List.length
              (List.filter
                 (fun e ->
                   store_mem sh.primary.n_store e
                   || store_mem sh.replica.n_store e)
                 req.q_elems)
          in
          if req.q_acked then begin
            incr acked;
            if visible = 0 then begin
              lost := (req.q_uid, req.q_key) :: !lost;
              (* A voided pair lost a copy before catching up: the f = 1
                 contract permits exactly those losses. Anywhere else a
                 lost ack means the warranty was forged. *)
              if sh.s_warranty <> Voided then
                lost_unw := (req.q_uid, req.q_key) :: !lost_unw
            end
            else if visible > 1 then
              dup := (req.q_uid, req.q_key, visible) :: !dup
          end
          else if visible > 0 then incr ghosts);
  {
    ok = !lost = [] && !dup = [];
    warranted_ok = !lost_unw = [] && !dup = [];
    acked_writes = !acked;
    lost = List.rev !lost;
    lost_unwarranted = List.rev !lost_unw;
    duplicated = List.rev !dup;
    ghost_writes = !ghosts;
  }

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)

(* A rolling-failure plan: [count] crashes dealt round-robin over the
   shard pairs, one every [stagger] requests (op-boundary checkpoints
   are one per client request), each down for [down_for] cycles (0 =
   until a recover, i.e. forever unless the plan has one). Round
   r = i/nshards alternates which copy is hit — even rounds crash the
   primary, odd rounds the replica — so a long plan exercises both
   directions of the resync. Under the re-armable warranty [count] may
   exceed [nshards]: each pair legally absorbs one crash per completed
   resync. Such schedules need a finite [down_for] (the pair must heal
   between its crashes) and a [stagger] that spans the resync window
   (down_for + degraded_cycles + the copy itself). *)
let rolling_plan ?(seed = 7) ~nshards ~count ~down_for ~stagger () =
  if count > nshards && down_for <= 0 then
    invalid_arg
      "Kv.rolling_plan: more crashes than pairs needs down_for > 0 (a pair \
       must heal before its next crash)";
  Sim.Fault.plan ~seed
    (List.init count (fun i ->
         let pair = i mod nshards and round = i / nshards in
         let store = if round land 1 = 1 then nshards + pair else pair in
         Sim.Fault.shard_crash
           ~hits:((i + 1) * stagger)
           ~down_for store Rt.Rt_intf.Op_boundary))

let format_events t =
  List.rev_map
    (fun (clk, msg) ->
      if clk = max_int then Printf.sprintf "t=post-run %s" msg
      else Printf.sprintf "t=%d %s" clk msg)
    t.events_rev

let run ?(record_obs = false) (cfg : config) :
    Harness.Runner.measurement * result =
  check cfg;
  Harness.World.reset ();
  let t = create cfg in
  (* Arm the resync probe so a plan's [resynccrash] specs can count
     checkpoints inside copy windows. The fault engine's [clear] (run
     teardown) resets it, so the closure never outlives the run. *)
  Sim.Fault.set_resync_probe (fun store ->
      let n = cfg.nshards in
      let si = if store < n then store else store - n in
      si >= 0 && si < n && t.shards.(si).s_resync);
  (* The resync class exists only under a fault plan (resync runs after
     crashes, and only fault plans crash stores), keeping the measured
     output of fault-free configurations byte-identical to the
     pre-resync service. *)
  let classes =
    if cfg.plan <> None then Array.append lat_classes [| "resync" |]
    else lat_classes
  in
  (* Always install a plan — an empty one when none was given — so the
     fault engine's shard tables are reset per run instead of leaking a
     previous run's crash epochs into this one's refresh/quiesce. *)
  let faults =
    match cfg.plan with
    | Some p -> p
    | None -> Sim.Fault.plan ~seed:cfg.seed []
  in
  (* The journal stops with the run, before [quiesce], so post-run
     repair probes don't pollute the trace. *)
  let m =
    Harness.Runner.simulate ~name:("kv/" ^ cfg.rep) ~topology:cfg.topo
      ~nthreads:cfg.threads ~ops:cfg.ops ~seed:cfg.seed ~faults ~record_obs
      ~classes (client t)
  in
  quiesce t;
  let oracle = check_oracle t in
  (* Each size is a fold over every bucket of a store: take them once. *)
  let shard_sizes =
    Array.map
      (fun sh -> (store_size sh.primary.n_store, store_size sh.replica.n_store))
      t.shards
  in
  let final_size =
    Array.fold_left (fun a (p, r) -> a + p + r) 0 shard_sizes
  in
  let valid =
    Array.for_all
      (fun sh -> store_valid sh.primary.n_store && store_valid sh.replica.n_store)
      t.shards
  in
  let m =
    {
      m with
      eff_update_pct =
        100. *. float_of_int (Probe.count t.k_acked)
        /. float_of_int (max 1 m.ops);
      lat =
        Array.mapi
          (fun c s ->
            (* the resync class is recorded service-side (the copier
               runs inside refresh), not per client thread *)
            if classes.(c) = "resync" then
              Harness.Pstats.summarize [ t.resync_lat ]
            else s)
          m.lat;
      (* post-run wipes in [quiesce] count too *)
      counters = Probe.dump ();
      final_size;
      valid;
    }
  in
  let result =
    {
      res_oracle = oracle;
      res_events = format_events t;
      res_warranty = Array.map (fun sh -> sh.s_warranty) t.shards;
      res_shard_sizes = shard_sizes;
      res_shard_lat =
        Array.map (fun p -> Harness.Pstats.summarize [ p ]) t.shard_lat;
      res_trace = Option.map (fun o -> o.Obs.Profile.s_record) m.obs;
    }
  in
  (m, result)

(* ------------------------------------------------------------------ *)
(* Report section                                                      *)

module J = Obs.Report

let policy_json (p : policy) : J.json =
  J.Obj
    [
      ("deadline", J.Int deadline);
      ("max_retries", J.Int max_retries);
      ("backoff_base", J.Int backoff_base);
      ("backoff_cap", J.Int backoff_cap);
      ("replicate", J.Bool p.replicate);
      ("idempotent", J.Bool p.idempotent);
      ("degraded_cycles", J.Int p.degraded_cycles);
      ("resync_batch", J.Int p.resync_batch);
      ("resync_dual_write", J.Bool p.resync_dual_write);
      ("resync_fencing", J.Bool p.resync_fencing);
    ]

(* The kv-specific report section: the oracle verdict, the failover
   timeline (strings — the diff's flattener skips arrays by design) and
   per-shard final sizes. *)
let report_section (cfg : config) (r : result) : string * J.json =
  let o = r.res_oracle in
  ( "kv",
    J.Obj
      [
        ("rep", J.Str cfg.rep);
        ("shards", J.Int cfg.nshards);
        ("policy", policy_json cfg.policy);
        ( "oracle",
          J.Obj
            [
              ("ok", J.Bool o.ok);
              ("warranted_ok", J.Bool o.warranted_ok);
              ("acked_writes", J.Int o.acked_writes);
              ("lost", J.Int (List.length o.lost));
              ("lost_unwarranted", J.Int (List.length o.lost_unwarranted));
              ("duplicated", J.Int (List.length o.duplicated));
              ("ghost_writes", J.Int o.ghost_writes);
            ] );
        ("failover_events", J.Arr (List.map (fun e -> J.Str e) r.res_events));
        ( "per_shard",
          J.Obj
            (Array.to_list
               (Array.mapi
                  (fun i (p, rr) ->
                    let s = r.res_shard_lat.(i) in
                    ( Printf.sprintf "s%d" i,
                      J.Obj
                        [
                          ("primary_size", J.Int p);
                          ("replica_size", J.Int rr);
                          ("warranty", J.Str (warranty_name r.res_warranty.(i)));
                          ("n", J.Int s.Harness.Pstats.n);
                          ("p50", J.Int s.Harness.Pstats.p50);
                          ("p95", J.Int s.Harness.Pstats.p95);
                          ("p99", J.Int s.Harness.Pstats.p99);
                          ("p999", J.Int s.Harness.Pstats.p999);
                        ] ))
                  r.res_shard_sizes)) );
      ] )

(* The printed verdict (and the CLI exit code) follows [warranted_ok]:
   a loss inside a voided pair is the one outage the f = 1 contract
   permits, so it prints as a PASS that names the damage; any other
   loss or any duplicate is a FAIL. *)
let pp_oracle ppf (o : oracle) =
  if o.warranted_ok then begin
    if o.lost = [] then
      Format.fprintf ppf "oracle: PASS (%d acked writes, %d ghost writes)"
        o.acked_writes o.ghost_writes
    else
      Format.fprintf ppf
        "oracle: PASS (out of warranty: %d acked writes lost in voided \
         pairs; %d acked, %d ghost)"
        (List.length o.lost) o.acked_writes o.ghost_writes
  end
  else begin
    Format.fprintf ppf
      "oracle: FAIL (%d acked writes: %d lost in warranty, %d out, %d \
       duplicated)"
      o.acked_writes
      (List.length o.lost_unwarranted)
      (List.length o.lost - List.length o.lost_unwarranted)
      (List.length o.duplicated);
    List.iter
      (fun (uid, key) ->
        Format.fprintf ppf "@\n  LOST uid=%d key=%d (acked, not visible)" uid
          key)
      o.lost_unwarranted;
    List.iter
      (fun (uid, key, n) ->
        Format.fprintf ppf "@\n  DUPLICATED uid=%d key=%d (%d copies visible)"
          uid key n)
      o.duplicated
  end
