(** Optimistic multi-object transactions over the versioned registry API.

    The OPTIK pattern validates a version and acquires a lock in one CAS;
    this module lifts that into a transaction layer over {e any group} of
    registered structures, in the spirit of object-based optimistic STMs
    built from versioned objects:

    - the {e read phase} collects values with their version tokens
      ({!Dstruct.Dstruct_intf.VERSIONED_OPS.read_versioned});
    - {e commit} acquires the write set's per-key lock handles in
      ascending handle-id order (the classic sorted two-phase commit, so
      no two transactions can deadlock), where a handle also covered by
      the read set is acquired with [Locks.Handle.acquire] — the OPTIK
      single-CAS validate-and-lock — and a blind write with
      [acquire_any];
    - the remaining read set is then revalidated ([Locks.Handle.check]),
      buffered writes are applied, a commit ticket is drawn from the
      manager's clock, and the handles are released version-advancing.

    Failures release everything version-preserving ([revert]) and retry
    the whole transaction: classic optimistic abort, counted under the
    wasted-work taxonomy ([txn.aborts], split into [txn.vfail-txn-lock]
    and [txn.vfail-txn-read]).

    {e Read-only transactions never abort}: {!Make.snapshot} re-runs its
    read phase until a second version check over the whole read set
    passes — no locks taken, no writes undone, just re-reads (counted as
    [txn.snapshot-retries]). On success the snapshot was atomic at some
    point between the two clock readings it returns, which is what the
    serializability oracle checks.

    Isolation holds between transactions only: plain [insert]/[delete]
    on a structure do not advance overlay versions, so keys under
    transactional ownership must only be mutated transactionally (see
    {!Dstruct.Dstruct_intf.VERSIONED_OPS}). *)

module type SET_OPS = Dstruct.Dstruct_intf.SET_OPS

(* Phase-span names for the trace contract ({!Obs.Tracectx}),
   precomputed so a span's recording-off cost is one flag load — no
   concatenation, no allocation (PR 4 discipline). *)
let ph_acquire = Obs.Tracectx.(span_name Acquire)
let ph_validate = Obs.Tracectx.(span_name Validate)
let ph_commit = Obs.Tracectx.(span_name Commit)
let ph_backoff = Obs.Tracectx.(span_name Backoff)

module Make (Rt : Rt.Rt_intf.RT) = struct
  type policy =
    | Optimistic  (** the real protocol *)
    | Broken_commit
        (** negative control: locks are taken without version validation
            and the read set is never revalidated, so stale reads commit
            — the serializability oracle must catch this *)

  (* One structure participating in transactions. Packed once at setup:
     [oid] keys the per-transaction read/write buffers, and packing
     forces the structure's versioned overlay into existence while still
     single-threaded. *)
  type obj =
    | Obj : {
        oid : int;
        ops : (module SET_OPS with type t = 'a);
        st : 'a;
      }
        -> obj

  (* Domain-local like every other id source, so fleet worker domains
     number their objects from 1 no matter which trials ran before. *)
  let next_oid_key : int ref Domain.DLS.key =
    Domain.DLS.new_key (fun () -> ref 0)

  let obj (type a) (module S : SET_OPS with type t = a) (st : a) : obj =
    (* Touch the overlay now (key 0 only selects a stripe; the structure
       itself is not accessed) so no lazy allocation races the run. *)
    ignore (S.lock_handle st 0 : Locks.Handle.t);
    let next_oid = Domain.DLS.get next_oid_key in
    incr next_oid;
    Obj { oid = !next_oid; ops = (module S); st }

  (* Restart object numbering (world reset); objects packed before the
     reset must be dropped with their structures. *)
  let reset_oids () = Domain.DLS.get next_oid_key := 0

  let obj_id (Obj { oid; _ }) = oid

  let obj_read (Obj { ops = (module S); st; _ }) k = S.read_versioned st k
  let obj_handle (Obj { ops = (module S); st; _ }) k = S.lock_handle st k

  (* Quiescent helpers over the packed structure, for oracles. *)
  let obj_fold (Obj { ops = (module S); st; _ }) f acc = S.fold st f acc
  let obj_size (Obj { ops = (module S); st; _ }) = S.size st
  let obj_validate (Obj { ops = (module S); st; _ }) = S.validate st

  (* Transactional writes are upserts; [insert] alone no-ops on a
     present key. The delete+insert window is safe: the key's stripe
     lock is held, so versioned readers wait and conflicting commits
     fail validation. *)
  let obj_write (Obj { ops = (module S); st; _ }) k v =
    ignore (S.delete st k : int option);
    match v with
    | Some v -> ignore (S.insert st k v : bool)
    | None -> ()

  type rentry = {
    r_oid : int;
    r_key : int;
    r_val : int option;
    r_tok : int;
    r_handle : Locks.Handle.t;
  }

  type wentry = {
    w_obj : obj;
    w_key : int;
    w_val : int option;
    w_handle : Locks.Handle.t;
  }

  (** Per-transaction context: buffered read and write sets (newest
      first). Nothing touches shared state except through the packed
      objects. *)
  type ctx = {
    mutable reads : rentry list;
    mutable writes : wentry list;
    ro : bool;
  }

  type t = {
    policy : policy;
    clock : int Rt.atomic;  (** commit tickets; also the snapshot window *)
    max_retries : int;
    backoff : int -> unit;  (** called with the attempt number on abort *)
    c_commits : Rt.Probe.counter;
    c_snapshots : Rt.Probe.counter;
    c_aborts : Rt.Probe.counter;
    c_vfail_lock : Rt.Probe.counter;
    c_vfail_read : Rt.Probe.counter;
    c_snap_retries : Rt.Probe.counter;
  }

  exception Too_many_retries of int

  (* Counters are created here, not at module initialization, so a
     process that never runs a transaction registers no [txn.*] probes
     (run reports and probe audits only see what actually ran). *)
  let create ?(policy = Optimistic) ?(max_retries = max_int)
      ?(backoff = fun _ -> ()) () =
    {
      policy;
      clock = Rt.atomic 0;
      max_retries;
      backoff;
      c_commits = Rt.Probe.counter "txn.commits";
      c_snapshots = Rt.Probe.counter "txn.snapshots";
      c_aborts = Rt.Probe.counter "txn.aborts";
      c_vfail_lock = Rt.Probe.counter "txn.vfail-txn-lock";
      c_vfail_read = Rt.Probe.counter "txn.vfail-txn-read";
      c_snap_retries = Rt.Probe.counter "txn.snapshot-retries";
    }

  let clock t = Rt.get t.clock

  let read ctx o k =
    let oid = obj_id o in
    let buffered =
      List.find_opt (fun w -> obj_id w.w_obj = oid && w.w_key = k) ctx.writes
    in
    match buffered with
    | Some w -> w.w_val (* read-your-writes *)
    | None -> (
        match
          List.find_opt (fun r -> r.r_oid = oid && r.r_key = k) ctx.reads
        with
        | Some r -> r.r_val (* repeatable read *)
        | None ->
            let v, tok = obj_read o k in
            ctx.reads <-
              {
                r_oid = oid;
                r_key = k;
                r_val = v;
                r_tok = tok;
                r_handle = obj_handle o k;
              }
              :: ctx.reads;
            v)

  let write ctx o k v =
    if ctx.ro then invalid_arg "Txn.write: read-only transaction";
    ctx.writes <-
      { w_obj = o; w_key = k; w_val = v; w_handle = obj_handle o k }
      :: ctx.writes

  (* Effective write set: the newest buffered write per (object, key). *)
  let dedupe_writes ws =
    let seen = Hashtbl.create 8 in
    List.filter
      (fun w ->
        let key = (obj_id w.w_obj, w.w_key) in
        if Hashtbl.mem seen key then false
        else begin
          Hashtbl.add seen key ();
          true
        end)
      ws

  (* The commit lock set: one handle per id, ascending. *)
  let lock_set ws =
    List.sort_uniq Locks.Handle.compare (List.map (fun w -> w.w_handle) ws)

  let release_revert held = List.iter (fun (h, _) -> h.Locks.Handle.revert ()) held

  (* Returns [Some ticket] on commit, [None] on abort (probes already
     bumped; everything released version-preserving). *)
  let try_commit t ctx =
    let ws = dedupe_writes ctx.writes in
    let expected (h : Locks.Handle.t) =
      List.find_map
        (fun r -> if r.r_handle.Locks.Handle.id = h.id then Some r.r_tok else None)
        ctx.reads
    in
    let rec acquire held = function
      | [] -> Ok held
      | (h : Locks.Handle.t) :: rest -> (
          let got =
            match (t.policy, expected h) with
            | Optimistic, Some tok -> if h.acquire tok then Some tok else None
            | Optimistic, None | Broken_commit, _ -> Some (h.acquire_any ())
          in
          match got with
          | Some tok -> acquire ((h, tok) :: held) rest
          | None -> Error held)
    in
    Rt.Probe.span_begin ph_acquire;
    let acquired = acquire [] (lock_set ws) in
    Rt.Probe.span_end ph_acquire;
    match acquired with
    | Error held ->
        release_revert held;
        Rt.Probe.incr t.c_vfail_lock;
        Rt.Probe.incr t.c_aborts;
        None
    | Ok held ->
        let read_ok (r : rentry) =
          match
            List.find_opt
              (fun ((h : Locks.Handle.t), _) -> h.id = r.r_handle.Locks.Handle.id)
              held
          with
          | Some (_, tok_at_acquire) ->
              (* We hold this stripe; compare against the version we
                 locked at (an [acquire_any] may have slipped past a
                 conflicting commit). *)
              tok_at_acquire = r.r_tok
          | None -> r.r_handle.Locks.Handle.check r.r_tok
        in
        Rt.Probe.span_begin ph_validate;
        let valid =
          match t.policy with
          | Broken_commit -> true
          | Optimistic -> List.for_all read_ok ctx.reads
        in
        Rt.Probe.span_end ph_validate;
        if not valid then begin
          release_revert held;
          Rt.Probe.incr t.c_vfail_read;
          Rt.Probe.incr t.c_aborts;
          None
        end
        else begin
          Rt.Probe.span_begin ph_commit;
          List.iter (fun w -> obj_write w.w_obj w.w_key w.w_val) ws;
          let ticket = Rt.faa t.clock 1 in
          List.iter (fun ((h : Locks.Handle.t), _) -> h.commit ()) held;
          Rt.Probe.incr t.c_commits;
          Rt.Probe.span_end ph_commit;
          Some ticket
        end

  let atomically t (f : ctx -> 'a) : 'a * int =
    let rec go attempt =
      if attempt > t.max_retries then raise (Too_many_retries attempt);
      let ctx = { reads = []; writes = []; ro = false } in
      let x = f ctx in
      match try_commit t ctx with
      | Some ticket -> (x, ticket)
      | None ->
          Rt.Probe.event Obs.Tracectx.ev_retry;
          Rt.Probe.span_begin ph_backoff;
          t.backoff attempt;
          Rt.Probe.span_end ph_backoff;
          go (attempt + 1)
    in
    go 0

  (** [snapshot t f] runs [f] against an atomic snapshot and returns
      [(result, c0, c1)]: the snapshot was consistent at some commit
      ticket in [c0..c1]. Abort-free: validation failure just re-reads. *)
  let snapshot t (f : ctx -> 'a) : 'a * int * int =
    let rec go attempt =
      let c0 = Rt.get t.clock in
      let ctx = { reads = []; writes = []; ro = true } in
      let x = f ctx in
      let ok =
        List.for_all (fun r -> r.r_handle.Locks.Handle.check r.r_tok) ctx.reads
      in
      if ok then begin
        Rt.Probe.incr t.c_snapshots;
        (x, c0, Rt.get t.clock)
      end
      else begin
        Rt.Probe.incr t.c_snap_retries;
        Rt.Probe.span_begin ph_backoff;
        t.backoff attempt;
        Rt.Probe.span_end ph_backoff;
        go (attempt + 1)
      end
    in
    go 0
end

(* ------------------------------------------------------------------ *)
(* Contending transfer workload and strict-serializability oracle      *)

(** A bank-transfer workload over several registry structures at once —
    the end-to-end exerciser for the transaction layer, and the vehicle
    for its oracle.

    Each of [objects] structures holds [accounts] accounts (keys
    [1 .. accounts]) preloaded with [initial] units. Clients run
    {e transfers} (read two accounts — usually in two different
    structures — and move a few units atomically) and {e audits}
    (snapshot-read every account and sum). Because transfers only move
    units, {e every} audit must see exactly
    [objects * accounts * initial] — a violation is a non-atomic
    snapshot the moment it happens.

    The oracle then replays the committed transfers in commit-ticket
    order against a sequential model: every transfer's recorded reads
    must match the replayed state (a mismatch means a stale read
    committed — exactly what [Broken_commit] produces), every audit's
    reads must match the replayed state at {e some} point inside its
    clock window, and the final structures must equal the replayed
    model. Together that is strict serializability of the committed
    history: commits act at a single point between invocation and
    response, in ticket order.

    The history is flat so the oracle can be plain loops over ints: a
    record's reads and writes are [int array]s of [o; k; v] triples,
    with {!absent} standing for [None], and the oracle builds nothing
    per read. *)
module Workload = struct
  module T = Make (Sim.Sim_rt)
  module Probe = Sim.Sim_rt.Probe
  module R = Harness.Registry

  type config = {
    rep : string;  (** structure representation backing every object *)
    objects : int;
    accounts : int;  (** account keys [1 .. accounts] per object *)
    initial : int;  (** preloaded balance per account *)
    threads : int;
    ops : int;  (** requests to serve (scheduler ticks) *)
    seed : int;
    transfer_pct : int;  (** remainder are snapshot audits *)
    topo : Sim.Topology.t;
    broken : bool;  (** run the [Broken_commit] negative control *)
  }

  let default_config =
    {
      rep = "ll-optik";
      objects = 4;
      accounts = 16;
      initial = 100;
      threads = 8;
      ops = 4_000;
      seed = 42;
      transfer_pct = 70;
      topo = Sim.Topology.xeon;
      broken = false;
    }

  (* Representations by qualified name, as in the KV service: native
     per-key striping for the OPTIK families, the structure-wide version
     wrapper for the lock-free/lazy reps. *)
  let reps : (string * (module SET_OPS)) list =
    [
      ("ll-optik", R.Sim_backend.ll_optik);
      ("map-optik", R.Sim_backend.map_optik);
      ("ht-optik", R.Sim_backend.ht_optik);
      ("sl-optik", R.Sim_backend.sl_optik2);
      ("bst-optik", R.Sim_backend.bst_optik);
      ("ll-lazy", R.Sim_backend.ll_lazy_);
      ("ll-harris", R.Sim_backend.ll_harris);
    ]

  let rep_names = List.map fst reps

  let rep_module name =
    match List.assoc_opt name reps with
    | Some m -> m
    | None ->
        invalid_arg
          (Printf.sprintf "Txn: unknown rep %S (known: %s)" name
             (String.concat ", " rep_names))

  (* ---------------- history ---------------- *)

  type kind = Transfer | Audit

  (** The value a record stores for an absent key. Real balances never
      reach it, and {!encode} rejects a present value equal to it, so
      [Some absent] cannot be recorded. *)
  let absent = min_int

  (** A read or written value as a record stores it. *)
  let encode = function
    | None -> absent
    | Some v when v = absent ->
        invalid_arg "Txn.Workload.encode: value is the absent sentinel"
    | Some v -> v

  (* One request record in the crash-aware log. Fields are overwritten
     at the start of every optimistic attempt, so a committed record
     carries exactly the attempt that won. *)
  type xrec = {
    x_kind : kind;
    mutable x_committed : bool;
    mutable x_ticket : int;  (** transfers: serialization position *)
    mutable x_c0 : int;  (** audits: clock before the read phase ... *)
    mutable x_c1 : int;  (** ... and after validation *)
    mutable x_reads : int array;
        (** flat [o; k; v] triples: object index, account key and the
            {!encode}d versioned-read result, compared verbatim by the
            replay; an audit's read of [(o, k)] is triple
            [o * accounts + k - 1] *)
    mutable x_writes : int array;  (** [o; k; v] triples, as [x_reads] *)
  }

  let fresh_rec kind =
    {
      x_kind = kind;
      x_committed = false;
      x_ticket = -1;
      x_c0 = 0;
      x_c1 = 0;
      x_reads = [||];
      x_writes = [||];
    }

  (* ---------------- oracle ---------------- *)

  type oracle = {
    ok : bool;
    transfers : int;  (** committed transfers replayed *)
    audits : int;  (** committed audits positioned *)
    conserved : bool;
    total : int;  (** final sum over every account *)
    expected_total : int;
    violations : string list;  (** empty iff serializable and conserved *)
  }

  (* Account [(o, k)] lives in model slot [o * accounts + (k - 1)];
     anything outside [[0, objects) x [1, accounts]] has no slot (-1)
     and is absent. *)
  let slot (cfg : config) o k =
    if o >= 0 && o < cfg.objects && k >= 1 && k <= cfg.accounts then
      (o * cfg.accounts) + k - 1
    else -1

  let pp_v v = if v = absent then "absent" else string_of_int v

  (* Strict serializability by replay (see the module comment). Runs
     post-run outside the simulation, on quiesced structures, over the
     records [iter_records] visits.

     Everything is plain loops over int arrays: the model is one [int]
     per slot, and instead of a copy of the model after every commit the
     replay logs each commit's writes as steps — three flat arrays
     [st_slot], [st_before], [st_after], commit [i]'s steps being
     [off.(i) .. off.(i+1) - 1]. The audits are then positioned by one
     forward sweep over the steps. *)
  let check_serializable (cfg : config) (iter_records : (xrec -> unit) -> unit)
      (objs : T.obj array) : oracle =
    let violations = ref [] in
    let bad fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
    let n = ref 0 and na = ref 0 and nw = ref 0 in
    iter_records (fun x ->
        if x.x_committed then
          match x.x_kind with
          | Transfer ->
              incr n;
              nw := !nw + (Array.length x.x_writes / 3)
          | Audit -> incr na);
    let n = !n in
    (* Commit tickets come from one fetch-and-add clock, so they should
       be exactly 0 .. n-1. A stable sort by ticket lays the transfers
       out, and the check below reports every position that holds the
       wrong ticket. *)
    let blank = fresh_rec Transfer in
    let transfers = Array.make n blank and audits = Array.make !na blank in
    let nt = ref 0 and next_audit = ref 0 in
    iter_records (fun x ->
        if x.x_committed then
          match x.x_kind with
          | Transfer ->
              transfers.(!nt) <- x;
              incr nt
          | Audit ->
              audits.(!next_audit) <- x;
              incr next_audit);
    Array.stable_sort (fun a b -> Int.compare a.x_ticket b.x_ticket) transfers;
    Array.iteri
      (fun i x ->
        if x.x_ticket <> i then
          bad "ticket sequence broken: position %d holds ticket %d" i x.x_ticket)
      transfers;
    (* Replay transfers in ticket order, logging their steps. *)
    let slots = cfg.objects * cfg.accounts in
    let model = Array.make slots cfg.initial in
    let get s = if s < 0 then absent else model.(s) in
    let st_slot = Array.make !nw 0
    and st_before = Array.make !nw 0
    and st_after = Array.make !nw 0 in
    let off = Array.make (n + 1) 0 and w = ref 0 in
    for i = 0 to n - 1 do
      let x = transfers.(i) in
      let r = x.x_reads in
      for j = 0 to (Array.length r / 3) - 1 do
        let o = r.(3 * j) and k = r.((3 * j) + 1) and v = r.((3 * j) + 2) in
        let m = get (slot cfg o k) in
        if m <> v then
          bad "txn %d read (%d,%d) = %s but the serialized state had %s" i o k
            (pp_v v) (pp_v m)
      done;
      off.(i) <- !w;
      let ws = x.x_writes in
      for j = 0 to (Array.length ws / 3) - 1 do
        let o = ws.(3 * j) and k = ws.((3 * j) + 1) and v = ws.((3 * j) + 2) in
        let s = slot cfg o k in
        if s < 0 then bad "txn %d wrote (%d,%d), which is no account" i o k
        else begin
          st_slot.(!w) <- s;
          st_before.(!w) <- model.(s);
          st_after.(!w) <- v;
          model.(s) <- v;
          incr w
        end
      done
    done;
    off.(n) <- !w;
    (* Every audit must equal the replayed state at some position inside
       its clock window — the snapshot had a serialization point. Audits
       are visited by ascending clamped [lo], so one [cursor] state only
       moves forward. [diff] counts the audit's reads the state at [lo]
       disagrees with; stepping through commits [lo .. hi-1] moves it
       only on slots the audit read ([owner]); the audit matches iff it
       is 0 at some position [<= hi]. *)
    let clamp c = max 0 (min c n) in
    let order = Array.init (Array.length audits) Fun.id in
    Array.stable_sort
      (fun i j -> Int.compare (clamp audits.(i).x_c0) (clamp audits.(j).x_c0))
      order;
    let cursor = Array.make slots cfg.initial and pos = ref 0 in
    let owner = Array.make slots (-1) and want = Array.make slots 0 in
    let matched = Array.make (Array.length audits) false in
    Array.iter
      (fun id ->
        let a = audits.(id) in
        let lo = clamp a.x_c0 and hi = clamp a.x_c1 in
        for j = off.(!pos) to off.(lo) - 1 do
          cursor.(st_slot.(j)) <- st_after.(j)
        done;
        pos := lo;
        (* Nothing can match a read of no account that saw a value, nor
           one slot read as two values. *)
        let diff = ref 0 and possible = ref (lo <= hi) in
        let r = a.x_reads in
        for j = 0 to (Array.length r / 3) - 1 do
          let s = slot cfg r.(3 * j) r.((3 * j) + 1) and v = r.((3 * j) + 2) in
          if s < 0 then (if v <> absent then possible := false)
          else if owner.(s) = id then (if want.(s) <> v then possible := false)
          else begin
            owner.(s) <- id;
            want.(s) <- v;
            if cursor.(s) <> v then incr diff
          end
        done;
        let p = ref lo in
        while !possible && !diff > 0 && !p < hi do
          for j = off.(!p) to off.(!p + 1) - 1 do
            let s = st_slot.(j) in
            if owner.(s) = id then begin
              if st_before.(j) <> want.(s) then decr diff;
              if st_after.(j) <> want.(s) then incr diff
            end
          done;
          incr p
        done;
        matched.(id) <- !possible && !diff = 0)
      order;
    Array.iteri
      (fun id a ->
        if not matched.(id) then
          bad "audit (clock window %d..%d) matches no serialization point"
            a.x_c0 a.x_c1)
      audits;
    (* The final structures must be exactly the replayed model... *)
    Array.iteri
      (fun o ob ->
        T.obj_fold ob
          (fun k v () ->
            let m = get (slot cfg o k) in
            if m = absent || m <> v then
              bad "final state (%d,%d) = %d disagrees with the replay (%s)" o
                k v (pp_v m))
          ();
        if T.obj_size ob <> cfg.accounts then
          bad "object %d holds %d accounts, expected %d" o (T.obj_size ob)
            cfg.accounts)
      objs;
    (* ... and transfers only move units, so the total is invariant. *)
    let total =
      Array.fold_left (fun acc ob -> T.obj_fold ob (fun _ v a -> a + v) acc) 0 objs
    in
    let expected_total = cfg.objects * cfg.accounts * cfg.initial in
    let conserved = total = expected_total in
    if not conserved then
      bad "conservation broken: accounts sum to %d, expected %d" total
        expected_total;
    {
      ok = !violations = [];
      transfers = n;
      audits = Array.length audits;
      conserved;
      total;
      expected_total;
      violations = List.rev !violations;
    }

  (* ---------------- client loop ---------------- *)

  let lat_classes = [| "transfer"; "audit" |]
  let class_transfer = 0
  let class_audit = 1

  let client cfg (objs : T.obj array) mgr log lat tid =
    let rng = Harness.Rng.create ((cfg.seed * 65_599) + tid) in
    let pick_slot () =
      let o = Harness.Rng.below rng cfg.objects in
      let k = 1 + Harness.Rng.below rng cfg.accounts in
      (o, k)
    in
    while not (Sim.Sched.stop_requested ()) do
      let t0 = Sim.Sched.now () in
      Sim.Sim_rt.on_fault Rt.Rt_intf.Op_boundary;
      (* Hoisted so the request kind is known for [Req_begin] without
         perturbing the sampling sequence. Id 0 = untraced sentinel. *)
      let is_transfer = Harness.Rng.below rng 100 < cfg.transfer_pct in
      let trace_id =
        if Obs.Journal.recording () then begin
          let id = Obs.Tracectx.next_id () in
          Sim.Sched.obs_emit
            (Obs.Journal.Req_begin
               ((if is_transfer then "transfer" else "audit"), id));
          id
        end
        else 0
      in
      let cls =
        if is_transfer then begin
          let o1, k1 = pick_slot () in
          let rec pick_dst () =
            let o2, k2 = pick_slot () in
            if o1 = o2 && k1 = k2 then pick_dst () else (o2, k2)
          in
          let o2, k2 = pick_dst () in
          let amount = 1 + Harness.Rng.below rng 5 in
          let x = fresh_rec Transfer in
          Harness.History.Log.record log x (fun () ->
              let (), ticket =
                T.atomically mgr (fun ctx ->
                    let r1 = T.read ctx objs.(o1) k1 in
                    let r2 = T.read ctx objs.(o2) k2 in
                    let v1 = Option.value ~default:0 r1 in
                    let v2 = Option.value ~default:0 r2 in
                    (* insufficient funds: transfer nothing, still commit *)
                    let amt = if v1 >= amount then amount else 0 in
                    let w1 = Some (v1 - amt) and w2 = Some (v2 + amt) in
                    T.write ctx objs.(o1) k1 w1;
                    T.write ctx objs.(o2) k2 w2;
                    x.x_reads <- [| o1; k1; encode r1; o2; k2; encode r2 |];
                    x.x_writes <- [| o1; k1; encode w1; o2; k2; encode w2 |])
              in
              x.x_ticket <- ticket;
              x.x_committed <- true);
          class_transfer
        end
        else begin
          let x = fresh_rec Audit in
          let reads = Array.make (3 * cfg.objects * cfg.accounts) 0 in
          Harness.History.Log.record log x (fun () ->
              let (), c0, c1 =
                T.snapshot mgr (fun ctx ->
                    for o = cfg.objects - 1 downto 0 do
                      for k = cfg.accounts downto 1 do
                        let i = 3 * ((o * cfg.accounts) + k - 1) in
                        reads.(i) <- o;
                        reads.(i + 1) <- k;
                        reads.(i + 2) <- encode (T.read ctx objs.(o) k)
                      done
                    done)
              in
              x.x_reads <- reads;
              x.x_c0 <- c0;
              x.x_c1 <- c1;
              x.x_committed <- true);
          class_audit
        end
      in
      if trace_id <> 0 && Obs.Journal.recording () then
        Sim.Sched.obs_emit (Obs.Journal.Req_end (lat_classes.(cls), trace_id));
      Harness.Pstats.record lat.(cls) (Sim.Sched.now () - t0);
      Sim.Sched.tick ()
    done

  (* ---------------- driver ---------------- *)

  type result = {
    res_oracle : oracle;
    res_commits : int;
    res_aborts : int;
    res_vfail_lock : int;
    res_vfail_read : int;
    res_snapshots : int;
    res_snap_retries : int;
    res_trace : Obs.Journal.record option;
        (** the raw journal when [run ~record_obs:true]; feeds
            {!Obs.Attrib} and the trace exporters *)
  }

  let make_objects cfg (m : (module SET_OPS)) =
    let (module S) = m in
    Array.init cfg.objects (fun _ ->
        let st = S.create ~capacity:(max 64 (4 * cfg.accounts)) () in
        for k = 1 to cfg.accounts do
          ignore (S.insert st k cfg.initial : bool)
        done;
        T.obj (module S) st)

  let run ?(record_obs = false) (cfg : config) :
      Harness.Runner.measurement * result =
    if cfg.objects < 1 || cfg.accounts < 1 || cfg.objects * cfg.accounts < 2
    then invalid_arg "Txn.Workload: need at least two account slots";
    if cfg.threads < 1 || cfg.ops < 1 then
      invalid_arg "Txn.Workload: threads and ops must be positive";
    if cfg.transfer_pct < 0 || cfg.transfer_pct > 100 then
      invalid_arg "Txn.Workload: transfer_pct must be in [0,100]";
    Dstruct.Sl_common.reset_states ();
    let objs = make_objects cfg (rep_module cfg.rep) in
    let mgr =
      T.create
        ~policy:(if cfg.broken then T.Broken_commit else T.Optimistic)
        ~backoff:(fun n ->
          (* deterministic bounded exponential, de-synchronized by tid *)
          Sim.Sched.work ((64 lsl min n 6) + (17 * (Sim.Sched.tid () + 1))))
        ()
    in
    let log = Harness.History.Log.create ~nthreads:cfg.threads in
    let m =
      Harness.Runner.simulate ~name:("txn/" ^ cfg.rep) ~topology:cfg.topo
        ~nthreads:cfg.threads ~ops:cfg.ops ~seed:cfg.seed
        ~faults:(Sim.Fault.plan ~seed:cfg.seed [])
        ~record_obs ~classes:lat_classes (client cfg objs mgr log)
    in
    let oracle = check_serializable cfg (Harness.History.Log.iter log) objs in
    let commits = Probe.count mgr.T.c_commits in
    let valid = Array.for_all T.obj_validate objs in
    let final_size = Array.fold_left (fun a ob -> a + T.obj_size ob) 0 objs in
    let m =
      {
        m with
        eff_update_pct =
          100. *. float_of_int commits /. float_of_int (max 1 m.ops);
        final_size;
        valid;
      }
    in
    let result =
      {
        res_oracle = oracle;
        res_commits = commits;
        res_aborts = Probe.count mgr.T.c_aborts;
        res_vfail_lock = Probe.count mgr.T.c_vfail_lock;
        res_vfail_read = Probe.count mgr.T.c_vfail_read;
        res_snapshots = Probe.count mgr.T.c_snapshots;
        res_snap_retries = Probe.count mgr.T.c_snap_retries;
        res_trace = Option.map (fun o -> o.Obs.Profile.s_record) m.obs;
      }
    in
    (m, result)

  (* ---------------- report section and printing ---------------- *)

  module J = Obs.Report

  let report_section (cfg : config) (r : result) : string * J.json =
    let o = r.res_oracle in
    ( "txn",
      J.Obj
        [
          ("rep", J.Str cfg.rep);
          ("objects", J.Int cfg.objects);
          ("accounts", J.Int cfg.accounts);
          ( "policy",
            J.Str (if cfg.broken then "broken-commit" else "optimistic") );
          ("commits", J.Int r.res_commits);
          ("aborts", J.Int r.res_aborts);
          ("snapshots", J.Int r.res_snapshots);
          ("snapshot_retries", J.Int r.res_snap_retries);
          ( "oracle",
            J.Obj
              [
                ("ok", J.Bool o.ok);
                ("transfers", J.Int o.transfers);
                ("audits", J.Int o.audits);
                ("conserved", J.Bool o.conserved);
                ("total", J.Int o.total);
                ("expected_total", J.Int o.expected_total);
                ("violations", J.Int (List.length o.violations));
              ] );
        ] )

  let pp_oracle ppf (o : oracle) =
    if o.ok then
      Format.fprintf ppf
        "oracle: PASS (%d transfers serializable, %d audits atomic, %d/%d conserved)"
        o.transfers o.audits o.total o.expected_total
    else begin
      Format.fprintf ppf "oracle: FAIL (%d violations over %d transfers, %d audits)"
        (List.length o.violations)
        o.transfers o.audits;
      List.iteri
        (fun i v -> if i < 8 then Format.fprintf ppf "@\n  VIOLATION %s" v)
        o.violations;
      if List.length o.violations > 8 then
        Format.fprintf ppf "@\n  ... and %d more"
          (List.length o.violations - 8)
    end

  let pp_result ppf (r : result) =
    Format.fprintf ppf
      "commits=%d aborts=%d (vfail-lock=%d vfail-read=%d) snapshots=%d retries=%d@\n%a"
      r.res_commits r.res_aborts r.res_vfail_lock r.res_vfail_read
      r.res_snapshots r.res_snap_retries pp_oracle r.res_oracle
end
