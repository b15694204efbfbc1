(** Optimistic multi-object transactions over registered structures.

    The OPTIK pattern validates a version and acquires a lock in one CAS;
    this module lifts that into a transaction layer over {e any group} of
    registered structures, in the spirit of object-based optimistic STMs
    built from versioned objects. Each structure joins as an {!Make.obj}
    with its own array of version stripes ({!Locks.Stripes}): a key maps
    to one stripe, whose OPTIK version lock versions every key on it.

    - the {e read phase} collects values with their version tokens: wait
      for the key's stripe to be free, search the structure, and re-check
      the stripe's version, retrying the read if a commit moved it; or,
      for a whole object at once ({!Make.read_object}), wait for every
      stripe and fold the structure once, leaving the fold to the
      snapshot's clock gate and validation;
    - {e commit} acquires the write set's per-key lock handles in
      ascending handle-id order (the classic sorted two-phase commit, so
      no two transactions can deadlock), where a handle also covered by
      the read set is acquired with [Locks.Handle.acquire] — the OPTIK
      single-CAS validate-and-lock — and a blind write with
      [acquire_any];
    - the remaining read set is then revalidated ([Locks.Handle.check]),
      a commit ticket is drawn from the manager's clock, buffered writes
      are applied (on an {!IN_PLACE} object, at the nodes the reads
      located), and the handles are released version-advancing. The
      ticket precedes the first write, so a snapshot whose clock did not
      move saw no write of a commit it does not serialize after.

    Failures release everything version-preserving ([revert]), wait a
    bounded exponential number of cycles staggered by thread id, and
    retry the whole transaction: classic optimistic abort, counted under
    the wasted-work taxonomy ([txn.aborts], split into
    [txn.vfail-txn-lock] and [txn.vfail-txn-read]).

    {e Read-only transactions never abort}: {!Make.snapshot} takes no
    locks and undoes nothing. Its first round may read whole objects
    with {!Make.read_object}; later rounds read per key. It reads the
    manager's clock once before its first round and once after each
    round's reads (TL2's global version clock used as a gate): if no
    commit drew a ticket in between, the read set is the committed state
    before that ticket and needs no validation, the folds of
    {!Make.read_object} included. Otherwise it checks the read set,
    keeps every read whose token still checks and re-reads only the
    stale ones (one [txn.snapshot-retries] per round): at once after the
    first failed round, and after one {!Rt.Backoff} wait, the jittered
    exponential backoff every structure uses, after each later one.
    Either way the clock read that ends the round is the snapshot's
    exact serialization ticket [c]: every read precedes it, every check
    follows it, and a stripe locked or advanced across it fails its
    check. The
    serializability oracle checks the audit against the replayed state
    after tickets [< c].

    Isolation holds between transactions only: plain [insert]/[delete]
    on a structure do not advance stripe versions, so keys under
    transactional ownership must only be mutated transactionally. *)

module type SET_OPS = Dstruct.Dstruct_intf.SET_OPS
module type IN_PLACE = Dstruct.Dstruct_intf.IN_PLACE

(** [reinsert (module S) t k v]: a transaction's write of a present key
    of a set that cannot write in place: delete [k] and, if it was
    present, insert it with [v]. Between the two a concurrent search
    misses the key, so the caller must hold the key's stripe. *)
let reinsert (type a) (module S : SET_OPS with type t = a) (t : a) k v =
  match S.delete t k with
  | None -> false
  | Some _ ->
      ignore (S.insert t k v : bool);
      true

module Backoff = Rt.Backoff

(* Phases and retries are journaled through the simulator's scheduler
   whatever the backend: a native instance never records, so each costs
   it one flag load. *)
module Make (Rt : Rt.Rt_intf.RT) = struct
  module B = Backoff.Make (Rt)

  type policy =
    | Optimistic  (** the real protocol *)
    | Broken_commit
        (** negative control: locks are taken without version validation
            and the read set is never revalidated, so stale reads commit
            — the serializability oracle must catch this *)
    | Broken_snapshot
        (** negative control: a snapshot retry trusts the reads an
            earlier validation kept and checks only the re-read ones, so
            a kept read that went stale during the retry is returned —
            the audit oracle must catch this *)
    | Broken_gate
        (** negative control: after a failed snapshot validation the next
            round's gate value is read when that round starts, after the
            check (and, from the second retry on, after the backoff)
            instead of before the check, so a commit between a kept read's
            check and that clock read passes the gate unvalidated — the
            audit oracle must catch this *)
    | Broken_ticket
        (** negative control: a commit applies its writes before it draws
            its ticket, so a value it wrote during a {!read_object} fold
            joins the read set with the token taken before that commit;
            when the ticket follows the round's closing clock read, the
            gate passes it unchecked — the audit oracle must catch this *)

  (* One structure participating in transactions, with its version
     stripes and its {!IN_PLACE} view, if any. Packed once at setup: the
     packed value itself (compared with [==]) keys the per-transaction
     read/write buffers. *)
  type obj =
    | Obj : {
        ops : (module SET_OPS with type t = 'a);
        in_place : (module IN_PLACE with type t = 'a) option;
        st : 'a;
        stripes : Locks.Handle.t array;
      }
        -> obj

  let obj (type a) (module S : SET_OPS with type t = a) (st : a) stripes : obj
      =
    Obj { ops = (module S); in_place = None; st; stripes }

  let obj_in_place (type a) (module I : IN_PLACE with type t = a) (st : a)
      stripes : obj =
    Obj { ops = (module I); in_place = Some (module I); st; stripes }

  (* The stripe of key [k] among [n]. *)
  let stripe_of n k = ((k mod n) + n) mod n

  (* The commit lock covering a key: its stripe's handle. *)
  let obj_handle (Obj { stripes; _ }) k =
    stripes.(stripe_of (Array.length stripes) k)

  let unlocated (_ : int) = false (* the write of a key no read located *)

  (* Atomic-snapshot read: the value, a version token that the key's
     handle [check]s until its stripe commits again, and the write at
     the node an {!IN_PLACE} [find] located (a host closure). Spins only
     while the stripe is mid-commit. *)
  let rec obj_read (Obj { ops = (module S); in_place; st; _ } as o) k =
    let h = obj_handle o k in
    let tok = h.Locks.Handle.wait () in
    let x, at =
      match in_place with
      | None -> (S.search st k, unlocated)
      | Some (module I) -> (
          match I.find st k with
          | None -> (None, unlocated)
          | Some (v, loc) -> (Some v, I.update_at loc))
    in
    if h.check tok then (x, tok, at) else obj_read o k

  (* Quiescent helpers over the packed structure, for oracles. *)
  let obj_fold (Obj { ops = (module S); st; _ }) f acc = S.fold st f acc
  let obj_size (Obj { ops = (module S); st; _ }) = S.size st
  let obj_validate (Obj { ops = (module S); st; _ }) = S.validate st

  type rentry = {
    r_obj : obj;
    r_key : int;
    r_val : int option;
    r_tok : int;
    r_handle : Locks.Handle.t;
    r_at : int -> bool;  (** the write at the located node *)
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
    mutable whole : bool;
        (** {!read_object} folds; a snapshot clears it after its first
            round *)
  }

  let new_ctx ~ro = { reads = []; writes = []; ro; whole = true }

  type t = {
    policy : policy;
    clock : int Rt.atomic;  (** commit tickets; also the snapshot gate *)
    c_commits : Rt.Probe.counter;
    c_snapshots : Rt.Probe.counter;
    c_aborts : Rt.Probe.counter;
    c_vfail_lock : Rt.Probe.counter;
    c_vfail_read : Rt.Probe.counter;
    c_snap_retries : Rt.Probe.counter;
  }

  (* Counters are created here, not at module initialization, so a
     process that never runs a transaction registers no [txn.*] probes
     (run reports and probe audits only see what actually ran). *)
  let create ?(policy = Optimistic) () =
    {
      policy;
      clock = Rt.atomic 0;
      c_commits = Rt.Probe.counter "txn.commits";
      c_snapshots = Rt.Probe.counter "txn.snapshots";
      c_aborts = Rt.Probe.counter ~kind:Abort "txn.aborts";
      c_vfail_lock = Rt.Probe.counter ~kind:Vfail "txn.vfail-txn-lock";
      c_vfail_read = Rt.Probe.counter ~kind:Vfail "txn.vfail-txn-read";
      c_snap_retries = Rt.Probe.counter ~kind:Snapshot_retry "txn.snapshot-retries";
    }

  let clock t = Rt.get t.clock

  let find_read ctx o k =
    List.find_opt (fun r -> r.r_obj == o && r.r_key = k) ctx.reads

  (* Transactional writes are upserts: a present key is written at the
     node its read located, or else by [update] or {!reinsert}; an absent
     one by [insert]; [None] by [delete]. Held stripe locks make every
     step safe (DESIGN.md, "Located in-place writes"). *)
  let obj_write ctx
      { w_obj = Obj { ops = (module S); in_place; st; _ } as o; w_key = k; w_val; _ } =
    match w_val with
    | None -> ignore (S.delete st k : int option)
    | Some v ->
        let at = match find_read ctx o k with Some r -> r.r_at | None -> unlocated in
        let written =
          at v
          ||
          match in_place with
          | Some (module I) -> I.update st k v
          | None -> reinsert (module S) st k v
        in
        if not written then ignore (S.insert st k v : bool)

  let read ctx o k =
    let buffered =
      List.find_opt (fun w -> w.w_obj == o && w.w_key = k) ctx.writes
    in
    match buffered with
    | Some w -> w.w_val (* read-your-writes *)
    | None -> (
        match find_read ctx o k with
        | Some r -> r.r_val (* repeatable read *)
        | None ->
            let v, tok, at = obj_read o k in
            ctx.reads <-
              {
                r_obj = o;
                r_key = k;
                r_val = v;
                r_tok = tok;
                r_handle = obj_handle o k;
                r_at = at;
              }
              :: ctx.reads;
            v)

  (** [read_object ctx o] reads every key of [o] in one pass: it waits
      for every stripe's free version and folds the structure once; each
      key the fold visits joins the read set with its stripe's token, so
      {!read} answers it from there, and a key the fold did not visit is
      read per key. Nothing is re-checked here: a commit draws its ticket
      before its first write and holds its stripes until after its last,
      so one that wrote a key during the fold either moved the clock
      before the round's closing read, and the snapshot's validation
      finds the stripe locked or advanced, or draws its ticket after that
      read and is not in the snapshot. A no-op after a snapshot's first
      round: retries re-read only the stale keys. *)
  let read_object ctx (Obj { ops = (module S); st; stripes; _ } as o) =
    if ctx.whole then begin
      let n = Array.length stripes in
      let toks = Array.map (fun (h : Locks.Handle.t) -> h.wait ()) stripes in
      let found =
        S.fold st
          (fun k v acc ->
            let s = stripe_of n k in
            {
              r_obj = o;
              r_key = k;
              r_val = Some v;
              r_tok = toks.(s);
              r_handle = stripes.(s);
              r_at = unlocated;
            }
            :: acc)
          []
      in
      ctx.reads <- List.rev_append found ctx.reads
    end

  let write ctx o k v =
    if ctx.ro then invalid_arg "Txn.write: read-only transaction";
    ctx.writes <-
      { w_obj = o; w_key = k; w_val = v; w_handle = obj_handle o k }
      :: ctx.writes

  (* Effective write set: the newest buffered write per (object, key),
     in buffer order. *)
  let dedupe_writes ws =
    let rec go kept = function
      | [] -> List.rev kept
      | w :: rest ->
          let same k = k.w_obj == w.w_obj && k.w_key = w.w_key in
          go (if List.exists same kept then kept else w :: kept) rest
    in
    go [] ws

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
            | Broken_commit, _ | _, None -> Some (h.acquire_any ())
            | _, Some tok -> if h.acquire tok then Some tok else None
          in
          match got with
          | Some tok -> acquire ((h, tok) :: held) rest
          | None -> Error held)
    in
    Sim.Sched.obs_emit (Phase_begin Acquire);
    let acquired = acquire [] (lock_set ws) in
    Sim.Sched.obs_emit (Phase_end Acquire);
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
        Sim.Sched.obs_emit (Phase_begin Validate);
        let valid =
          match t.policy with
          | Broken_commit -> true
          | _ -> List.for_all read_ok ctx.reads
        in
        Sim.Sched.obs_emit (Phase_end Validate);
        if not valid then begin
          release_revert held;
          Rt.Probe.incr t.c_vfail_read;
          Rt.Probe.incr t.c_aborts;
          None
        end
        else begin
          Sim.Sched.obs_emit (Phase_begin Commit);
          let apply () = List.iter (obj_write ctx) ws in
          let late = t.policy = Broken_ticket in
          if late then apply ();
          let ticket = Rt.faa t.clock 1 in
          if not late then apply ();
          List.iter (fun ((h : Locks.Handle.t), _) -> h.commit ()) held;
          Rt.Probe.incr t.c_commits;
          Sim.Sched.obs_emit (Phase_end Commit);
          Some ticket
        end

  let atomically t (f : ctx -> 'a) : 'a * int =
    let rec go attempt =
      let ctx = new_ctx ~ro:false in
      let x = f ctx in
      match try_commit t ctx with
      | Some ticket -> (x, ticket)
      | None ->
          Sim.Sched.obs_emit (Instant (Retry, None));
          Sim.Sched.obs_emit (Phase_begin Backoff);
          (* deterministic bounded exponential, de-synchronized by tid *)
          Rt.work ((64 lsl min attempt 6) + (17 * (Rt.tid () + 1)));
          Sim.Sched.obs_emit (Phase_end Backoff);
          go (attempt + 1)
    in
    go 0

  (* [reads] without the entries whose token no longer checks. The
     result is physically [reads] iff every entry checks, so a passing
     validation allocates nothing. The suffix from [trusted] on is kept
     without a check. *)
  let rec drop_stale ~trusted reads =
    if reads == trusted then reads
    else
      match reads with
      | [] -> []
      | r :: rest ->
          let ok = r.r_handle.Locks.Handle.check r.r_tok in
          let rest' = drop_stale ~trusted rest in
          if not ok then rest' else if rest' == rest then reads else r :: rest'

  (** [snapshot t f] runs [f] against an atomic snapshot and returns
      [(result, c)]: the snapshot equals the committed state after
      tickets [0 .. c-1]. Abort-free: a round whose reads a commit may
      have overlapped keeps every read whose token still checks, drops
      the stale ones and runs [f] again, so only the stale keys are
      re-read (the kept ones answer as repeatable reads). The first retry
      runs at once: it re-reads only the few stale keys, so its round is
      short, and a wait would only widen the window a commit can land in.
      Each later retry first waits [B.once] on the snapshot's own backoff
      state, so a snapshot that keeps losing the race backs off with the
      same jittered exponential every structure uses.

      The gate: [c] is the clock read after a round's reads, and a commit
      locks its stripes, draws its ticket, writes and only then unlocks.
      A commit whose ticket is [c] or later writes after [c], so no read
      of the round saw it. One whose ticket precedes the gate value (the
      clock read before the first round, or after the previous round's
      reads) held its stripes across that read, so the round's waits
      outlasted it or saw its writes. If [c] equals the gate, no other
      commit exists and validation is skipped; otherwise one with a
      ticket in [[gate, c)] locked or advanced the stripe of every read
      it made stale, so the whole read set's check drops those. *)
  let snapshot t (f : ctx -> 'a) : 'a * int =
    let ctx = new_ctx ~ro:true in
    let b = B.create () in
    let rec go attempt kept gate =
      let x = f ctx in
      ctx.whole <- false;
      let c = Rt.get t.clock in
      let valid =
        if c = gate then ctx.reads
        else
          let trusted =
            match t.policy with Broken_snapshot -> kept | _ -> []
          in
          drop_stale ~trusted ctx.reads
      in
      if valid == ctx.reads then begin
        Rt.Probe.incr t.c_snapshots;
        (x, c)
      end
      else begin
        ctx.reads <- valid;
        Rt.Probe.incr t.c_snap_retries;
        if attempt > 0 then begin
          Sim.Sched.obs_emit (Phase_begin Backoff);
          B.once b;
          Sim.Sched.obs_emit (Phase_end Backoff)
        end;
        let gate =
          match t.policy with Broken_gate -> Rt.get t.clock | _ -> c
        in
        go (attempt + 1) valid gate
      end
    in
    go 0 [] (Rt.get t.clock)
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
    reads must match the replayed state at exactly its serialization
    ticket, and the final structures must equal the replayed model.
    Together that is strict serializability of the committed history:
    commits act at a single point between invocation and response, in
    ticket order.

    The history is flat so the oracle can be plain loops over ints: a
    record's reads and writes are [int array]s of [o; k; v] triples,
    with {!absent} standing for [None], and the oracle builds nothing
    per read. *)
module Workload = struct
  module T = Make (Sim.Sim_rt)
  module Probe = Sim.Sim_rt.Probe
  module R = Harness.Registry

  (** Preloaded balance per account. *)
  let initial = 100

  type config = {
    rep : string;  (** structure representation backing every object *)
    objects : int;
    accounts : int;  (** account keys [1 .. accounts] per object *)
    threads : int;
    ops : int;  (** requests to serve (scheduler ticks) *)
    seed : int;
    transfer_pct : int;  (** remainder are snapshot audits *)
    topo : Sim.Topology.t;
    broken : bool;  (** run the [Broken_commit] negative control *)
  }

  let default_config =
    {
      rep = "list/optik";
      objects = 4;
      accounts = 16;
      threads = 8;
      ops = 4_000;
      seed = 42;
      transfer_pct = 70;
      topo = Sim.Topology.xeon;
      broken = false;
    }

  (* The registry structures an object can be, each with its stripe
     count: 16 for the OPTIK families, enough that independent keys
     rarely share a commit lock at benchmark account counts; 1 for the
     lock-free/lazy reps, one version for the whole structure. The
     registry's [in_place] says which reps write at located nodes. *)
  let reps =
    [
      ("list/optik", 16);
      ("map/optik", 16);
      ("hashtable/optik", 16);
      ("skiplist/optik2", 16);
      ("bst/bst-optik", 16);
      ("list/lazy", 1);
      ("list/harris", 1);
    ]

  (** The set, its in-place view if any, and the stripe count of [name]. *)
  let rep name =
    let e = R.Sim_backend.find name in
    match List.assoc_opt name reps with
    | Some stripes -> (R.set_ops e, e.R.in_place, stripes)
    | None ->
        invalid_arg
          (Printf.sprintf "Txn: %s is not an object rep (reps: %s)" name
             (String.concat ", " (List.map fst reps)))

  (* Every knob of a config, in trial-token order, as for [Kv.knobs]. *)
  let knobs =
    let module K = Harness.Knob in
    let module Rg = Harness.Range in
    [
      K.text ~flag:"rep" ~docv:"REP" "rep"
        ~doc:
          ("Registry structure each bank object uses: "
          ^ String.concat " | " (List.map fst reps)
          ^ ".")
        (fun c -> Some c.rep) (fun c v -> { c with rep = v });
      K.int ~tok:'b' ~flag:"objects" "objects" Rg.positive
        ~doc:"Independent structures transactions span."
        (fun c -> c.objects) (fun c v -> { c with objects = v });
      K.int ~tok:'a' ~flag:"accounts" "accounts" Rg.positive
        ~doc:"Accounts per structure."
        (fun c -> c.accounts) (fun c v -> { c with accounts = v });
      K.int ~tok:'t' ~flag:"threads" "threads" Rg.threads ~doc:"Worker threads."
        (fun c -> c.threads) (fun c v -> { c with threads = v });
      K.int ~tok:'o' ~flag:"ops" "ops" Rg.positive ~doc:"Transactions to run."
        (fun c -> c.ops) (fun c v -> { c with ops = v });
      K.int ~tok:'X' ~flag:"transfer-pct" ~docv:"PCT" "transfer pct" Rg.pct
        ~doc:"Transfer percentage; the rest are read-only snapshot audits."
        (fun c -> c.transfer_pct) (fun c v -> { c with transfer_pct = v });
      K.int ~tok:'w' ~flag:"seed" "workload seed" Rg.any
        ~doc:"Workload seed: same seed, byte-identical output and report."
        (fun c -> c.seed) (fun c v -> { c with seed = v });
      K.bool ~tok:'!' ~flag:"broken" "broken"
        ~doc:
          "Deliberately broken commit protocol: skip commit-time validation, \
           so racing transfers commit on stale reads. The serializability \
           oracle must FAIL — the negative control."
        (fun c -> c.broken) (fun c v -> { c with broken = v });
    ]

  (* Every range rule of a run: [run] applies them, and so does the chaos
     trial grammar, so a flag and a trial string out of range get the
     same message. Both counts are positive by the account-slot rule, so
     two slots need one count of 2 or more, and no product can overflow. *)
  let check (cfg : config) =
    let fn = "Txn.Workload.check" in
    Harness.Knob.check fn knobs cfg;
    if max cfg.objects cfg.accounts < 2 then
      Harness.Range.fail fn "need at least two account slots"

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
    mutable x_at : int;
        (** audits: serialization point, the state after commits
            [0 .. x_at - 1] *)
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
      x_at = 0;
      x_reads = [||];
      x_writes = [||];
    }

  (* ---------------- oracle ---------------- *)

  type oracle = {
    ok : bool;
    transfers : int;  (** committed transfers replayed *)
    audits : int;  (** committed audits checked at their points *)
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
     replay logs each commit's writes as steps — two flat arrays
     [st_slot] and [st_after], commit [i]'s steps being
     [off.(i) .. off.(i+1) - 1]. The audits are then checked by one
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
    let n = !n and na = !na in
    (* Commit tickets come from one fetch-and-add clock, so they should
       be exactly 0 .. n-1, and each transfer goes straight to the
       position its ticket names. Otherwise a stable sort by ticket lays
       the transfers out, and the check below reports every position
       that holds the wrong ticket. *)
    let blank = fresh_rec Transfer in
    let transfers = Array.make n blank and audits = Array.make na blank in
    let placed = ref true and next_audit = ref 0 in
    iter_records (fun x ->
        if x.x_committed then
          match x.x_kind with
          | Transfer ->
              let i = x.x_ticket in
              if i >= 0 && i < n && transfers.(i) == blank then
                transfers.(i) <- x
              else placed := false
          | Audit ->
              audits.(!next_audit) <- x;
              incr next_audit);
    if not !placed then begin
      let nt = ref 0 in
      iter_records (fun x ->
          match x.x_kind with
          | Transfer when x.x_committed ->
              transfers.(!nt) <- x;
              incr nt
          | Transfer | Audit -> ());
      Array.stable_sort (fun a b -> Int.compare a.x_ticket b.x_ticket) transfers
    end;
    Array.iteri
      (fun i x ->
        if x.x_ticket <> i then
          bad "ticket sequence broken: position %d holds ticket %d" i x.x_ticket)
      transfers;
    (* Replay transfers in ticket order, logging their steps. *)
    let slots = cfg.objects * cfg.accounts in
    let model = Array.make slots initial in
    let get s = if s < 0 then absent else model.(s) in
    let st_slot = Array.make !nw 0 and st_after = Array.make !nw 0 in
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
          st_after.(!w) <- v;
          model.(s) <- v;
          incr w
        end
      done
    done;
    off.(n) <- !w;
    (* Every audit must equal the replayed state at exactly its point.
       Audits are visited by ascending point (a stable counting sort over
       the points in [0, n]), so one [cursor] state only moves forward.
       [miss.(id)] is the audit's first read the cursor disagrees with
       (-1: none) and [had.(id)] the cursor's value there. *)
    let inside (a : xrec) = a.x_at >= 0 && a.x_at <= n in
    let start = Array.make (n + 2) 0 in
    Array.iter
      (fun a -> if inside a then start.(a.x_at + 1) <- start.(a.x_at + 1) + 1)
      audits;
    for c = 1 to n + 1 do
      start.(c) <- start.(c) + start.(c - 1)
    done;
    let order = Array.make start.(n + 1) 0 in
    Array.iteri
      (fun id a ->
        if inside a then begin
          order.(start.(a.x_at)) <- id;
          start.(a.x_at) <- start.(a.x_at) + 1
        end)
      audits;
    let cursor = Array.make slots initial and pos = ref 0 in
    let miss = Array.make na (-1) and had = Array.make na 0 in
    Array.iter
      (fun id ->
        let a = audits.(id) and r = audits.(id).x_reads in
        for j = off.(!pos) to off.(a.x_at) - 1 do
          cursor.(st_slot.(j)) <- st_after.(j)
        done;
        pos := a.x_at;
        let j = ref 0 in
        while miss.(id) < 0 && !j < Array.length r / 3 do
          let s = slot cfg r.(3 * !j) r.((3 * !j) + 1) in
          let m = if s < 0 then absent else cursor.(s) in
          if m <> r.((3 * !j) + 2) then begin
            miss.(id) <- !j;
            had.(id) <- m
          end;
          incr j
        done)
      order;
    Array.iteri
      (fun id a ->
        let j = miss.(id) and r = a.x_reads in
        if not (inside a) then
          bad "audit at %d is outside the %d-commit history" a.x_at n
        else if j >= 0 then
          bad "audit at %d read (%d,%d) = %s but the serialized state had %s"
            a.x_at r.(3 * j) r.((3 * j) + 1)
            (pp_v r.((3 * j) + 2))
            (pp_v had.(id)))
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
    let expected_total = cfg.objects * cfg.accounts * initial in
    let conserved = total = expected_total in
    if not conserved then
      bad "conservation broken: accounts sum to %d, expected %d" total
        expected_total;
    {
      ok = !violations = [];
      transfers = n;
      audits = na;
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
          let id = Obs.Journal.next_req_id () in
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
              let (), at =
                T.snapshot mgr (fun ctx ->
                    for o = cfg.objects - 1 downto 0 do
                      T.read_object ctx objs.(o);
                      for k = cfg.accounts downto 1 do
                        let i = 3 * ((o * cfg.accounts) + k - 1) in
                        reads.(i) <- o;
                        reads.(i + 1) <- k;
                        reads.(i + 2) <- encode (T.read ctx objs.(o) k)
                      done
                    done)
              in
              x.x_reads <- reads;
              x.x_at <- at;
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

  module Stripes = Locks.Stripes (Sim.Sim_rt)

  (** [cfg.objects] structures of rep [cfg.rep], each preloaded with
      accounts [1 .. cfg.accounts] and then given its stripes. *)
  let make_objects cfg =
    let (module S : SET_OPS), in_place, stripes = rep cfg.rep in
    let make (type a) (module S : SET_OPS with type t = a) pack =
      Array.init cfg.objects (fun _ ->
          let st = S.create ~capacity:(max 64 (4 * cfg.accounts)) () in
          for k = 1 to cfg.accounts do
            ignore (S.insert st k initial : bool)
          done;
          pack st (Stripes.create stripes))
    in
    match in_place with
    | Some (module I) -> make (module I) (T.obj_in_place (module I))
    | None -> make (module S) (T.obj (module S))

  (** [policy] defaults to [Broken_commit] when [cfg.broken] is set and
      to [Optimistic] otherwise; passing it runs another negative
      control, such as [Broken_snapshot], [Broken_gate] or
      [Broken_ticket]. *)
  let run ?(record_obs = false) ?policy (cfg : config) :
      Harness.Runner.measurement * result =
    check cfg;
    Harness.World.reset ();
    let objs = make_objects cfg in
    let mgr =
      T.create
        ~policy:
          (match policy with
          | Some p -> p
          | None -> if cfg.broken then T.Broken_commit else T.Optimistic)
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
