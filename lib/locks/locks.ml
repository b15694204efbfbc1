(** Classic spin-lock algorithms used as baselines by the paper.

    The evaluation methodology (§5) uses test-and-set locks in the
    non-OPTIK data structures, MCS queue locks where a lock is heavily
    contended (global-lock structures, queues), and TTAS in the Figure-5
    lock microbenchmark. All are functors over {!Rt.Rt_intf.RT} so they run
    both natively and under the simulator. *)

module type RT = Rt.Rt_intf.RT

module Backoff = Rt.Backoff

(* Alias taken before the functor parameters shadow [Rt]: every lock
   reports fault/liveness checkpoints ([Fp.Critical_enter] right after an
   acquisition, [Fp.Critical_exit] just before the releasing store,
   [Fp.Lock_wait] once per wait-loop probe) through [Rt.on_fault]. *)
module Fp = Rt.Rt_intf

(** Test-and-set: the simplest spinlock. Every acquisition attempt is an
    atomic exchange, i.e. a full coherence transaction even when the lock
    is held — which is why it behaves terribly under contention. *)
module Tas (Rt : RT) = struct
  module B = Backoff.Make (Rt)

  type t = bool Rt.atomic

  let create () = Rt.atomic false

  let trylock t =
    let ok = Rt.cas t false true in
    if ok then Rt.on_fault Fp.Critical_enter;
    ok

  let lock t =
    Rt.Probe.span "tas.acquire" (fun () ->
        let b = B.create () in
        while not (Rt.cas t false true) do
          Rt.on_fault Fp.Lock_wait;
          B.once b
        done);
    Rt.on_fault Fp.Critical_enter

  let unlock t =
    Rt.on_fault Fp.Critical_exit;
    Rt.set t false

  let is_locked t = Rt.get t
end

(** Test-and-test-and-set: spin on a plain read (cache-local once the line
    is shared) and only attempt the CAS when the lock is observed free. *)
module Ttas (Rt : RT) = struct
  module B = Backoff.Make (Rt)

  type t = bool Rt.atomic

  let create () = Rt.atomic false

  let trylock t =
    let ok = (not (Rt.get t)) && Rt.cas t false true in
    if ok then Rt.on_fault Fp.Critical_enter;
    ok

  let lock t =
    Rt.Probe.span "ttas.acquire" (fun () ->
        let b = B.create () in
        let rec loop () =
          if Rt.get t then (
            Rt.on_fault Fp.Lock_wait;
            Rt.pause ();
            loop ())
          else if not (Rt.cas t false true) then (
            Rt.on_fault Fp.Lock_wait;
            B.once b;
            loop ())
        in
        loop ());
    Rt.on_fault Fp.Critical_enter

  let unlock t =
    Rt.on_fault Fp.Critical_exit;
    Rt.set t false

  let is_locked t = Rt.get t
end

(** MCS queue lock (Mellor-Crummey & Scott): each waiter spins on its own
    node, so handoff causes exactly one line transfer and throughput stays
    flat under contention — until oversubscription, where FIFO handoff to a
    descheduled thread collapses it (visible in Figure 12 of the paper).

    Queue nodes are allocated per acquisition and the holder's node is
    remembered per thread id, supporting up to {!max_threads} threads. *)
module Mcs (Rt : RT) = struct
  module B = Backoff.Make (Rt)

  type qnode = { locked : bool Rt.atomic; next : qnode option Rt.atomic }

  let max_threads = 128

  type t = { tail : qnode option Rt.atomic; mine : qnode option array }

  let create () =
    { tail = Rt.atomic None; mine = Array.make max_threads None }

  (* [t.mine] keeps the exact [Some node] value that was stored into
     [t.tail], because unlock's CAS compares physical identity. *)
  let mk_qnode locked =
    let l = Rt.atomic locked in
    { locked = l; next = Rt.atomic_with l None }

  let lock t =
    Rt.Probe.span "mcs.acquire" (fun () ->
        let me = mk_qnode true in
        let me_opt = Some me in
        t.mine.(Rt.tid ()) <- me_opt;
        match Rt.exchange t.tail me_opt with
        | None -> ()
        | Some pred ->
            Rt.set pred.next me_opt;
            (* Spin on our own node; escalate gently to keep handoff
               fast. *)
            let s = B.spin ~max_pauses:16 () in
            while Rt.get me.locked do
              Rt.on_fault Fp.Lock_wait;
              B.spin_once s
            done);
    Rt.on_fault Fp.Critical_enter

  let trylock t =
    let me = mk_qnode false in
    let me_opt = Some me in
    if Rt.cas t.tail None me_opt then (
      t.mine.(Rt.tid ()) <- me_opt;
      Rt.on_fault Fp.Critical_enter;
      true)
    else false

  let unlock t =
    let tid = Rt.tid () in
    match t.mine.(tid) with
    | None -> invalid_arg "Mcs.unlock: not the holder"
    | Some me as me_opt -> (
        Rt.on_fault Fp.Critical_exit;
        t.mine.(tid) <- None;
        match Rt.get me.next with
        | Some succ -> Rt.set succ.locked false
        | None ->
            if not (Rt.cas t.tail me_opt None) then (
              (* A successor is linking itself in; wait for it. *)
              let rec wait () =
                match Rt.get me.next with
                | Some succ -> Rt.set succ.locked false
                | None ->
                    Rt.pause ();
                    wait ()
              in
              wait ()))

  let is_locked t = match Rt.get t.tail with None -> false | Some _ -> true
end

(** {1 Per-key transactional lock handles}

    A [Handle.t] is a first-class capability over one version lock — in
    practice one version stripe of an object in a multi-object
    transaction (see {!Stripes}). It is what a transaction manager sorts
    and acquires at commit: OCaml has no pointer ordering, so every
    handle carries a process-unique integer [id] standing in for the
    lock's address; acquiring handles in ascending [id] order makes the
    classic sorted-two-phase commit deadlock-free.

    Handles speak {e version tokens} (plain [int]s, opaque to this
    module): the token [wait] returned is what [acquire]/[check]
    validate against. All closures capture the underlying lock, so a
    handle stays valid as long as its lock. *)
module Handle = struct
  type t = {
    id : int;  (** process-unique; the sort key replacing lock addresses *)
    wait : unit -> int;
        (** Spin until the version is free and return its token: the
            first step of a versioned read. *)
    acquire : int -> bool;
        (** [acquire token] locks iff the version still matches [token] —
            the OPTIK single-CAS validate-and-lock. *)
    acquire_any : unit -> int;
        (** Blocking acquire with no validation; returns the version
            token captured at acquisition (for post-hoc read
            validation of blind writes — or for deliberately broken
            commit protocols in negative-control tests). *)
    commit : unit -> unit;  (** release, advancing the version *)
    revert : unit -> unit;  (** release with the version unchanged *)
    check : int -> bool;
        (** [check token]: version still current and lock free. *)
  }

  let compare a b = Int.compare a.id b.id
  let equal a b = a.id = b.id

  (* Id-range allocator for handle ids. Creation-order determinism is
     all that matters (ids only ever order lock acquisition); stripes
     are created single-threadedly when a transaction's objects are
     packed, which the deterministic simulator serializes. The counter
     is domain-local so fleet worker domains allocate independent,
     pristine sequences. *)
  let next_base_key : int ref Domain.DLS.key =
    Domain.DLS.new_key (fun () -> ref 0)

  let fresh_base n =
    let next_base = Domain.DLS.get next_base_key in
    let b = !next_base in
    next_base := b + n;
    b

  (* Restart the id sequence (world reset); handles created before the
     reset must be dropped with their structures. *)
  let reset_ids () = Domain.DLS.get next_base_key := 0
end

(** [Stripes (Rt).create n]: [n] fresh OPTIK version locks
    ({!Optik.Versioned}) and their handles, with consecutive ids from one
    {!Handle.fresh_base} range. A transactional object maps each key to
    one stripe: several stripes let independent keys validate and lock
    independently, one stripe versions the whole object. The locks are
    allocated first, in stripe order, then the id range is drawn. *)
module Stripes (Rt : RT) = struct
  module OL = Optik.Versioned (Rt)

  (* A token packs (free version, stripe). Versioned-lock words advance
     by 2 per commit, leaving 42 usable version bits here — years of
     simulated commits. *)
  let stripe_bits = 20
  let stripe_mask = (1 lsl stripe_bits) - 1
  let token ~stripe v = (v lsl stripe_bits) lor stripe
  let token_stripe tok = tok land stripe_mask
  let token_version tok = tok asr stripe_bits

  let handle ~id l sp =
    {
      Handle.id;
      wait = (fun () -> token ~stripe:sp (OL.get_version_wait l));
      acquire =
        (fun tok ->
          token_stripe tok = sp && OL.trylock_version l (token_version tok));
      acquire_any =
        (fun () ->
          let rec go () =
            let v = OL.get_version_wait l in
            if OL.trylock_version l v then token ~stripe:sp v else go ()
          in
          go ());
      commit = (fun () -> OL.unlock l);
      revert = (fun () -> OL.revert l);
      check =
        (fun tok ->
          token_stripe tok = sp
          &&
          let v = OL.get_version l in
          (not (OL.is_locked v)) && OL.same_version v (token_version tok));
    }

  let create n =
    if n < 1 || n > stripe_mask then invalid_arg "Locks.Stripes.create";
    let vlocks = Array.init n (fun _ -> OL.create ()) in
    let base = Handle.fresh_base n in
    Array.mapi (fun sp l -> handle ~id:(base + sp) l sp) vlocks
end
