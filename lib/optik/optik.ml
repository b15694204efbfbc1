(** The OPTIK-lock abstraction (§3.2 of the paper).

    An OPTIK lock couples a lock with a version number of the same
    granularity: the version counts completed critical sections on the
    protected data. The heart of the abstraction is
    {!OPTIK.trylock_version}, which merges lock acquisition with version
    validation in a {e single} compare-and-swap — if it succeeds, no
    conflicting critical section completed since the version was read, and
    the caller holds the lock. Failing threads never wait behind the lock
    only to fail validation afterwards, which is the inefficiency of
    classic lock-then-validate designs that Figure 5 quantifies. *)

module type OPTIK = sig
  type t
  type version

  val name : string
  (** Implementation name, ["versioned"] or ["ticket"]. *)

  val create : unit -> t
  (** A fresh, unlocked lock with the initial version. *)

  (** {1 Reading versions} *)

  val get_version : t -> version
  (** Current raw version (may be locked); non-blocking, acquire load. *)

  val get_version_wait : t -> version
  (** Spin until the lock is free and return that free version. Used by
      operations that must not overlap any critical section, e.g. the
      array-map search of §4.1. *)

  val is_locked : version -> bool
  (** Whether a version value was captured while the lock was held. *)

  val same_version : version -> version -> bool

  (** {1 Locking} *)

  val trylock_version : t -> version -> bool
  (** [trylock_version l v] acquires [l] iff it is free {e and} its version
      still equals [v] — one atomic step. Returns whether it acquired. *)

  val lock_version : t -> version -> bool
  (** Blocking acquire; returns whether the version at acquisition time
      still equals the argument (i.e. whether revalidation can be
      skipped). *)

  val lock : t -> unit
  (** Plain blocking acquire (the classic lock interface). *)

  val lock_backoff : t -> unit
  (** Blocking acquire with backoff proportional to queue distance where
      the implementation can know it (ticket), plain exponential backoff
      otherwise. *)

  val unlock : t -> unit
  (** Release and advance the version: signals a completed modification. *)

  val revert : t -> unit
  (** Release {e without} advancing the version: the critical section made
      no modification, so concurrent optimistic readers need not restart.
      On the ticket implementation this degrades to a version-advancing
      release when waiters are queued (see the module comment in
      {!Optik.Ticket}). *)

  (** {1 Contention introspection (§3.2, ticket-lock properties)} *)

  val num_queued : t -> int
  (** Number of threads waiting behind the current holder. Exact for the
      ticket implementation; always [0] for the versioned one (a versioned
      lock carries no queue information). Drives the victim-queue decision
      in §5.4. *)
end

(** OPTIK locks: both concrete implementations from §3.2 of the paper.

    - {!Versioned}: an 8-byte counter; even = free, odd = locked. This is
      the implementation Figure 4 lists and the default everywhere in the
      library (as in the paper's evaluation).
    - {!Ticket}: built on a ticket lock whose [curr] field doubles as the
      version number; additionally exposes real queue lengths
      ({!OPTIK.num_queued}) and distance-proportional backoff.

    Versions are OCaml [int]s. The paper discusses 32-bit (ticket) vs
    64-bit (versioned) overflow windows; OCaml ints give us 63 bits for the
    versioned flavour and 31 bits per half for the ticket flavour, matching
    the paper's C layouts. *)

module type RT = Rt.Rt_intf.RT

module Backoff = Rt.Backoff

(* Alias taken before the functor parameters shadow [Rt]: like the classic
   locks, OPTIK locks report fault/liveness checkpoints — [Critical_enter]
   right after any successful acquisition, [Critical_exit] just before the
   releasing store in [unlock]/[revert], [Lock_wait] once per wait-loop
   probe — through [Rt.on_fault]. *)
module Fp = Rt.Rt_intf

(** OPTIK lock over a versioned lock (Figure 4 of the paper). *)
module Versioned (Rt : RT) = struct
  module B = Backoff.Make (Rt)

  type t = int Rt.atomic
  type version = int

  let name = "versioned"

  (* A failed trylock_version is the OPTIK pattern's lock-acquire
     failure: counted (not just journalled) so run reports can fold it
     into the wasted-work accounting. Same-named counters share storage
     across functor instantiations within a backend. *)
  let trylock_fails = Rt.Probe.counter "optik.trylock-fail"

  let create () = Rt.atomic 0

  let get_version l = Rt.get l

  let is_locked v = v land 1 = 1

  let same_version (v0 : version) v1 = v0 = v1

  let get_version_wait l =
    Rt.Probe.span "optik.version-wait" (fun () ->
        let s = B.spin () in
        let rec loop () =
          let v = Rt.get l in
          if is_locked v then (
            Rt.on_fault Fp.Lock_wait;
            B.spin_once s;
            loop ())
          else v
        in
        loop ())

  (* The single-CAS heart of OPTIK: acquire iff free and unchanged. The
     [is_locked] check is required for correctness (never CAS an odd value
     to even); the equality check merely avoids doomed CAS attempts. *)
  let trylock_version l targetv =
    if is_locked targetv || Rt.get l <> targetv then (
      Rt.Probe.incr trylock_fails;
      false)
    else
      let ok = Rt.cas l targetv (targetv + 1) in
      if ok then Rt.on_fault Fp.Critical_enter
      else Rt.Probe.incr trylock_fails;
      ok

  let lock_version l targetv =
    let acquired =
      Rt.Probe.span "optik.acquire" (fun () ->
          let s = B.spin () in
          let rec loop () =
            let cur = Rt.get l in
            if is_locked cur then (
              Rt.on_fault Fp.Lock_wait;
              B.spin_once s;
              loop ())
            else if Rt.cas l cur (cur + 1) then cur
            else (
              Rt.on_fault Fp.Lock_wait;
              B.spin_once s;
              loop ())
          in
          loop ())
    in
    Rt.on_fault Fp.Critical_enter;
    acquired = targetv

  let lock l = ignore (lock_version l 0 : bool)

  let lock_backoff l =
    Rt.Probe.span "optik.acquire" (fun () ->
        let b = B.create () in
        let rec loop () =
          let cur = Rt.get l in
          if is_locked cur then (
            Rt.on_fault Fp.Lock_wait;
            B.once b;
            loop ())
          else if not (Rt.cas l cur (cur + 1)) then (
            Rt.on_fault Fp.Lock_wait;
            B.once b;
            loop ())
        in
        loop ());
    Rt.on_fault Fp.Critical_enter

  (* Holder-only updates: plain load + release store, like the C [*lock++]. *)
  let unlock l =
    Rt.on_fault Fp.Critical_exit;
    Rt.set l (Rt.get l + 1)

  let revert l =
    Rt.on_fault Fp.Critical_exit;
    Rt.set l (Rt.get l - 1)

  let num_queued _ = 0
end

(** OPTIK lock over a ticket lock. One OCaml int packs [curr] (low 31
    bits — the version) and [next] (high 31 bits — the ticket dispenser),
    mirroring the single 8-byte word of the C implementation, so
    lock-plus-validate is still a single CAS: [(v,v) -> (v,v+1)].

    [revert] is special: with waiters queued, [curr] {e must} advance for
    them to ever acquire, so a version-preserving revert is only possible
    when nobody grabbed a ticket meanwhile — we CAS [(v, v+1)] back to
    [(v, v)] and fall back to a normal unlock if that fails. The fallback
    only costs spurious validation failures, never correctness. *)
module Ticket (Rt : RT) = struct
  module B = Backoff.Make (Rt)

  type t = int Rt.atomic
  type version = int

  let name = "ticket"

  (* Shared with {!Versioned}'s counter of the same name (per backend). *)
  let trylock_fails = Rt.Probe.counter "optik.trylock-fail"

  let bits = 31
  let mask = (1 lsl bits) - 1
  let one_ticket = 1 lsl bits

  let create () = Rt.atomic 0

  let curr_of p = p land mask
  let next_of p = (p lsr bits) land mask
  let pack ~curr ~next = (next lsl bits) lor curr

  (* The version of a packed word is its [curr] half, tagged with a locked
     bit derived from [next <> curr] so [is_locked] works on captured
     versions. We represent a captured version as the full packed word. *)
  let get_version l = Rt.get l

  let is_locked v = curr_of v <> next_of v

  let same_version v0 v1 = curr_of v0 = curr_of v1

  let get_version_wait l =
    Rt.Probe.span "optik.version-wait" (fun () ->
        let s = B.spin () in
        let rec loop () =
          let p = Rt.get l in
          if is_locked p then (
            Rt.on_fault Fp.Lock_wait;
            B.spin_once s;
            loop ())
          else p
        in
        loop ())

  let trylock_version l targetv =
    if is_locked targetv then (
      Rt.Probe.incr trylock_fails;
      false)
    else
      let v = curr_of targetv in
      let expected = pack ~curr:v ~next:v in
      let ok =
        Rt.get l = expected
        && Rt.cas l expected (pack ~curr:v ~next:v + one_ticket)
      in
      if ok then Rt.on_fault Fp.Critical_enter
      else Rt.Probe.incr trylock_fails;
      ok

  let lock_version l targetv =
    let my =
      Rt.Probe.span "optik.acquire" (fun () ->
          let old = Rt.faa l one_ticket in
          let my = next_of old in
          let rec wait () =
            let cur = curr_of (Rt.get l) in
            if cur <> my then (
              Rt.on_fault Fp.Lock_wait;
              (* Backoff proportional to the distance from the queue
                 head. *)
              let dist = (my - cur + mask + 1) land mask in
              Rt.pause_n (if dist > 64 then 512 else dist * 8);
              wait ())
          in
          wait ();
          my)
    in
    Rt.on_fault Fp.Critical_enter;
    my = curr_of targetv

  let lock l = ignore (lock_version l 0 : bool)

  let lock_backoff l = lock l

  (* In C, releasing a ticket lock is a plain store to the separate
     [curr] half-word, which cannot race with the [xadd] on the ticket
     half. With both halves packed into one OCaml int, a read-modify-write
     release would race with concurrent ticket grabs (lost update), so
     the release must be an atomic increment of the packed word. *)
  let unlock l =
    Rt.on_fault Fp.Critical_exit;
    ignore (Rt.faa l 1 : int)

  let revert l =
    (* One [Critical_exit] regardless of which release path runs below —
       the fallback inlines the unlock so the checkpoint fires once. *)
    Rt.on_fault Fp.Critical_exit;
    let p = Rt.get l in
    let v = curr_of p in
    (* Free the lock keeping the version, unless someone queued behind. *)
    if
      next_of p <> v + 1
      || not (Rt.cas l p (pack ~curr:v ~next:v))
    then ignore (Rt.faa l 1 : int)

  let num_queued l =
    let p = Rt.get l in
    let d = (next_of p - curr_of p + mask + 1) land mask in
    if d = 0 then 0 else d - 1
end

(** The library default, as in the paper's evaluation: versioned. *)
module Default = Versioned

(* The lock word is transparently an [int Rt.atomic] (raw 0 = created
   unlocked at version 0 in both implementations), so data structures can
   co-locate a node's lock with its other fields via [Rt.atomic_with]. *)
module type MAKER = functor (Rt : Rt.Rt_intf.RT) ->
  OPTIK with type version = int and type t = int Rt.atomic
