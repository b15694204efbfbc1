(** Common interfaces for the concurrent data structures.

    All search structures (array maps, linked lists, hash tables, skip
    lists) expose the paper's three-operation interface (§2): [search],
    [insert] (no-op if the key is present), [delete]. Keys are [int]s;
    implementations based on sentinel nodes require
    [min_int < key < max_int], and the array maps additionally require
    [key <> 0] (0 marks a free slot, as in the paper's C code).

    [size], [validate] and [fold] are quiescent helpers for tests and
    resync: they assume no concurrent operations.

    Each family is declared once as a [*_CORE] signature (the shared
    operations); the full polymorphic signature ([SET], [QUEUE],
    [STACK]) and the monomorphic driver view ([SET_OPS], [QUEUE_OPS],
    [STACK_OPS]) are both derived from it by inclusion, and the [Mono_*]
    functors generate the monomorphic modules — so an interface change
    (like the versioned transaction hooks below) is written in exactly
    one place. *)

module type SET_CORE = sig
  type 'v t

  val search : 'v t -> int -> 'v option
  val insert : 'v t -> int -> 'v -> bool
  val delete : 'v t -> int -> 'v option

  val fold : 'v t -> (int -> 'v -> 'a -> 'a) -> 'a -> 'a
  (** Quiescent enumeration of the live bindings, in structure order
      (no particular key order is promised). The replica-resync seed:
      [fold t (fun k v () -> insert t' k v) ()]. *)

  val size : 'v t -> int

  val validate : ?crashed:int -> 'v t -> bool
  (** Quiescent structural check. [crashed] (default 0) is how many
      threads died mid-operation during the run: a lock-free structure
      may then hold up to that many nodes a dead deleter left
      half-removed (Harris: marked but still linked, in a part of the
      structure no later operation walked), which a crash-free run must
      never leave. Every other rule stays as strict. *)
end

module type SET = sig
  include SET_CORE

  val name : string

  val create : ?capacity:int -> unit -> 'v t
  (** [capacity] sizes array maps (number of slots) and hash tables
      (number of buckets); list and skip-list implementations ignore it. *)
end

(** FIFO queues (§5.4). *)
module type QUEUE_CORE = sig
  type 'v t

  val enqueue : 'v t -> 'v -> unit
  val dequeue : 'v t -> 'v option
  val size : 'v t -> int
end

module type QUEUE = sig
  include QUEUE_CORE

  val name : string
  val create : unit -> 'v t
end

(** LIFO stacks (§5.5). *)
module type STACK_CORE = sig
  type 'v t

  val push : 'v t -> 'v -> unit
  val pop : 'v t -> 'v option
  val size : 'v t -> int
end

module type STACK = sig
  include STACK_CORE

  val name : string
  val create : unit -> 'v t
end

(** {1 Baseline/OPTIK twins}

    The paper derives each OPTIK structure from a baseline by changing
    only its synchronization (§4.1, §5.1, §5.2). The array maps, the
    global-lock lists, the Java-style hash tables and the external BSTs
    are written that way: one [Base] functor per file holds the layout,
    the search and the quiescent helpers over the lock a twin hands it,
    and each twin adds only its update protocol and that protocol's
    probes. *)
module type TWIN_LOCK = sig
  type t

  val create : unit -> t

  val is_free : t -> bool
  (** Quiescent test: nobody holds the lock. [validate] requires it. *)

  val name : string
  (** The twin's name; its allocation sites are filed under it. *)
end

(** {1 Monomorphic driver views}

    Monomorphic (int-valued) views used by the generic test and benchmark
    drivers, where first-class modules need concrete types.

    [probe_prefix] declares the rep's wasted-work probes under the
    [<rep>.<metric>] naming convention (see DESIGN.md, "Run reports"):
    [Some p] promises that running the structure registers counters named
    [p ^ ".<metric>"] — at least [p ^ ".restarts"], or a documented
    restart-equivalent — which the run report's wasted-work section
    aggregates per structure. [None] marks a purely blocking rep whose
    only wasted work is lock waiting, visible in the scheduler's stall
    statistics instead of probe counters. A registry-walking test
    enforces the promise. *)
module type MONO = sig
  type t

  val name : string
  val probe_prefix : string option
end

(** {1 Versioned transaction hooks}

    The optimistic multi-object transaction layer ({!Txn}) needs three
    things from a structure: versioned reads, commit-time validation,
    and a per-key lock whose release publishes a new version. Declared
    once here and included into {!SET_OPS}, they are implemented for
    {e every} registered rep by {!Mono_set} as a striped OPTIK-lock
    overlay:

    - OPTIK-family reps declare several stripes ([stripes > 1]), so
      independent keys validate and lock independently — the native
      fine-grained flavour;
    - non-OPTIK reps declare [stripes = 1], the single structure-wide
      version wrapper: any committed write invalidates every
      outstanding read of that structure.

    Versions travel as opaque {e tokens} ([int]s packing stripe and
    version); a token is only meaningful to the structure that issued
    it. The overlay is allocated lazily on first versioned access, so
    purely non-transactional runs allocate nothing — and keep their
    recorded schedules byte-identical.

    The overlay versions only ever advance through {!Locks.Handle}
    commits, so transactional isolation holds {e between transactions}:
    a plain [insert]/[delete] racing a transaction on the same key is
    invisible to validation. Keys owned by transactions must be mutated
    transactionally (the KV service keeps its transfer accounts in a
    dedicated key range for exactly this reason). *)
module type VERSIONED_OPS = sig
  type t

  val read_versioned : t -> int -> int option * int
  (** Atomic-snapshot read: the value and a version token that
      {!commit_check} accepts until the key's stripe commits again.
      Spins only while the stripe is mid-commit. *)

  val commit_check : t -> int -> bool
  (** [commit_check t token]: no commit on the token's stripe since the
      token was issued, and no commit in flight. *)

  val lock_handle : t -> int -> Locks.Handle.t
  (** The commit lock covering a key — one handle per stripe, with a
      process-unique id for sorted (deadlock-free) acquisition. *)
end

module type SET_OPS = sig
  include MONO

  val create : ?capacity:int -> unit -> t
  val search : t -> int -> int option
  val insert : t -> int -> int -> bool
  val delete : t -> int -> int option
  val fold : t -> (int -> int -> 'a -> 'a) -> 'a -> 'a
  val size : t -> int
  val validate : ?crashed:int -> t -> bool

  include VERSIONED_OPS with type t := t
end

module type QUEUE_OPS = sig
  include MONO

  val create : unit -> t
  val enqueue : t -> int -> unit
  val dequeue : t -> int option
  val size : t -> int
end

module type STACK_OPS = sig
  include MONO

  val create : unit -> t
  val push : t -> int -> unit
  val pop : t -> int option
  val size : t -> int
end

(** {1 Monomorphization functors}

    Deriving a [*_OPS] module from a polymorphic implementation is pure
    boilerplate except for three things: the registry name (which
    follows the paper's figures, not the module name), the [create]
    call (which bakes in variant flags like [~cache] or [~variant]),
    and the stripe count of the versioned overlay. The [Mono_*]
    functors below take exactly those — a [*_CORE] module of shared
    operations and a spec — so the registry lists one small spec per
    entry instead of a full hand-written wrapper, and the versioned
    hooks are generated here instead of being re-implemented per rep. *)

module Mono_set
    (Rt : Rt.Rt_intf.RT)
    (S : SET_CORE)
    (C : sig
      val name : string
      val probe_prefix : string option

      val stripes : int
      (** Version-lock stripes of the transactional overlay: several
          for OPTIK-family reps (per-key granularity), [1] for the
          structure-wide wrapper over non-OPTIK reps. *)

      val create : ?capacity:int -> unit -> int S.t
    end) : SET_OPS = struct
  module OL = Optik.Versioned (Rt)

  type overlay = {
    vlocks : OL.t array;
    handles : Locks.Handle.t array;  (** one per stripe, built with it *)
  }

  type t = { s : int S.t; mutable ov : overlay option }

  let name = C.name
  let probe_prefix = C.probe_prefix
  let stripes = max 1 C.stripes

  let create ?capacity () = { s = C.create ?capacity (); ov = None }
  let search t = S.search t.s
  let insert t = S.insert t.s
  let delete t = S.delete t.s
  let fold t = S.fold t.s
  let size t = S.size t.s
  let validate ?crashed t = S.validate ?crashed t.s

  (* A token packs (free version, stripe). Versioned-lock words advance
     by 2 per commit, leaving 42 usable version bits here — years of
     simulated commits. *)
  let stripe_bits = 20
  let () = assert (stripes < 1 lsl stripe_bits)
  let stripe_mask = (1 lsl stripe_bits) - 1
  let token ~stripe v = (v lsl stripe_bits) lor stripe
  let token_stripe tok = tok land stripe_mask
  let token_version tok = tok asr stripe_bits

  let check_stripe l ~stripe tok =
    token_stripe tok = stripe
    &&
    let v = OL.get_version l in
    (not (OL.is_locked v)) && OL.same_version v (token_version tok)

  let handle ~id l sp =
    Locks.Handle.v ~id
      ~acquire:(fun tok ->
        token_stripe tok = sp && OL.trylock_version l (token_version tok))
      ~acquire_any:(fun () ->
        let rec go () =
          let v = OL.get_version_wait l in
          if OL.trylock_version l v then token ~stripe:sp v else go ()
        in
        go ())
      ~commit:(fun () -> OL.unlock l)
      ~revert:(fun () -> OL.revert l)
      ~check:(fun tok -> check_stripe l ~stripe:sp tok)

  (* Lazy overlay: allocating the stripe locks (tracked cache lines
     under the simulator) only on first versioned access keeps
     non-transactional runs allocation-identical to the pre-overlay
     engine, which the pin ledger pins. The bare-OCaml
     initialization contains no [Rt] operation, so the simulator cannot
     preempt it; native users must touch the overlay (e.g. [Txn.obj])
     before sharing the structure. The stripe handles are built here too,
     so [lock_handle] allocates nothing. *)
  let overlay t =
    match t.ov with
    | Some o -> o
    | None ->
        let vlocks = Array.init stripes (fun _ -> OL.create ()) in
        let base = Locks.Handle.fresh_base stripes in
        let o =
          {
            vlocks;
            handles =
              Array.mapi (fun sp l -> handle ~id:(base + sp) l sp) vlocks;
          }
        in
        t.ov <- Some o;
        o

  let stripe_of k = ((k mod stripes) + stripes) mod stripes

  let rec read_versioned t k =
    let o = overlay t in
    let sp = stripe_of k in
    let l = o.vlocks.(sp) in
    let v = OL.get_version_wait l in
    let x = S.search t.s k in
    if OL.same_version (OL.get_version l) v then (x, token ~stripe:sp v)
    else read_versioned t k

  let commit_check t tok =
    let o = overlay t in
    let sp = token_stripe tok in
    sp < stripes && check_stripe o.vlocks.(sp) ~stripe:sp tok

  let lock_handle t k = (overlay t).handles.(stripe_of k)
end

module Mono_queue
    (Q : QUEUE_CORE)
    (C : sig
      val name : string
      val probe_prefix : string option
      val create : unit -> int Q.t
    end) : QUEUE_OPS = struct
  type t = int Q.t

  let name = C.name
  let probe_prefix = C.probe_prefix
  let create = C.create
  let enqueue = Q.enqueue
  let dequeue = Q.dequeue
  let size = Q.size
end

module Mono_stack
    (S : STACK_CORE)
    (C : sig
      val name : string
      val probe_prefix : string option
      val create : unit -> int S.t
    end) : STACK_OPS = struct
  type t = int S.t

  let name = C.name
  let probe_prefix = C.probe_prefix
  let create = C.create
  let push = S.push
  let pop = S.pop
  let size = S.size
end
