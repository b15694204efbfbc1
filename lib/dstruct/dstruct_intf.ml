(** Common interfaces for the concurrent data structures.

    All search structures (array maps, linked lists, hash tables, skip
    lists) expose the paper's three-operation interface (§2): [search],
    [insert] (no-op if the key is present), [delete]. Keys are [int]s;
    implementations based on sentinel nodes require
    [min_int < key < max_int], and the array maps additionally require
    [key <> 0] (0 marks a free slot, as in the paper's C code).

    [size] and [validate] are quiescent helpers for tests: they assume
    no concurrent operations. [fold] is one too, but the KV resync copier
    and a transaction snapshot's object read ([Txn.Make.read_object])
    also run it while other operations are in flight; see [fold] for
    what such a fold promises.

    Each family is declared once as a [*_CORE] signature (the shared
    operations); the [Mono_*] functors derive the monomorphic driver
    views ([SET_OPS], [QUEUE_OPS], [STACK_OPS]) from it — so an
    interface change is written in exactly one place. *)

module type SET_CORE = sig
  type 'v t

  val search : 'v t -> int -> 'v option
  val insert : 'v t -> int -> 'v -> bool
  val delete : 'v t -> int -> 'v option

  val fold : 'v t -> (int -> 'v -> 'a -> 'a) -> 'a -> 'a
  (** Enumeration of the live bindings, in structure order (no
      particular key order is promised). The replica-resync seed:
      [fold t (fun k v () -> insert t' k v) ()]. Quiescent, it visits
      exactly the live bindings, each once. While other operations are
      in flight, a fold of a structure whose nodes stay where they were
      linked (every list, skip list, BST and array map here, and the
      tables built by [Ht.Of_bucket]) still visits every key that is
      present, with one value, for the whole fold, and yields it with
      that value. No promise covers a key inserted, deleted or rewritten
      during the fold: it may be missed, repeated or paired with another
      key's value. The java tables' resize relinks live nodes, so their
      fold promises nothing while a resize can run. Callers validate what
      they keep: the KV copier re-reads each key live, and a
      transaction's object read re-checks the version stripe of every
      key it keeps. *)

  val size : 'v t -> int

  val validate : ?crashed:int -> 'v t -> bool
  (** Quiescent structural check. [crashed] (default 0) is how many
      threads died mid-operation during the run: a lock-free structure
      may then hold up to that many nodes a dead deleter left
      half-removed (Harris: marked but still linked, in a part of the
      structure no later operation walked), which a crash-free run must
      never leave. Every other rule stays as strict. *)
end

(** FIFO queues (§5.4). *)
module type QUEUE_CORE = sig
  type 'v t

  val enqueue : 'v t -> 'v -> unit
  val dequeue : 'v t -> 'v option
  val size : 'v t -> int
end

(** LIFO stacks (§5.5). *)
module type STACK_CORE = sig
  type 'v t

  val push : 'v t -> 'v -> unit
  val pop : 'v t -> 'v option
  val size : 'v t -> int
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

    [probe_prefix] declares the owner of the rep's wasted-work counters
    (see DESIGN.md, "Wasted-work metrics"): [Some p] promises that the
    structure registers at least one [Restart] or [Vfail] counter named
    [p ^ ".<metric>"], which the run report's wasted-work section
    aggregates per owner. [None] marks a purely blocking rep whose
    only wasted work is lock waiting, visible in the scheduler's stall
    statistics instead of probe counters. A registry-walking test
    enforces the promise. *)
module type MONO = sig
  type t

  val name : string
  val probe_prefix : string option
end

module type SET_OPS = sig
  include MONO

  val create : ?capacity:int -> unit -> t
  (** [capacity] sizes array maps (number of slots) and hash tables
      (number of buckets); list and skip-list implementations ignore it. *)

  val search : t -> int -> int option
  val insert : t -> int -> int -> bool
  val delete : t -> int -> int option
  val fold : t -> (int -> int -> 'a -> 'a) -> 'a -> 'a
  val size : t -> int
  val validate : ?crashed:int -> t -> bool
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
    boilerplate except for two things: the registry name (which follows
    the paper's figures, not the module name) and the [create] call
    (which bakes in variant flags like [~cache] or [~variant]). The
    [Mono_*] functors below take exactly those — a [*_CORE] module of
    shared operations and a spec — so the registry lists one small spec
    per entry instead of a full hand-written wrapper. *)

module Mono_set
    (S : SET_CORE)
    (C : sig
      val name : string
      val probe_prefix : string option
      val create : ?capacity:int -> unit -> int S.t
    end) : SET_OPS = struct
  type t = int S.t

  let name = C.name
  let probe_prefix = C.probe_prefix
  let create = C.create
  let search = S.search
  let insert = S.insert
  let delete = S.delete
  let fold = S.fold
  let size = S.size
  let validate = S.validate
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
