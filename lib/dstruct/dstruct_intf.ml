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
    views ([SET_OPS], [POOL_OPS]) from it — so an interface change is
    written in exactly one place. *)

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
      transaction's object read is covered by its snapshot's clock gate
      and validation, which drop every key a commit wrote during the
      fold. *)

  val size : 'v t -> int

  val validate : ?crashed:int -> 'v t -> bool
  (** Quiescent structural check. [crashed] (default 0) is how many
      threads died mid-operation during the run: a lock-free structure
      may then hold up to that many nodes a dead deleter left
      half-removed (Harris: marked but still linked, in a part of the
      structure no later operation walked), which a crash-free run must
      never leave. Every other rule stays as strict. *)
end

(** A set that writes a present key's value in place (§5.2: the update
    commits without a second traversal). [find t k] returns a present
    key's value and its node's location, reading the node's version
    before the value. [update_at loc v] validates and locks that version
    in one [trylock_version], writes [v] and unlocks; if the version
    moved it returns [false] and changes nothing. [update] is the
    restart loop over the two ([false] on an absent key). Only the OPTIK
    lists and the tables [Ht.In_place] builds from them offer it. *)
module type IN_PLACE_CORE = sig
  include SET_CORE
  type 'v loc

  val find : 'v t -> int -> ('v * 'v loc) option
  val update_at : 'v loc -> 'v -> bool
  val update : 'v t -> int -> 'v -> bool
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

(** The driver view of {!IN_PLACE_CORE}. *)
module type IN_PLACE = sig
  include SET_OPS
  type loc

  val find : t -> int -> (int * loc) option
  val update_at : loc -> int -> bool
  val update : t -> int -> int -> bool
end

(** Queues and stacks, one pool family: [put] adds a value and [take]
    removes the one the order names — the oldest when [lifo] is false
    (a FIFO queue), the newest when it is true (a LIFO stack). *)
module type POOL_OPS = sig
  include MONO

  val lifo : bool
  val create : unit -> t
  val put : t -> int -> unit
  val take : t -> int option
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
    end) : SET_OPS with type t = int S.t = struct
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

module Mono_in_place (S : IN_PLACE_CORE) (M : SET_OPS with type t = int S.t) :
  IN_PLACE = struct
  include M

  type loc = int S.loc

  let find = S.find
  let update_at = S.update_at
  let update = S.update
end

module Mono_queue
    (Q : QUEUE_CORE)
    (C : sig
      val name : string
      val probe_prefix : string option
      val create : unit -> int Q.t
    end) : POOL_OPS = struct
  type t = int Q.t

  let name = C.name
  let probe_prefix = C.probe_prefix
  let lifo = false
  let create = C.create
  let put = Q.enqueue
  let take = Q.dequeue
  let size = Q.size
end

module Mono_stack
    (S : STACK_CORE)
    (C : sig
      val name : string
      val probe_prefix : string option
      val create : unit -> int S.t
    end) : POOL_OPS = struct
  type t = int S.t

  let name = C.name
  let probe_prefix = C.probe_prefix
  let lifo = true
  let create = C.create
  let put = S.push
  let take = S.pop
  let size = S.size
end
