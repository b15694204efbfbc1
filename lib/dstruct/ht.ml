(** Concurrent hash tables (§5.2 of the paper).

    {!Of_bucket} builds a hash table from any bucket implementation —
    this yields "optik-gl" (per-bucket global-lock OPTIK lists), "optik"
    (fine-grained OPTIK lists), "lazy-gl" (per-bucket pessimistic lists)
    and "optik-map" (per-bucket OPTIK array maps), exactly the four
    list/map-based tables of the evaluation.

    {!Java} is a ConcurrentHashMap-style striped table (lock per segment,
    unsorted per-bucket chains, updates lock the segment regardless of
    feasibility — the behaviour §5.2 calls out as hindering scalability).
    {!Java_optik} is the paper's OPTIK optimization: updates first
    traverse read-only and return [false] without locking when
    infeasible; feasible updates validate the traversal with
    [lock_version] and — when the version is unchanged — commit directly,
    {e skipping the second bucket traversal}.

    The two differ only in that update protocol. {!Java_base} holds the
    rest once: the segment layout, [create], the lock-free [search], the
    chain traversals, the per-segment [resize], the link/count/grow and
    unlink steps both protocols commit with, and the quiescent [size],
    [fold] and [validate] (which also requires every segment lock to be
    free). {!Java} adds its locked [insert] and [delete]; {!Java_optik}
    adds its validated ones and their [second_traversals] probe. *)

module type RT = Rt.Rt_intf.RT

(* Fibonacci hashing spreads the benchmark's dense integer keys. Buckets
   reduce it with [mod nb], and for a power-of-two [nb] that keeps only
   the low bits, which depend only on the key's low bits: key sets that
   share a power-of-two stride cluster (multiples of 64 reach 16 of 1024
   buckets). *)
let hash k = (k * 0x2545F4914F6CDD1D) land max_int

let default_buckets = 1024

module Of_bucket
    (B : Dstruct_intf.SET_CORE)
    (C : sig
      val create : unit -> 'v B.t
    end) =
struct
  type 'v t = { buckets : 'v B.t array; nb : int }

  let create ?(capacity = default_buckets) () =
    let capacity = max 1 capacity in
    { buckets = Array.init capacity (fun _ -> C.create ()); nb = capacity }

  let bucket t key = t.buckets.(hash key mod t.nb)

  let search t key = B.search (bucket t key) key
  let insert t key v = B.insert (bucket t key) key v
  let delete t key = B.delete (bucket t key) key

  let size t = Array.fold_left (fun acc b -> acc + B.size b) 0 t.buckets

  let fold t f acc = Array.fold_left (fun acc b -> B.fold b f acc) acc t.buckets

  let validate ?crashed t = Array.for_all (fun b -> B.validate ?crashed b) t.buckets
end

(* --------------------------------------------------------------- *)

let default_segments = 128 (* as configured in §5.2, per Java's docs *)

(** ConcurrentHashMap-style striped table with {e per-segment resizing}
    (§5.2: "Each segment (and its buckets) is protected by a single lock
    and can be individually resized"). Each segment owns its bucket
    array behind one atomic pointer; when a segment's load factor
    crosses {!resize_load_factor}, the updating thread — already holding
    the segment lock — rebuilds the segment into a doubled array of
    {e fresh} nodes and publishes it with a single store. Searches
    anchor on their read of the array pointer: a reader still traversing
    the old array linearizes before the resize, which is sound because
    the old chains are immutable once unpublished. *)
module Java_base (Rt : RT) (L : Dstruct_intf.TWIN_LOCK) = struct
  module Q = Mem.Qsbr.Make (Rt)

  type 'v node = { key : int; value : 'v; next : 'v node option Rt.atomic }

  type 'v seg = {
    lock : L.t;
    buckets : 'v node option Rt.atomic array Rt.atomic;
    count : int Rt.atomic;  (** elements in the segment; updated under lock *)
  }

  type 'v t = { segs : 'v seg array; nseg : int; qsbr : 'v node Q.t }

  let name = L.name

  let resize_load_factor = 4
  let resizes = Rt.Probe.counter (L.name ^ ".resizes")
  let segment_site = L.name ^ ".segment"
  let bucket_site = L.name ^ ".bucket"
  let node_site = L.name ^ ".node"

  let create ?(capacity = default_buckets) () =
    let nseg = min default_segments (max 1 capacity) in
    let per_seg = max 1 (capacity / nseg) in
    {
      segs =
        Rt.Probe.with_site segment_site (fun () ->
            Array.init nseg (fun _ ->
                {
                  lock = L.create ();
                  buckets =
                    Rt.atomic (Array.init per_seg (fun _ -> Rt.atomic None));
                  count = Rt.atomic 0;
                }));
      nseg;
      qsbr = Q.create ();
    }

  let seg_of t key = t.segs.(hash key mod t.nseg)

  (* Bucket within a segment: use the upper hash bits (the low ones chose
     the segment). *)
  let bucket_in seg_arr key = seg_arr.((hash key / 0x10000) mod Array.length seg_arr)

  (* Lock-free search: anchor on one read of the segment's bucket-array
     pointer; chains grow at the head and unlink with single stores. *)
  let search t key =
    Q.op_begin t.qsbr;
    let seg = seg_of t key in
    let arr = Rt.get seg.buckets in
    let rec go = function
      | None -> None
      | Some n -> if n.key = key then Some n.value else go (Rt.get n.next)
    in
    let res = go (Rt.get (bucket_in arr key)) in
    Q.op_end t.qsbr;
    res

  let rec mem key = function
    | None -> false
    | Some n -> n.key = key || mem key (Rt.get n.next)

  (* The victim holding [key] and its predecessor in the chain ([None]:
     the victim heads it). *)
  let rec locate key prev = function
    | None -> None
    | Some n ->
        if n.key = key then Some (prev, n) else locate key (Some n) (Rt.get n.next)

  (* Rebuild the segment into a doubled bucket array of fresh nodes;
     caller holds the segment lock. Old nodes are retired wholesale —
     concurrent readers may still traverse them, and under OPTIK the
     version bump on unlock invalidates any traversal that read the old
     array. *)
  let resize t seg =
    Rt.Probe.incr resizes;
    let old_arr = Rt.get seg.buckets in
    let fresh =
      Rt.Probe.with_site bucket_site (fun () ->
          Array.init (2 * Array.length old_arr) (fun _ -> Rt.atomic None))
    in
    Array.iter
      (fun bucket ->
        let rec go = function
          | None -> ()
          | Some n ->
              let cell = bucket_in fresh n.key in
              Rt.set cell
                (Some { key = n.key; value = n.value; next = Rt.atomic (Rt.get cell) });
              Q.retire t.qsbr n;
              go (Rt.get n.next)
        in
        go (Rt.get bucket))
      old_arr;
    Rt.set seg.buckets fresh

  (* Link a fresh node at the head of [cell] (whose chain is [head]),
     count it, and grow the segment past its load factor; caller holds
     the segment lock. *)
  let link t seg arr cell key v head =
    Rt.set cell
      (Some
         (Rt.Probe.with_site node_site (fun () ->
              { key; value = v; next = Rt.atomic head })));
    let c = Rt.get seg.count + 1 in
    Rt.set seg.count c;
    if c > resize_load_factor * Array.length arr then resize t seg

  (* Unlink [victim] from [cell]'s chain after [prev] and uncount it;
     caller holds the segment lock and retires the victim. *)
  let unlink seg cell prev victim =
    (match prev with
    | None -> Rt.set cell (Rt.get victim.next)
    | Some p -> Rt.set p.next (Rt.get victim.next));
    Rt.set seg.count (Rt.get seg.count - 1)

  let fold_buckets t f acc =
    Array.fold_left
      (fun acc seg ->
        Array.fold_left
          (fun acc bucket ->
            let rec go acc = function
              | None -> acc
              | Some n -> go (f acc n) (Rt.get n.next)
            in
            go acc (Rt.get bucket))
          acc (Rt.get seg.buckets))
      acc t.segs

  let size t = fold_buckets t (fun acc _ -> acc + 1) 0

  let fold t f acc = fold_buckets t (fun acc n -> f n.key n.value acc) acc

  let validate ?crashed:_ t =
    let seen = Hashtbl.create 64 in
    let ok =
      fold_buckets t
        (fun ok n ->
          let dup = Hashtbl.mem seen n.key in
          Hashtbl.replace seen n.key ();
          ok && not dup)
        true
    in
    (* per-segment counts must agree with the chains *)
    Array.for_all
      (fun seg ->
        L.is_free seg.lock
        &&
        let c = ref 0 in
        Array.iter
          (fun bucket ->
            let rec go = function
              | None -> ()
              | Some n ->
                  incr c;
                  go (Rt.get n.next)
            in
            go (Rt.get bucket))
          (Rt.get seg.buckets);
        !c = Rt.get seg.count)
      t.segs
    && ok
end

module Java (Rt : RT) = struct
  module Lock = Locks.Ttas (Rt)

  include Java_base (Rt) (struct
    type t = Lock.t

    let create = Lock.create
    let is_free l = not (Lock.is_locked l)
    let name = "ht-java"
  end)

  (* Updates lock the segment up front, feasible or not — the unoptimized
     ConcurrentHashMap behaviour the paper calls out. *)
  let insert t key v =
    Q.op_begin t.qsbr;
    let seg = seg_of t key in
    Lock.lock seg.lock;
    let arr = Rt.get seg.buckets in
    let cell = bucket_in arr key in
    let head = Rt.get cell in
    let res =
      if mem key head then false
      else (
        link t seg arr cell key v head;
        true)
    in
    Lock.unlock seg.lock;
    Q.op_end t.qsbr;
    res

  let delete t key =
    Q.op_begin t.qsbr;
    let seg = seg_of t key in
    Lock.lock seg.lock;
    let arr = Rt.get seg.buckets in
    let cell = bucket_in arr key in
    let res =
      match locate key None (Rt.get cell) with
      | None -> None
      | Some (prev, victim) ->
          unlink seg cell prev victim;
          Q.retire t.qsbr victim;
          Some victim.value
    in
    Lock.unlock seg.lock;
    Q.op_end t.qsbr;
    res
end

module Java_optik (Rt : RT) = struct
  module OL = Optik.Versioned (Rt)

  include Java_base (Rt) (struct
    type t = OL.t

    let create = OL.create
    let is_free l = not (OL.is_locked (OL.get_version l))
    let name = "ht-java-optik"
  end)

  let second_traversals = Rt.Probe.counter ~kind:Restart "ht-java-optik.second-traversals"

  (* Read-only first traversal; infeasible updates return with no lock.
     Feasible ones validate the traversal with [lock_version]: if the
     segment version is unchanged, the bucket cell and head captured
     before locking are still current — no resize, no modification — and
     the update commits without a second traversal (§5.2). *)
  let insert t key v =
    Q.op_begin t.qsbr;
    let seg = seg_of t key in
    let vn = OL.get_version seg.lock in
    let arr0 = Rt.get seg.buckets in
    let cell0 = bucket_in arr0 key in
    let head0 = Rt.get cell0 in
    let res =
      if mem key head0 then false
      else if OL.lock_version seg.lock vn then (
        (* Version validated: the segment cannot have changed. *)
        link t seg arr0 cell0 key v head0;
        OL.unlock seg.lock;
        true)
      else (
        (* Version moved: one more traversal under the lock. *)
        Rt.Probe.incr second_traversals;
        let arr = Rt.get seg.buckets in
        let cell = bucket_in arr key in
        let head = Rt.get cell in
        if mem key head then (
          OL.revert seg.lock;
          false)
        else (
          link t seg arr cell key v head;
          OL.unlock seg.lock;
          true))
    in
    Q.op_end t.qsbr;
    res

  let delete t key =
    Q.op_begin t.qsbr;
    let seg = seg_of t key in
    let vn = OL.get_version seg.lock in
    let arr0 = Rt.get seg.buckets in
    let cell0 = bucket_in arr0 key in
    let commit cell prev victim =
      unlink seg cell prev victim;
      OL.unlock seg.lock;
      Q.retire t.qsbr victim;
      Some victim.value
    in
    (* First pass: find predecessor and victim without locking. *)
    let res =
      match locate key None (Rt.get cell0) with
      | None -> None
      | Some (prev, victim) ->
          if OL.lock_version seg.lock vn then
            (* Unchanged segment: the recorded position is still valid. *)
            commit cell0 prev victim
          else (
            Rt.Probe.incr second_traversals;
            let arr = Rt.get seg.buckets in
            let cell = bucket_in arr key in
            match locate key None (Rt.get cell) with
            | None ->
                OL.revert seg.lock;
                None
            | Some (prev, victim) -> commit cell prev victim)
    in
    Q.op_end t.qsbr;
    res
end
