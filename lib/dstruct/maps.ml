(** Fixed-size concurrent array maps (§4.1 of the paper).

    A map is a fixed array of key/value slots; key [0] marks a free slot,
    so user keys must be non-zero. Insertions into a full map return
    [false] (no resizing, as in the paper).

    {!Lock_based} is the pessimistic baseline ("mcs" in Figure 7): every
    operation — including search — takes a global MCS lock. {!Optik_based}
    is the Figure-6 algorithm: searches and infeasible updates complete
    without ever locking, validated by the OPTIK version number.

    The two differ only in their synchronization. {!Base} holds the slot
    arrays once: the [create] layout, [check_key], the two slot scans
    the operations run ([index_of], [insert_slot]) and the quiescent
    [size], [fold] and [validate] (which also requires the lock to be
    free). Each twin adds its [search], [insert] and [delete]; the OPTIK
    map also its [restarts] probe and the [eager_search] ablation. *)

module type RT = Rt.Rt_intf.RT

module Backoff = Rt.Backoff

let default_capacity = 64

(* Array slots are contiguous in memory; model four key/value pairs per
   cache line (16 bytes per pair), which is what makes the "optik-map"
   hash table of §5.2 sensitive to prefetching on Xeon. *)
let pairs_per_line = 4

module Base (Rt : RT) (L : Dstruct_intf.TWIN_LOCK) = struct
  type 'v t = {
    keys : int Rt.atomic array;
    vals : 'v option Rt.atomic array;
    lock : L.t;
    cap : int;
    eager_search : bool;
        (** Read by the OPTIK map's [search] only. §4.1 discusses an
            alternative search that re-reads the version just before
            matching a key — finer-grained validation, but it "puts a
            lot of stress on the cache line of the OPTIK lock, resulting
            in lower performance". Kept as an ablation. *)
  }

  let name = L.name

  (* The key cell of every [pairs_per_line]-th slot opens a streaming
     line; the other keys of its line and all their values join it. The
     lock is built before the slot lines: that order fixes the line ids
     the pin ledger pins. *)
  let create ?(capacity = default_capacity) ?(eager_search = false) () =
    let lock = L.create () in
    let heads =
      Array.init
        ((capacity + pairs_per_line - 1) / pairs_per_line)
        (fun _ -> Rt.atomic ~streaming:true 0)
    in
    let head i = heads.(i / pairs_per_line) in
    {
      keys =
        Array.init capacity (fun i ->
            if i mod pairs_per_line = 0 then head i else Rt.atomic_with (head i) 0);
      vals = Array.init capacity (fun i -> Rt.atomic_with (head i) None);
      lock;
      cap = capacity;
      eager_search;
    }

  let check_key k = if k = 0 then invalid_arg "map: key must be non-zero"

  (* The slot holding [key] at or after [i], or [-1]. Both scans take
     [t] and [key] as arguments instead of closing over them, so they
     allocate nothing per operation. *)
  let rec index_from t key i =
    if i >= t.cap then -1
    else if Rt.get t.keys.(i) = key then i
    else index_from t key (i + 1)

  let index_of t key = index_from t key 0

  (* The slot an insert of [key] would fill: [-2] when [key] is present,
     else the first free slot, or [-1] when the map is full. *)
  let rec insert_slot_from t key i free =
    if i >= t.cap then free
    else
      let k = Rt.get t.keys.(i) in
      if k = key then -2
      else insert_slot_from t key (i + 1) (if k = 0 && free < 0 then i else free)

  let insert_slot t key = insert_slot_from t key 0 (-1)

  let size t =
    let n = ref 0 in
    for i = 0 to t.cap - 1 do
      if Rt.get t.keys.(i) <> 0 then incr n
    done;
    !n

  let fold t f acc =
    let acc = ref acc in
    for i = 0 to t.cap - 1 do
      let k = Rt.get t.keys.(i) in
      if k <> 0 then
        match Rt.get t.vals.(i) with
        | Some v -> acc := f k v !acc
        | None -> ()
    done;
    !acc

  (* No duplicate keys; every occupied slot has a value. *)
  let validate ?crashed:_ t =
    let seen = Hashtbl.create 16 in
    let ok = ref (L.is_free t.lock) in
    for i = 0 to t.cap - 1 do
      let k = Rt.get t.keys.(i) in
      if k <> 0 then (
        if Hashtbl.mem seen k then ok := false;
        Hashtbl.replace seen k ();
        if Rt.get t.vals.(i) = None then ok := false)
    done;
    !ok
end

module Lock_based (Rt : RT) = struct
  module Lock = Locks.Mcs (Rt)

  include Base (Rt) (struct
    type t = Lock.t

    let create = Lock.create
    let is_free l = not (Lock.is_locked l)
    let name = "map-mcs"
  end)

  let create ?capacity () = create ?capacity ()

  let search t key =
    check_key key;
    Lock.lock t.lock;
    let i = index_of t key in
    let res = if i >= 0 then Rt.get t.vals.(i) else None in
    Lock.unlock t.lock;
    res

  let insert t key v =
    check_key key;
    Lock.lock t.lock;
    let i = insert_slot t key in
    if i >= 0 then (
      Rt.set t.vals.(i) (Some v);
      Rt.set t.keys.(i) key);
    Lock.unlock t.lock;
    i >= 0

  let delete t key =
    check_key key;
    Lock.lock t.lock;
    let i = index_of t key in
    let res =
      if i < 0 then None
      else
        let v = Rt.get t.vals.(i) in
        Rt.set t.keys.(i) 0;
        Rt.set t.vals.(i) None;
        v
    in
    Lock.unlock t.lock;
    res
end

(* Parameterized over the OPTIK implementation so the versioned/ticket
   backend ablation (DESIGN.md A1) can compare both on the same
   structure. *)
module Optik_based_gen (Rt : RT) (O : Optik.MAKER) = struct
  module B = Backoff.Make (Rt)
  module OL = O (Rt)

  include Base (Rt) (struct
    type t = OL.t

    let create = OL.create
    let is_free l = not (OL.is_locked (OL.get_version l))
    let name = "map-optik"
  end)

  let restarts = Rt.Probe.counter "map-optik.restarts"

  let retry b =
    Rt.Probe.incr restarts;
    B.once b

  (* Figure 6(c): read a free version first, re-check it after reading the
     matched value — an atomic snapshot of the key/value pair without any
     locking. *)
  let search_paper t key =
    let b = B.create () in
    let rec restart () =
      let vn = OL.get_version_wait t.lock in
      let i = index_of t key in
      if i < 0 then None
      else
        let v = Rt.get t.vals.(i) in
        let vnc = OL.get_version t.lock in
        if OL.same_version vn vnc then v
        else (
          retry b;
          restart ())
    in
    restart ()

  (* §4.1's finer-grained alternative ("reading the version before line
     5" of Figure 6(c)): refresh the version before every key
     comparison, so only the final pair read needs to be covered by the
     check. Correct, but every slot probe now also touches the lock's
     cache line — exactly the stress the paper warns about. *)
  let search_eager t key =
    let b = B.create () in
    let rec restart () =
      let rec scan i =
        if i >= t.cap then None
        else
          let vn = OL.get_version_wait t.lock in
          if Rt.get t.keys.(i) = key then (
            let v = Rt.get t.vals.(i) in
            let vnc = OL.get_version t.lock in
            if OL.same_version vn vnc then v
            else (
              retry b;
              restart ()))
          else scan (i + 1)
      in
      scan 0
    in
    restart ()

  let search t key =
    check_key key;
    if t.eager_search then search_eager t key else search_paper t key

  (* Figure 6(b): scan optimistically; only lock — with validation — when
     the insertion is feasible. *)
  let insert t key v =
    check_key key;
    let b = B.create () in
    let rec restart () =
      let vn = OL.get_version t.lock in
      let i = insert_slot t key in
      if i = -2 then false
      else if not (OL.trylock_version t.lock vn) then (
        retry b;
        restart ())
      else (
        if i >= 0 then (
          Rt.set t.vals.(i) (Some v);
          Rt.set t.keys.(i) key);
        OL.unlock t.lock;
        i >= 0)
    in
    restart ()

  (* Figure 6(a). *)
  let delete t key =
    check_key key;
    let b = B.create () in
    let rec restart () =
      let vn = OL.get_version t.lock in
      let i = index_of t key in
      if i < 0 then None
      else if not (OL.trylock_version t.lock vn) then (
        retry b;
        restart ())
      else
        let v = Rt.get t.vals.(i) in
        Rt.set t.keys.(i) 0;
        Rt.set t.vals.(i) None;
        OL.unlock t.lock;
        v
    in
    restart ()
end

module Optik_based (Rt : RT) = Optik_based_gen (Rt) (Optik.Versioned)
