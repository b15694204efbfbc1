(** Fixed-size concurrent array maps (§4.1 of the paper).

    A map is a fixed array of key/value slots; key [0] marks a free slot,
    so user keys must be non-zero. Insertions into a full map return
    [false] (no resizing, as in the paper).

    {!Lock_based} is the pessimistic baseline ("mcs" in Figure 7): every
    operation — including search — takes a global MCS lock. {!Optik_based}
    is the Figure-6 algorithm: searches and infeasible updates complete
    without ever locking, validated by the OPTIK version number. *)

module type RT = Rt.Rt_intf.RT

module Backoff = Rt.Backoff
module Group = Rt.Group

let default_capacity = 64

(* Array slots are contiguous in memory; model four key/value pairs per
   cache line (16 bytes per pair), which is what makes the "optik-map"
   hash table of §5.2 sensitive to prefetching on Xeon. *)
let pairs_per_line = 4

module Lock_based (Rt : RT) = struct
  module Lock = Locks.Mcs (Rt)

  type 'v t = {
    keys : int Rt.atomic array;
    vals : 'v option Rt.atomic array;
    lock : Lock.t;
    cap : int;
  }

  let name = "map-mcs"

  let create ?(capacity = default_capacity) () =
    let group0 = Group.fresh () in
    {
      keys =
        Array.init capacity (fun i ->
            Rt.atomic_packed ~streaming:true ~group:(group0 + (i / pairs_per_line)) 0);
      vals =
        Array.init capacity (fun i ->
            Rt.atomic_packed ~streaming:true ~group:(group0 + (i / pairs_per_line)) None);
      lock = Lock.create ();
      cap = capacity;
    }

  let check_key k = if k = 0 then invalid_arg "map: key must be non-zero"

  let search t key =
    check_key key;
    Lock.lock t.lock;
    let res = ref None in
    (try
       for i = 0 to t.cap - 1 do
         if Rt.get t.keys.(i) = key then (
           res := Rt.get t.vals.(i);
           raise_notrace Exit)
       done
     with Exit -> ());
    Lock.unlock t.lock;
    !res

  let insert t key v =
    check_key key;
    Lock.lock t.lock;
    let free = ref (-1) in
    let dup = ref false in
    (try
       for i = 0 to t.cap - 1 do
         let k = Rt.get t.keys.(i) in
         if k = key then (
           dup := true;
           raise_notrace Exit)
         else if k = 0 && !free < 0 then free := i
       done
     with Exit -> ());
    let res =
      if !dup || !free < 0 then false
      else (
        Rt.set t.vals.(!free) (Some v);
        Rt.set t.keys.(!free) key;
        true)
    in
    Lock.unlock t.lock;
    res

  let delete t key =
    check_key key;
    Lock.lock t.lock;
    let res = ref None in
    (try
       for i = 0 to t.cap - 1 do
         if Rt.get t.keys.(i) = key then (
           res := Rt.get t.vals.(i);
           Rt.set t.keys.(i) 0;
           Rt.set t.vals.(i) None;
           raise_notrace Exit)
       done
     with Exit -> ());
    Lock.unlock t.lock;
    !res

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
    let ok = ref true in
    for i = 0 to t.cap - 1 do
      let k = Rt.get t.keys.(i) in
      if k <> 0 then (
        if Hashtbl.mem seen k then ok := false;
        Hashtbl.replace seen k ();
        if Rt.get t.vals.(i) = None then ok := false)
    done;
    !ok
end

(* Parameterized over the OPTIK implementation so the versioned/ticket
   backend ablation (DESIGN.md A1) can compare both on the same
   structure. *)
module Optik_based_gen (Rt : RT) (O : Optik.MAKER) = struct
  module B = Backoff.Make (Rt)
  module OL = O (Rt)

  type 'v t = {
    keys : int Rt.atomic array;
    vals : 'v option Rt.atomic array;
    lock : OL.t;
    cap : int;
    eager_search : bool;
        (** §4.1 discusses an alternative search that re-reads the
            version just before matching a key — finer-grained
            validation, but it "puts a lot of stress on the cache line of
            the OPTIK lock, resulting in lower performance". Kept as an
            ablation. *)
  }

  let name = "map-optik"

  let restarts = Rt.Probe.counter "map-optik.restarts"

  let create ?(capacity = default_capacity) ?(eager_search = false) () =
    let group0 = Group.fresh () in
    {
      keys =
        Array.init capacity (fun i ->
            Rt.atomic_packed ~streaming:true ~group:(group0 + (i / pairs_per_line)) 0);
      vals =
        Array.init capacity (fun i ->
            Rt.atomic_packed ~streaming:true ~group:(group0 + (i / pairs_per_line)) None);
      lock = OL.create ();
      cap = capacity;
      eager_search;
    }

  let check_key k = if k = 0 then invalid_arg "map: key must be non-zero"

  (* Figure 6(c): read a free version first, re-check it after reading the
     matched value — an atomic snapshot of the key/value pair without any
     locking. *)
  let search_paper t key =
    let b = B.create () in
    let rec restart () =
      let vn = OL.get_version_wait t.lock in
      let rec scan i =
        if i >= t.cap then None
        else if Rt.get t.keys.(i) = key then (
          let v = Rt.get t.vals.(i) in
          let vnc = OL.get_version t.lock in
          if OL.same_version vn vnc then v
          else (
            Rt.Probe.incr restarts;
            B.once b;
            restart ()))
        else scan (i + 1)
      in
      scan 0
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
              Rt.Probe.incr restarts;
              B.once b;
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
      let free = ref (-1) in
      let dup = ref false in
      (try
         for i = 0 to t.cap - 1 do
           let k = Rt.get t.keys.(i) in
           if k = key then (
             dup := true;
             raise_notrace Exit)
           else if k = 0 && !free < 0 then free := i
         done
       with Exit -> ());
      if !dup then false
      else if not (OL.trylock_version t.lock vn) then (
        Rt.Probe.incr restarts;
        B.once b;
        restart ())
      else
        let res =
          if !free >= 0 then (
            Rt.set t.vals.(!free) (Some v);
            Rt.set t.keys.(!free) key;
            true)
          else false
        in
        OL.unlock t.lock;
        res
    in
    restart ()

  (* Figure 6(a). *)
  let delete t key =
    check_key key;
    let b = B.create () in
    let rec restart () =
      let vn = OL.get_version t.lock in
      let rec scan i =
        if i >= t.cap then None
        else if Rt.get t.keys.(i) = key then
          if not (OL.trylock_version t.lock vn) then (
            Rt.Probe.incr restarts;
            B.once b;
            restart ())
          else (
            let v = Rt.get t.vals.(i) in
            Rt.set t.keys.(i) 0;
            Rt.set t.vals.(i) None;
            OL.unlock t.lock;
            v)
        else scan (i + 1)
      in
      scan 0
    in
    restart ()

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

  let validate ?crashed:_ t =
    let seen = Hashtbl.create 16 in
    let ok = ref (not (OL.is_locked (OL.get_version t.lock))) in
    for i = 0 to t.cap - 1 do
      let k = Rt.get t.keys.(i) in
      if k <> 0 then (
        if Hashtbl.mem seen k then ok := false;
        Hashtbl.replace seen k ();
        if Rt.get t.vals.(i) = None then ok := false)
    done;
    !ok
end

module Optik_based (Rt : RT) = Optik_based_gen (Rt) (Optik.Versioned)
