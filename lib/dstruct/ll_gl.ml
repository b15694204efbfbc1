(** Global-lock sorted linked lists (§5.1 of the paper).

    {!Pessimistic} is "mcs-gl-opt" (with an MCS lock) and, instantiated
    with a test-and-set lock, the per-bucket list of the "lazy-gl" hash
    table (§5.2): searches traverse without any synchronization — sound
    because update linearization points are single stores on predecessor
    nodes — while updates always acquire the global lock and re-traverse
    pessimistically inside the critical section.

    {!Optik_gl} is the paper's new global-lock OPTIK list: the same
    transformation as the array map of §4.1. Updates traverse
    optimistically; infeasible operations (insert of a present key, delete
    of an absent key) return without ever locking, and feasible ones
    commit their already-computed position with a single
    [trylock_version].

    The two differ only in that update protocol. {!Base} holds the rest
    once: the sentinel-bounded node layout, [create], the unlocked
    [search], the [find_pred] traversal both protocols commit from, and
    the quiescent [size], [fold] and [validate] (which also requires the
    lock to be free). {!Pessimistic} adds its locked [insert] and
    [delete]; {!Optik_gl} adds its optimistic ones and their [restarts]
    probe. *)

module type RT = Rt.Rt_intf.RT
module type LOCK = Rt.Rt_intf.LOCK

module Backoff = Rt.Backoff

module Base (Rt : RT) (L : Dstruct_intf.TWIN_LOCK) = struct
  module Q = Mem.Qsbr.Make (Rt)

  type 'v node = { key : int; value : 'v; next : 'v node option Rt.atomic }

  type 'v t = { head : 'v node; lock : L.t; qsbr : 'v node Q.t }

  let name = L.name
  let node_site = L.name ^ ".node"

  let mk_node key value next =
    Rt.Probe.with_site node_site (fun () -> { key; value; next = Rt.atomic next })

  let create ?capacity:_ () =
    let tail = mk_node max_int (Obj.magic 0) None in
    let head = mk_node min_int (Obj.magic 0) (Some tail) in
    { head; lock = L.create (); qsbr = Q.create () }

  let check_key k =
    if k = min_int || k = max_int then invalid_arg "ll: key out of range"

  let next_exn n =
    match Rt.get n.next with
    | Some n' -> n'
    | None -> invalid_arg "ll: traversed past the tail sentinel"

  (* The "-opt" of mcs-gl-opt: no lock on searches. *)
  let search t key =
    check_key key;
    Q.op_begin t.qsbr;
    let cur = ref t.head in
    while !cur.key < key do
      cur := next_exn !cur
    done;
    let res = if !cur.key = key then Some !cur.value else None in
    Q.op_end t.qsbr;
    res

  (* Find the predecessor of [key]: under the lock for {!Pessimistic},
     optimistically for {!Optik_gl}. *)
  let find_pred t key =
    let pred = ref t.head in
    let cur = ref (next_exn t.head) in
    while !cur.key < key do
      pred := !cur;
      cur := next_exn !cur
    done;
    (!pred, !cur)

  let size t =
    let n = ref 0 in
    let cur = ref (Rt.get t.head.next) in
    let rec go () =
      match !cur with
      | Some node when node.key < max_int ->
          incr n;
          cur := Rt.get node.next;
          go ()
      | _ -> ()
    in
    go ();
    !n

  let fold t f acc =
    let rec go acc = function
      | Some node when node.key < max_int ->
          go (f node.key node.value acc) (Rt.get node.next)
      | _ -> acc
    in
    go acc (Rt.get t.head.next)

  let validate ?crashed:_ t =
    let ok = ref (L.is_free t.lock) in
    let rec go node =
      match Rt.get node.next with
      | None -> if node.key <> max_int then ok := false
      | Some nxt ->
          if nxt.key <= node.key then ok := false;
          go nxt
    in
    go t.head;
    !ok
end

module Pessimistic (Rt : RT) (Lock : LOCK) = struct
  include Base (Rt) (struct
    type t = Lock.t

    let create = Lock.create
    let is_free l = not (Lock.is_locked l)
    let name = "ll-gl-pessimistic"
  end)

  let insert t key value =
    check_key key;
    Q.op_begin t.qsbr;
    Lock.lock t.lock;
    let pred, cur = find_pred t key in
    let res =
      if cur.key = key then false
      else (
        Rt.set pred.next (Some (mk_node key value (Some cur)));
        true)
    in
    Lock.unlock t.lock;
    Q.op_end t.qsbr;
    res

  let delete t key =
    check_key key;
    Q.op_begin t.qsbr;
    Lock.lock t.lock;
    let pred, cur = find_pred t key in
    let res =
      if cur.key <> key then None
      else (
        Rt.set pred.next (Rt.get cur.next);
        Q.retire t.qsbr cur;
        Some cur.value)
    in
    Lock.unlock t.lock;
    Q.op_end t.qsbr;
    res
end

module Optik_gl (Rt : RT) = struct
  module B = Backoff.Make (Rt)
  module OL = Optik.Versioned (Rt)

  include Base (Rt) (struct
    type t = OL.t

    let create = OL.create
    let is_free l = not (OL.is_locked (OL.get_version l))
    let name = "ll-optik-gl"
  end)

  let restarts = Rt.Probe.counter ~kind:Restart "ll-optik-gl.restarts"

  (* Optimistic traversal; the single trylock validates that no update
     completed since [vn], so the computed (pred, cur) position is still
     current and can be committed directly. *)
  let insert t key value =
    check_key key;
    Q.op_begin t.qsbr;
    let b = B.create () in
    let rec attempt () =
      let vn = OL.get_version t.lock in
      let pred, cur = find_pred t key in
      if cur.key = key then false
      else if not (OL.trylock_version t.lock vn) then (
        Rt.Probe.incr restarts;
        B.once b;
        attempt ())
      else (
        Rt.set pred.next (Some (mk_node key value (Some cur)));
        OL.unlock t.lock;
        true)
    in
    let res = attempt () in
    Q.op_end t.qsbr;
    res

  let delete t key =
    check_key key;
    Q.op_begin t.qsbr;
    let b = B.create () in
    let rec attempt () =
      let vn = OL.get_version t.lock in
      let pred, cur = find_pred t key in
      if cur.key <> key then None
      else if not (OL.trylock_version t.lock vn) then (
        Rt.Probe.incr restarts;
        B.once b;
        attempt ())
      else (
        Rt.set pred.next (Rt.get cur.next);
        OL.unlock t.lock;
        Q.retire t.qsbr cur;
        Some cur.value)
    in
    let res = attempt () in
    Q.op_end t.qsbr;
    res
end
