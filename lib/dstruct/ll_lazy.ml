(** Lazy concurrent list-based set (Heller et al., OPODIS '05) — "lazy" in
    Figure 9, with the optional node-caching optimization ("lazy-cache").

    Nodes carry a test-and-set lock (per the paper's methodology, §5) and
    a [marked] flag for logical deletion. Updates traverse optimistically,
    lock, and then {e validate} — the classic lock-then-validate structure
    whose overhead OPTIK eliminates. Insert locks only the predecessor;
    delete locks predecessor and victim, marks the victim (logical
    delete), then unlinks it (physical delete). Search is wait-free-style:
    traverse without synchronization and check the mark.

    Node caching follows §5.1: a thread's last-visited predecessor may
    serve as the next traversal's entry point. Validity here uses the
    [marked] flag (a marked entry node is dead); nodes are never recycled
    (QSBR + GC), so there is no ABA. *)

module type RT = Rt.Rt_intf.RT

module Backoff = Rt.Backoff

module Make (Rt : RT) = struct
  module B = Backoff.Make (Rt)
  module Lock = Locks.Tas (Rt)
  module Q = Mem.Qsbr.Make (Rt)

  type 'v node = {
    key : int;
    value : 'v;
    lock : Lock.t;
    marked : bool Rt.atomic;
    next : 'v node option Rt.atomic;
  }

  type 'v t = {
    head : 'v node;
    qsbr : 'v node Q.t;
    cache : 'v node option array option;
  }

  let name = "ll-lazy"

  let restarts = Rt.Probe.counter ~kind:Restart "ll-lazy.restarts"
  let cache_hits = Rt.Probe.counter "ll-lazy.cache-hits"
  let cache_tries = Rt.Probe.counter "ll-lazy.cache-tries"

  (* One node = one cache line (lock, mark and next co-located). *)
  let mk_node key value next =
    Rt.Probe.with_site "ll-lazy.node" (fun () ->
        let next = Rt.atomic next in
        {
          key;
          value;
          lock = Rt.atomic_with next false;
          marked = Rt.atomic_with next false;
          next;
        })

  let create ?cache:(use_cache = false) () =
    let tail = mk_node max_int (Obj.magic 0) None in
    let head = mk_node min_int (Obj.magic 0) (Some tail) in
    {
      head;
      qsbr = Q.create ();
      cache = (if use_cache then Some (Array.make 128 None) else None);
    }

  let check_key k =
    if k = min_int || k = max_int then invalid_arg "ll: key out of range"

  let next_exn n =
    match Rt.get n.next with
    | Some n' -> n'
    | None -> invalid_arg "ll: traversed past the tail sentinel"

  let entry_point t key =
    match t.cache with
    | None -> t.head
    | Some cache -> (
        Rt.Probe.incr cache_tries;
        match cache.(Rt.tid ()) with
        | Some n when n.key < key && not (Rt.get n.marked) ->
            Rt.Probe.incr cache_hits;
            n
        | _ -> t.head)

  let cache_put t pred =
    match t.cache with
    | None -> ()
    | Some cache ->
        if not (Rt.get pred.marked) then cache.(Rt.tid ()) <- Some pred

  let search t key =
    check_key key;
    Q.op_begin t.qsbr;
    let cur = ref (entry_point t key) in
    while !cur.key < key do
      cur := next_exn !cur
    done;
    let res =
      if !cur.key = key && not (Rt.get !cur.marked) then Some !cur.value
      else None
    in
    Q.op_end t.qsbr;
    res

  let find t key =
    let pred = ref (entry_point t key) in
    let cur = ref (next_exn !pred) in
    while !cur.key < key do
      pred := !cur;
      cur := next_exn !cur
    done;
    (!pred, !cur)

  (* Insert validation (ASCYLIB-optimized): only the predecessor is
     locked; it must be unmarked and still point to [cur]. *)
  let validate_insert pred cur =
    (not (Rt.get pred.marked))
    && (match Rt.get pred.next with Some n -> n == cur | None -> false)

  let insert t key value =
    check_key key;
    Q.op_begin t.qsbr;
    let b = B.create () in
    let rec attempt () =
      let pred, cur = find t key in
      if cur.key = key && not (Rt.get cur.marked) then (
        cache_put t pred;
        false)
      else (
        (* Key absent or logically deleted: lock, validate, link. A marked
           [cur] fails validation below ([pred.next] changes when the
           victim is unlinked) or, if not yet unlinked, forces restart. *)
        Lock.lock pred.lock;
        if
          validate_insert pred cur
          && not (cur.key = key (* re-check under lock *))
        then (
          Rt.set pred.next (Some (mk_node key value (Some cur)));
          Lock.unlock pred.lock;
          cache_put t pred;
          true)
        else (
          Lock.unlock pred.lock;
          Rt.Probe.incr restarts;
          B.once b;
          attempt ()))
    in
    let res = attempt () in
    Q.op_end t.qsbr;
    res

  let validate_delete pred cur =
    (not (Rt.get pred.marked))
    && (not (Rt.get cur.marked))
    && (match Rt.get pred.next with Some n -> n == cur | None -> false)

  let delete t key =
    check_key key;
    Q.op_begin t.qsbr;
    let b = B.create () in
    let rec attempt () =
      let pred, cur = find t key in
      if cur.key <> key || Rt.get cur.marked then (
        cache_put t pred;
        None)
      else (
        Lock.lock pred.lock;
        Lock.lock cur.lock;
        if validate_delete pred cur then (
          Rt.set cur.marked true;
          Rt.set pred.next (Rt.get cur.next);
          Lock.unlock cur.lock;
          Lock.unlock pred.lock;
          Q.retire t.qsbr cur;
          cache_put t pred;
          Some cur.value)
        else (
          Lock.unlock cur.lock;
          Lock.unlock pred.lock;
          Rt.Probe.incr restarts;
          B.once b;
          attempt ()))
    in
    let res = attempt () in
    Q.op_end t.qsbr;
    res

  let size t =
    let n = ref 0 in
    let cur = ref (Rt.get t.head.next) in
    let rec go () =
      match !cur with
      | Some node when node.key < max_int ->
          if not (Rt.get node.marked) then incr n;
          cur := Rt.get node.next;
          go ()
      | _ -> ()
    in
    go ();
    !n

  let fold t f acc =
    let rec go acc = function
      | Some node when node.key < max_int ->
          let acc =
            if not (Rt.get node.marked) then f node.key node.value acc else acc
          in
          go acc (Rt.get node.next)
      | _ -> acc
    in
    go acc (Rt.get t.head.next)

  let validate ?crashed:_ t =
    let ok = ref true in
    let rec go node =
      match Rt.get node.next with
      | None -> if node.key <> max_int then ok := false
      | Some nxt ->
          if nxt.key <= node.key then ok := false;
          if nxt.key < max_int && Rt.get nxt.marked then ok := false;
          if Lock.is_locked node.lock then ok := false;
          go nxt
    in
    go t.head;
    !ok
end
