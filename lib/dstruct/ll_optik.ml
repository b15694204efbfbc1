(** Fine-grained OPTIK linked list (Figure 8 of the paper), with optional
    node caching (§5.1).

    Every node carries an OPTIK lock protecting the node and its [next]
    pointer. Traversals perform hand-over-hand {e version tracking} (the
    optimistic analogue of lock coupling): they read a node's version
    before following its [next] pointer, so that a later
    [trylock_version] on that node validates the entire local
    neighbourhood in one CAS.

    - Insertion locks and validates only the predecessor; the
      linearization point is the store to [pred.next].
    - Deletion locks predecessor and victim (in this order; reverting the
      predecessor on failure avoids spurious version changes). The
      victim's lock is {e never released}: a locked version marks the node
      dead, which both replaces the lazy list's [marked] flag and keeps
      node caches from entering the list through it.
    - Search is 100% sequential code — correct because update
      linearization points are plain stores on live predecessors.

    {b Node caching} (enabled with [create ~cache:true ()]): each thread
    remembers the last predecessor it traversed together with the version
    it observed. The next operation may start traversing from that node
    instead of the head iff the version is unchanged and unlocked (node
    still live and unmodified) and its key precedes the target key.
    Deleted entry points are rejected because their version is locked
    forever. Operations whose entry node is deleted or modified
    concurrently with the operation remain linearizable: they can be
    linearized at the moment the entry version was validated. *)

module type RT = Rt.Rt_intf.RT

module Backoff = Rt.Backoff

module Make_gen (Rt : RT) (O : Optik.MAKER) = struct
  module B = Backoff.Make (Rt)
  module OL = O (Rt)
  module Q = Mem.Qsbr.Make (Rt)

  type 'v node = {
    key : int;
    value : 'v;
    lock : OL.t;
    next : 'v node option Rt.atomic;
  }

  type 'v cache_entry = { cnode : 'v node; cversion : OL.version }

  type 'v t = {
    head : 'v node;
    qsbr : 'v node Q.t;
    cache : 'v cache_entry option array option;  (** [Some _] iff caching *)
  }

  let name = "ll-optik"

  let restarts = Rt.Probe.counter ~kind:Restart "ll-optik.restarts"
  let cache_hits = Rt.Probe.counter "ll-optik.cache-hits"
  let cache_tries = Rt.Probe.counter "ll-optik.cache-tries"

  (* One node = one cache line: the OPTIK lock shares the line with the
     next pointer, as the C struct layout does — so hand-over-hand
     version tracking costs one line access per node, not two. *)
  let mk_node key value next =
    Rt.Probe.with_site "ll-optik.node" (fun () ->
        let next = Rt.atomic next in
        { key; value; lock = Rt.atomic_with next 0; next })

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

  (* Pick the traversal entry point: the cached node if it is provably
     still live, unmodified and before [key]; the head otherwise. *)
  let entry_point t key =
    match t.cache with
    | None -> t.head
    | Some cache -> (
        Rt.Probe.incr cache_tries;
        match cache.(Rt.tid ()) with
        | Some { cnode; cversion }
          when cnode.key < key
               && (not (OL.is_locked cversion))
               && OL.same_version (OL.get_version cnode.lock) cversion ->
            Rt.Probe.incr cache_hits;
            cnode
        | _ -> t.head)

  (* Remember [pred] as the entry point for this thread's next operation,
     with a freshly read (unlocked) version. *)
  let cache_put t pred =
    match t.cache with
    | None -> ()
    | Some cache ->
        let v = OL.get_version pred.lock in
        if not (OL.is_locked v) then
          cache.(Rt.tid ()) <- Some { cnode = pred; cversion = v }

  (* Figure 8(c): oblivious sequential search. *)
  let search t key =
    check_key key;
    Q.op_begin t.qsbr;
    let cur = ref (entry_point t key) in
    while !cur.key < key do
      cur := next_exn !cur
    done;
    let res = if !cur.key = key then Some !cur.value else None in
    Q.op_end t.qsbr;
    res

  (* Figure 8(b): hand-over-hand version tracking; lock and validate only
     the predecessor. *)
  let insert t key value =
    check_key key;
    Q.op_begin t.qsbr;
    let b = B.create () in
    let rec attempt () =
      let start = entry_point t key in
      let pred = ref start and predv = ref (OL.get_version start.lock) in
      let cur = ref start and curv = ref !predv in
      (* First version read happens before following [next]; see the
         do/while of Figure 8(b). *)
      let continue = ref true in
      while !continue do
        curv := OL.get_version !cur.lock;
        pred := !cur;
        predv := !curv;
        cur := next_exn !cur;
        if !cur.key >= key then continue := false
      done;
      if !cur.key = key then (
        cache_put t !pred;
        false)
      else if not (OL.trylock_version !pred.lock !predv) then (
        Rt.Probe.incr restarts;
        B.once b;
        attempt ())
      else (
        let newnode = mk_node key value (Some !cur) in
        Rt.set !pred.next (Some newnode);
        OL.unlock !pred.lock;
        cache_put t !pred;
        true)
    in
    let res = attempt () in
    Q.op_end t.qsbr;
    res

  (* Figure 8(a): lock predecessor then victim; revert the predecessor if
     locking the victim fails, to avoid false conflicts. The victim's lock
     is never released. *)
  let delete t key =
    check_key key;
    Q.op_begin t.qsbr;
    let b = B.create () in
    let rec attempt () =
      let start = entry_point t key in
      let headv = OL.get_version start.lock in
      let pred = ref start and predv = ref headv in
      let cur = ref start and curv = ref headv in
      let continue = ref true in
      while !continue do
        pred := !cur;
        predv := !curv;
        cur := next_exn !cur;
        curv := OL.get_version !cur.lock;
        if !cur.key >= key then continue := false
      done;
      if !cur.key <> key then (
        cache_put t !pred;
        None)
      else if not (OL.trylock_version !pred.lock !predv) then (
        Rt.Probe.incr restarts;
        B.once b;
        attempt ())
      else if not (OL.trylock_version !cur.lock !curv) then (
        OL.revert !pred.lock;
        Rt.Probe.incr restarts;
        B.once b;
        attempt ())
      else (
        Rt.set !pred.next (Rt.get !cur.next);
        let result = !cur.value in
        OL.unlock !pred.lock;
        (* [cur.lock] stays locked: the node is dead. *)
        Q.retire t.qsbr !cur;
        cache_put t !pred;
        Some result)
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

  (* Quiescent invariants: strictly sorted keys; all live nodes unlocked;
     terminates at the tail sentinel. *)
  let validate ?crashed:_ t =
    let ok = ref true in
    let rec go node =
      match Rt.get node.next with
      | None -> if node.key <> max_int then ok := false
      | Some nxt ->
          if nxt.key <= node.key then ok := false;
          if nxt.key < max_int && OL.is_locked (OL.get_version nxt.lock) then
            ok := false;
          go nxt
    in
    go t.head;
    !ok
end

module Make (Rt : RT) = Make_gen (Rt) (Optik.Versioned)
