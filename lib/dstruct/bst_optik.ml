(** External (leaf-oriented) binary search trees with OPTIK concurrency.

    The paper's related-work section (§6) points out that BST-TK — the
    binary search tree of the ASCY/ASPLOS'15 work by the same authors —
    "detects concurrency with version numbers (as OPTIK does)"; OPTIK is
    the generalization of that idea. This module closes the loop and
    builds that tree with the OPTIK lock library, plus a global-lock
    baseline for the benchmarks.

    Layout: internal nodes route ([k < node.key] goes left, otherwise
    right) and never hold user keys; leaves hold the key/value pairs. Two
    sentinel internals above the tree guarantee every user leaf has an
    internal parent {e and} grandparent, so updates never touch a special
    case:

    - {e insert} replaces a leaf with a fresh internal node holding the
      old leaf and the new one — it locks and validates only the parent
      (one [trylock_version], exactly the pattern of §3);
    - {e delete} unlinks the leaf's parent, promoting the sibling — it
      locks grandparent then parent. The unlinked parent's OPTIK lock is
      {e never released}, so stale traversals that still reference it can
      never validate against it (the discipline of §4.2). *)

module type RT = Rt.Rt_intf.RT
module type LOCK = Rt.Rt_intf.LOCK

module Backoff = Rt.Backoff

module Make_gen (Rt : RT) (O : Optik.MAKER) = struct
  module B = Backoff.Make (Rt)
  module OL = O (Rt)
  module Q = Mem.Qsbr.Make (Rt)

  type 'v leaf = { lkey : int; value : 'v }

  type 'v tree = Leaf of 'v leaf | Node of 'v inode

  and 'v inode = {
    key : int;  (** routing key: left subtree < key <= right subtree *)
    lock : OL.t;
    left : 'v tree Rt.atomic;
    right : 'v tree Rt.atomic;
  }

  type 'v t = { root : 'v inode; qsbr : 'v inode Q.t }

  let name = "bst-optik"

  let restarts = Rt.Probe.counter "bst-optik.restarts"

  (* One internal node = one cache line (lock + both child pointers). *)
  let mk_inode key l r =
    let left = Rt.atomic l in
    {
      key;
      lock = Rt.atomic_with left 0;
      left;
      right = Rt.atomic_with left r;
    }

  let create ?capacity:_ () =
    (* grandroot -> root -> (empty = min_int sentinel leaf) *)
    let empty = Leaf { lkey = min_int; value = Obj.magic 0 } in
    let root = mk_inode max_int empty (Leaf { lkey = max_int; value = Obj.magic 0 }) in
    let groot =
      mk_inode max_int (Node root)
        (Leaf { lkey = max_int; value = Obj.magic 0 })
    in
    { root = groot; qsbr = Q.create () }

  let check_key k =
    if k = min_int || k = max_int then invalid_arg "bst: key out of range"

  let child_of n k = if k < n.key then n.left else n.right

  (* Oblivious search (updates linearize at single child-pointer stores). *)
  let search t k =
    check_key k;
    Q.op_begin t.qsbr;
    let rec go n =
      match Rt.get (child_of n k) with
      | Leaf l -> if l.lkey = k then Some l.value else None
      | Node n' -> go n'
    in
    let res = go t.root in
    Q.op_end t.qsbr;
    res

  (* Traverse to the leaf for [k], hand-over-hand tracking grandparent
     and parent; each node's version is read {e before} following its
     child pointer, so a later [trylock_version] validates the pointer
     we followed. *)
  let locate t k =
    let rec go gp gpv p =
      let pv = OL.get_version p.lock in
      match Rt.get (child_of p k) with
      | Leaf l -> (gp, gpv, p, pv, l)
      | Node n -> go p pv n
    in
    let rv = OL.get_version t.root.lock in
    match Rt.get t.root.left with
    | Node root1 -> go t.root rv root1
    | Leaf _ -> assert false

  let insert t k v =
    check_key k;
    Q.op_begin t.qsbr;
    let b = B.create () in
    let rec attempt () =
      let _, _, p, pv, leaf = locate t k in
      if leaf.lkey = k then false
      else if not (OL.trylock_version p.lock pv) then (
        Rt.Probe.incr restarts;
        B.once b;
        attempt ())
      else (
        let old = Leaf leaf in
        let fresh = Leaf { lkey = k; value = v } in
        let node =
          if k < leaf.lkey then Node (mk_inode leaf.lkey fresh old)
          else Node (mk_inode k old fresh)
        in
        Rt.set (child_of p k) node;
        OL.unlock p.lock;
        true)
    in
    let res = attempt () in
    Q.op_end t.qsbr;
    res

  let delete t k =
    check_key k;
    Q.op_begin t.qsbr;
    let b = B.create () in
    let rec attempt () =
      let gp, gpv, p, pv, leaf = locate t k in
      if leaf.lkey <> k then None
      else if not (OL.trylock_version gp.lock gpv) then (
        Rt.Probe.incr restarts;
        B.once b;
        attempt ())
      else if not (OL.trylock_version p.lock pv) then (
        OL.revert gp.lock;
        Rt.Probe.incr restarts;
        B.once b;
        attempt ())
      else (
        (* promote the sibling into the grandparent's slot *)
        let sibling =
          if k < p.key then Rt.get p.right else Rt.get p.left
        in
        Rt.set (child_of gp k) sibling;
        OL.unlock gp.lock;
        (* [p]'s lock is never released: it marks the node dead. *)
        Q.retire t.qsbr p;
        Some leaf.value)
    in
    let res = attempt () in
    Q.op_end t.qsbr;
    res

  let size t =
    let rec go = function
      | Leaf l -> if l.lkey <> min_int && l.lkey <> max_int then 1 else 0
      | Node n -> go (Rt.get n.left) + go (Rt.get n.right)
    in
    go (Node t.root)

  let fold t f acc =
    let rec go acc = function
      | Leaf l ->
          if l.lkey <> min_int && l.lkey <> max_int then f l.lkey l.value acc
          else acc
      | Node n -> go (go acc (Rt.get n.left)) (Rt.get n.right)
    in
    go acc (Node t.root)

  (* Quiescent invariants: routing (left < key <= right) for user keys
     (sentinel leaves are exempt), all reachable internal locks free. *)
  let validate ?crashed:_ t =
    let ok = ref true in
    let rec go lo hi = function
      | Leaf l ->
          if
            l.lkey <> min_int && l.lkey <> max_int
            && not (lo <= l.lkey && l.lkey < hi)
          then ok := false
      | Node n ->
          if OL.is_locked (OL.get_version n.lock) then ok := false;
          go lo (min hi n.key) (Rt.get n.left);
          go (max lo n.key) hi (Rt.get n.right)
    in
    go min_int max_int (Node t.root);
    !ok
end

module Make (Rt : RT) = Make_gen (Rt) (Optik.Versioned)

(** Pessimistic baseline: the same external tree under one global lock
    (updates lock and re-traverse; searches stay oblivious, the same
    optimization as "mcs-gl-opt"). *)
module Global_lock (Rt : RT) (Lock : LOCK) = struct
  module Q = Mem.Qsbr.Make (Rt)

  type 'v leaf = { lkey : int; value : 'v }

  type 'v tree = Leaf of 'v leaf | Node of 'v inode

  and 'v inode = {
    key : int;
    left : 'v tree Rt.atomic;
    right : 'v tree Rt.atomic;
  }

  type 'v t = { root : 'v inode; lock : Lock.t; qsbr : 'v inode Q.t }

  let name = "bst-gl"

  let mk_inode key l r =
    let left = Rt.atomic l in
    { key; left; right = Rt.atomic_with left r }

  let create ?capacity:_ () =
    let empty = Leaf { lkey = min_int; value = Obj.magic 0 } in
    let root =
      mk_inode max_int empty (Leaf { lkey = max_int; value = Obj.magic 0 })
    in
    let groot =
      mk_inode max_int (Node root)
        (Leaf { lkey = max_int; value = Obj.magic 0 })
    in
    { root = groot; lock = Lock.create (); qsbr = Q.create () }

  let check_key k =
    if k = min_int || k = max_int then invalid_arg "bst: key out of range"

  let child_of n k = if k < n.key then n.left else n.right

  let search t k =
    check_key k;
    Q.op_begin t.qsbr;
    let rec go n =
      match Rt.get (child_of n k) with
      | Leaf l -> if l.lkey = k then Some l.value else None
      | Node n' -> go n'
    in
    let res = go t.root in
    Q.op_end t.qsbr;
    res

  let locate t k =
    let rec go gp p =
      match Rt.get (child_of p k) with
      | Leaf l -> (gp, p, l)
      | Node n -> go p n
    in
    match Rt.get t.root.left with
    | Node root1 -> go t.root root1
    | Leaf _ -> assert false

  let insert t k v =
    check_key k;
    Q.op_begin t.qsbr;
    Lock.lock t.lock;
    let _, p, leaf = locate t k in
    let res =
      if leaf.lkey = k then false
      else (
        let old = Leaf leaf in
        let fresh = Leaf { lkey = k; value = v } in
        let node =
          if k < leaf.lkey then Node (mk_inode leaf.lkey fresh old)
          else Node (mk_inode k old fresh)
        in
        Rt.set (child_of p k) node;
        true)
    in
    Lock.unlock t.lock;
    Q.op_end t.qsbr;
    res

  let delete t k =
    check_key k;
    Q.op_begin t.qsbr;
    Lock.lock t.lock;
    let gp, p, leaf = locate t k in
    let res =
      if leaf.lkey <> k then None
      else (
        let sibling =
          if k < p.key then Rt.get p.right else Rt.get p.left
        in
        Rt.set (child_of gp k) sibling;
        Q.retire t.qsbr p;
        Some leaf.value)
    in
    Lock.unlock t.lock;
    Q.op_end t.qsbr;
    res

  let size t =
    let rec go = function
      | Leaf l -> if l.lkey <> min_int && l.lkey <> max_int then 1 else 0
      | Node n -> go (Rt.get n.left) + go (Rt.get n.right)
    in
    go (Node t.root)

  let fold t f acc =
    let rec go acc = function
      | Leaf l ->
          if l.lkey <> min_int && l.lkey <> max_int then f l.lkey l.value acc
          else acc
      | Node n -> go (go acc (Rt.get n.left)) (Rt.get n.right)
    in
    go acc (Node t.root)

  let validate ?crashed:_ t =
    let ok = ref (not (Lock.is_locked t.lock)) in
    let rec go lo hi = function
      | Leaf l ->
          if
            l.lkey <> min_int && l.lkey <> max_int
            && not (lo <= l.lkey && l.lkey < hi)
          then ok := false
      | Node n ->
          go lo (min hi n.key) (Rt.get n.left);
          go (max lo n.key) hi (Rt.get n.right)
    in
    go min_int max_int (Node t.root);
    !ok
end
