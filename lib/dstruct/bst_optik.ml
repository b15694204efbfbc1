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
      never validate against it (the discipline of §4.2).

    The two trees differ only in their synchronization. {!Base} holds the
    tree once: the leaf and internal-node layout over a per-node lock
    (an OPTIK lock on the node's cache line for {!Make_gen}, [unit] —
    no simulated location — for {!Global_lock}), [create] over a
    tree-wide lock (none for {!Make_gen}), [check_key], [child_of], the
    commit steps both protocols share ([grow], [sibling_of]), the
    oblivious [search] and the quiescent [size], [fold] and [validate]
    (which requires the tree lock and every node lock to be free). Each
    tree adds its [locate] traversal, [insert] and [delete]; {!Make_gen}
    also its [restarts] probe. *)

module type RT = Rt.Rt_intf.RT
module type LOCK = Rt.Rt_intf.LOCK

module Backoff = Rt.Backoff

module Base
    (Rt : RT)
    (N : sig
      type t

      val create_with : 'a Rt.atomic -> t
      (** A node lock on the same cache line as the given cell. *)

      val is_free : t -> bool
    end)
    (L : Dstruct_intf.TWIN_LOCK) =
struct
  module Q = Mem.Qsbr.Make (Rt)

  type 'v leaf = { lkey : int; value : 'v }

  type 'v tree = Leaf of 'v leaf | Node of 'v inode

  and 'v inode = {
    key : int;  (** routing key: left subtree < key <= right subtree *)
    nlock : N.t;  (** the per-node lock; [unit] for bst-gl *)
    left : 'v tree Rt.atomic;
    right : 'v tree Rt.atomic;
  }

  type 'v t = { root : 'v inode; lock : L.t; qsbr : 'v inode Q.t }

  let name = L.name

  (* One internal node = one cache line (lock + both child pointers). *)
  let mk_inode key l r =
    let left = Rt.atomic l in
    {
      key;
      nlock = N.create_with left;
      left;
      right = Rt.atomic_with left r;
    }

  let create ?capacity:_ () =
    (* grandroot -> root -> (empty = min_int sentinel leaf) *)
    let empty = Leaf { lkey = min_int; value = Obj.magic 0 } in
    let root =
      mk_inode max_int empty (Leaf { lkey = max_int; value = Obj.magic 0 })
    in
    let groot =
      mk_inode max_int (Node root)
        (Leaf { lkey = max_int; value = Obj.magic 0 })
    in
    { root = groot; lock = L.create (); qsbr = Q.create () }

  let check_key k =
    if k = min_int || k = max_int then invalid_arg "bst: key out of range"

  let child_of n k = if k < n.key then n.left else n.right

  (* An insert of [k] replaces [leaf] with a fresh internal node over the
     old leaf and the new one. *)
  let grow leaf k v =
    let old = Leaf leaf in
    let fresh = Leaf { lkey = k; value = v } in
    if k < leaf.lkey then Node (mk_inode leaf.lkey fresh old)
    else Node (mk_inode k old fresh)

  (* A delete of [k] promotes the other child of the leaf's parent [p]. *)
  let sibling_of p k = if k < p.key then Rt.get p.right else Rt.get p.left

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

  let is_user l = l.lkey <> min_int && l.lkey <> max_int

  let size t =
    let rec go = function
      | Leaf l -> if is_user l then 1 else 0
      | Node n -> go (Rt.get n.left) + go (Rt.get n.right)
    in
    go (Node t.root)

  let fold t f acc =
    let rec go acc = function
      | Leaf l -> if is_user l then f l.lkey l.value acc else acc
      | Node n -> go (go acc (Rt.get n.left)) (Rt.get n.right)
    in
    go acc (Node t.root)

  (* Quiescent invariants: routing (left < key <= right) for user keys
     (sentinel leaves are exempt), the tree lock and all reachable
     internal locks free. *)
  let validate ?crashed:_ t =
    let ok = ref (L.is_free t.lock) in
    let rec go lo hi = function
      | Leaf l ->
          if is_user l && not (lo <= l.lkey && l.lkey < hi) then ok := false
      | Node n ->
          if not (N.is_free n.nlock) then ok := false;
          go lo (min hi n.key) (Rt.get n.left);
          go (max lo n.key) hi (Rt.get n.right)
    in
    go min_int max_int (Node t.root);
    !ok
end

module Make_gen (Rt : RT) (O : Optik.MAKER) = struct
  module B = Backoff.Make (Rt)
  module OL = O (Rt)

  include
    Base (Rt)
      (struct
        type t = OL.t

        let create_with anchor = Rt.atomic_with anchor 0
        let is_free l = not (OL.is_locked (OL.get_version l))
      end)
      (* no tree-wide lock *)
      (struct
        type t = unit

        let create () = ()
        let is_free () = true
        let name = "bst-optik"
      end)

  let restarts = Rt.Probe.counter ~kind:Restart "bst-optik.restarts"

  (* Traverse to the leaf for [k], hand-over-hand tracking grandparent
     and parent; each node's version is read {e before} following its
     child pointer, so a later [trylock_version] validates the pointer
     we followed. *)
  let locate t k =
    let rec go gp gpv p =
      let pv = OL.get_version p.nlock in
      match Rt.get (child_of p k) with
      | Leaf l -> (gp, gpv, p, pv, l)
      | Node n -> go p pv n
    in
    let rv = OL.get_version t.root.nlock in
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
      else if not (OL.trylock_version p.nlock pv) then (
        Rt.Probe.incr restarts;
        B.once b;
        attempt ())
      else (
        Rt.set (child_of p k) (grow leaf k v);
        OL.unlock p.nlock;
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
      else if not (OL.trylock_version gp.nlock gpv) then (
        Rt.Probe.incr restarts;
        B.once b;
        attempt ())
      else if not (OL.trylock_version p.nlock pv) then (
        OL.revert gp.nlock;
        Rt.Probe.incr restarts;
        B.once b;
        attempt ())
      else (
        (* promote the sibling into the grandparent's slot *)
        Rt.set (child_of gp k) (sibling_of p k);
        OL.unlock gp.nlock;
        (* [p]'s lock is never released: it marks the node dead. *)
        Q.retire t.qsbr p;
        Some leaf.value)
    in
    let res = attempt () in
    Q.op_end t.qsbr;
    res
end

module Make (Rt : RT) = Make_gen (Rt) (Optik.Versioned)

(** Pessimistic baseline: the same external tree under one global lock
    (updates lock and re-traverse; searches stay oblivious, the same
    optimization as "mcs-gl-opt"). *)
module Global_lock (Rt : RT) (Lock : LOCK) = struct
  include
    Base (Rt)
      (* lock-free nodes: [unit] allocates no simulated location *)
      (struct
        type t = unit

        let create_with _ = ()
        let is_free () = true
      end)
      (struct
        type t = Lock.t

        let create = Lock.create
        let is_free l = not (Lock.is_locked l)
        let name = "bst-gl"
      end)

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
        Rt.set (child_of p k) (grow leaf k v);
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
        Rt.set (child_of gp k) (sibling_of p k);
        Q.retire t.qsbr p;
        Some leaf.value)
    in
    Lock.unlock t.lock;
    Q.op_end t.qsbr;
    res
end
