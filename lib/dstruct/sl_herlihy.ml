(** The optimistic skip list of Herlihy, Lev, Luchangco and Shavit
    (SIROCCO '07) — "herlihy" in Figure 11 — plus the paper's
    OPTIK-validated variant "herl-optik" (§5.3).

    Classic algorithm: updates traverse optimistically collecting
    predecessors and successors per level, lock the (distinct)
    predecessors bottom-up, and {e validate} that each predecessor is
    unmarked and still points to the recorded successor. Deletion first
    locks and logically marks the victim, then unlinks it under the
    predecessor locks. [fully_linked] publishes completely inserted nodes.

    The OPTIK variant ([create ~optik:true ()]) gives each node an OPTIK
    lock and records predecessor versions during traversal. Locking uses
    [lock_version]: when the version is unchanged, the fine-grained
    per-level validation (mark and next-pointer checks) is skipped
    entirely — the version proves the node was not modified. Only on a
    version mismatch does it fall back to Herlihy's original validation.
    (A version match also covers the [succ.marked] check: a marked
    successor is tolerable because the deleter revalidates its
    predecessors under their locks and re-traverses on failure.) *)

module type RT = Rt.Rt_intf.RT

module Backoff = Rt.Backoff

module Make (Rt : RT) = struct
  module B = Backoff.Make (Rt)
  module OL = Optik.Versioned (Rt)
  module Q = Mem.Qsbr.Make (Rt)

  let max_level = Sl_common.max_level

  type 'v node = {
    key : int;
    value : 'v;
    lock : OL.t;  (** plain lock for "herlihy", OPTIK lock for "herl-optik" *)
    nexts : 'v node option Rt.atomic array;
    marked : bool Rt.atomic;
    fully_linked : bool Rt.atomic;
    toplevel : int;  (** highest valid index into [nexts] *)
  }

  type 'v t = { head : 'v node; optik : bool; qsbr : 'v node Q.t }

  let name = "sl-herlihy"

  let restarts = Rt.Probe.counter "sl-herlihy.restarts"
  let optik_validations = Rt.Probe.counter "sl-herlihy.optik-fast-validations"

  (* diagnostic breakdown of validation failures (also used to reproduce
     the §5.3 restart-rate analysis) *)
  let vfail_pred_marked = Rt.Probe.counter "sl-herlihy.vfail-pred-marked"
  let vfail_succ = Rt.Probe.counter "sl-herlihy.vfail-succ"
  let vfail_next = Rt.Probe.counter "sl-herlihy.vfail-next"
  let found_marked_retry = Rt.Probe.counter "sl-herlihy.found-marked-retry"

  (* A node's fields share one cache line (lock, flags and the level
     links — tall nodes would spill onto further lines in C, but levels
     above 3 are rare and the approximation is conservative for OPTIK,
     whose per-node version already covers every level). *)
  let mk_node key value toplevel =
    let anchor = Rt.atomic None in
    let nexts =
      Array.init (toplevel + 1) (fun i ->
          if i = 0 then anchor else Rt.atomic_with anchor None)
    in
    {
      key;
      value;
      lock = Rt.atomic_with anchor 0;
      nexts;
      marked = Rt.atomic_with anchor false;
      fully_linked = Rt.atomic_with anchor false;
      toplevel;
    }

  let create ?(optik = false) () =
    let tail = mk_node max_int (Obj.magic 0) (max_level - 1) in
    let head = mk_node min_int (Obj.magic 0) (max_level - 1) in
    for l = 0 to max_level - 1 do
      Rt.set head.nexts.(l) (Some tail)
    done;
    Rt.set head.fully_linked true;
    Rt.set tail.fully_linked true;
    { head; optik; qsbr = Q.create () }

  let check_key k =
    if k = min_int || k = max_int then invalid_arg "sl: key out of range"

  let next_at node l =
    match Rt.get node.nexts.(l) with
    | Some n -> n
    | None -> invalid_arg "sl: missing level link"

  (* Traverse, collecting predecessor / successor (and, for the OPTIK
     variant, the predecessor's version read {e before} following its
     next pointer) at every level. Returns the highest level at which the
     key was found, or -1. *)
  let find t key (preds : 'v node array) (succs : 'v node array)
      (predvs : OL.version array) =
    let lfound = ref (-1) in
    let pred = ref t.head in
    for l = max_level - 1 downto 0 do
      let continue = ref true in
      while !continue do
        (* Version tracking costs one extra read per settled level; only
           the OPTIK variant pays for it. *)
        let v = if t.optik then OL.get_version !pred.lock else 0 in
        let cur = next_at !pred l in
        if cur.key < key then pred := cur
        else (
          preds.(l) <- !pred;
          predvs.(l) <- v;
          succs.(l) <- cur;
          if !lfound = -1 && cur.key = key then lfound := l;
          continue := false)
      done
    done;
    !lfound

  let search t key =
    check_key key;
    Q.op_begin t.qsbr;
    let preds = Array.make max_level t.head in
    let succs = Array.make max_level t.head in
    let predvs = Array.make max_level 0 in
    let lfound = find t key preds succs predvs in
    let res =
      if lfound >= 0 then (
        let f = succs.(lfound) in
        if Rt.get f.fully_linked && not (Rt.get f.marked) then Some f.value
        else None)
      else None
    in
    Q.op_end t.qsbr;
    res

  (* Lock the distinct predecessors of levels [0..top], validating each
     level. Returns [None] on validation failure (with everything
     unlocked) or [Some distinct_locked_preds]. *)
  let lock_preds t ~top ~victim preds succs predvs =
    let locked : 'v node list ref = ref [] in
    let valid = ref true in
    let prev_pred = ref None in
    let l = ref 0 in
    while !valid && !l <= top do
      let pred = preds.(!l) and succ = succs.(!l) in
      let same_as_prev =
        match !prev_pred with Some p -> p == pred | None -> false
      in
      let version_ok = ref false in
      if not same_as_prev then (
        if t.optik then (
          (* herl-optik: single blocking lock that reports whether the
             version is unchanged — if so, skip the per-level pointer
             checks. The [marked] re-check is still required: a stale
             traversal may have entered an already-unlinked node and read
             its (released, post-deletion) version, which then validates
             even though the node is dead. [marked] is never reset, so
             unmarked-under-lock proves the predecessor is still live. *)
          version_ok :=
            OL.lock_version pred.lock predvs.(!l)
            && not (Rt.get pred.marked);
          if !version_ok then Rt.Probe.incr optik_validations)
        else OL.lock pred.lock;
        locked := pred :: !locked;
        prev_pred := Some pred);
      if not !version_ok then (
        (* Fine-grained validation (original Herlihy). *)
        let succ_ok =
          match victim with
          | Some v -> succ == v (* delete: successor must be the victim *)
          | None -> not (Rt.get succ.marked)
        in
        let next_ok =
          match Rt.get pred.nexts.(!l) with
          | Some n -> n == succ
          | None -> false
        in
        if Rt.get pred.marked then (
          Rt.Probe.incr vfail_pred_marked;
          valid := false)
        else if not succ_ok then (
          Rt.Probe.incr vfail_succ;
          valid := false)
        else if not next_ok then (
          Rt.Probe.incr vfail_next;
          valid := false));
      incr l
    done;
    if !valid then Some !locked
    else (
      List.iter (fun p -> OL.unlock p.lock) !locked;
      None)

  let insert t key value =
    check_key key;
    Q.op_begin t.qsbr;
    let preds = Array.make max_level t.head in
    let succs = Array.make max_level t.head in
    let predvs = Array.make max_level 0 in
    let toplevel = Sl_common.random_toplevel (Rt.tid ()) in
    let b = B.create () in
    let rec attempt () =
      let lfound = find t key preds succs predvs in
      if lfound >= 0 then (
        let f = succs.(lfound) in
        if not (Rt.get f.marked) then (
          (* Present (or being inserted): wait until fully linked. *)
          let s = B.spin () in
          while not (Rt.get f.fully_linked) do
            B.spin_once s
          done;
          false)
        else (
          (* Being deleted: retry until it is gone. *)
          Rt.Probe.incr restarts;
          Rt.Probe.incr found_marked_retry;
          B.once b;
          attempt ()))
      else
        match lock_preds t ~top:toplevel ~victim:None preds succs predvs with
        | None ->
            Rt.Probe.incr restarts;
            B.once b;
            attempt ()
        | Some locked ->
            let newnode = mk_node key value toplevel in
            for l = 0 to toplevel do
              Rt.set newnode.nexts.(l) (Some succs.(l))
            done;
            for l = 0 to toplevel do
              Rt.set preds.(l).nexts.(l) (Some newnode)
            done;
            Rt.set newnode.fully_linked true;
            List.iter (fun p -> OL.unlock p.lock) locked;
            true
    in
    let res = attempt () in
    Q.op_end t.qsbr;
    res

  let ok_to_delete f lfound =
    Rt.get f.fully_linked && f.toplevel = lfound && not (Rt.get f.marked)

  let delete t key =
    check_key key;
    Q.op_begin t.qsbr;
    let preds = Array.make max_level t.head in
    let succs = Array.make max_level t.head in
    let predvs = Array.make max_level 0 in
    let victim_locked = ref None in
    let b = B.create () in
    let rec attempt () =
      let lfound = find t key preds succs predvs in
      let proceed victim =
        let top = victim.toplevel in
        match
          lock_preds t ~top ~victim:(Some victim) preds succs predvs
        with
        | None ->
            Rt.Probe.incr restarts;
            B.once b;
            attempt ()
        | Some locked ->
            for l = top downto 0 do
              Rt.set preds.(l).nexts.(l) (Rt.get victim.nexts.(l))
            done;
            OL.unlock victim.lock;
            List.iter (fun p -> OL.unlock p.lock) locked;
            Q.retire t.qsbr victim;
            Some victim.value
      in
      match !victim_locked with
      | Some victim ->
          (* Victim already locked and marked by us; revalidate preds. *)
          proceed victim
      | None ->
          if lfound < 0 then None
          else
            let f = succs.(lfound) in
            if not (ok_to_delete f lfound) then None
            else (
              OL.lock f.lock;
              if Rt.get f.marked then (
                (* Raced with another deleter. *)
                OL.revert f.lock;
                None)
              else (
                Rt.set f.marked true;
                victim_locked := Some f;
                proceed f))
    in
    let res = attempt () in
    Q.op_end t.qsbr;
    res

  let size t =
    let n = ref 0 in
    let cur = ref (next_at t.head 0) in
    while !cur.key < max_int do
      if Rt.get !cur.fully_linked && not (Rt.get !cur.marked) then incr n;
      cur := next_at !cur 0
    done;
    !n

  let fold t f acc =
    let acc = ref acc in
    let cur = ref (next_at t.head 0) in
    while !cur.key < max_int do
      if Rt.get !cur.fully_linked && not (Rt.get !cur.marked) then
        acc := f !cur.key !cur.value !acc;
      cur := next_at !cur 0
    done;
    !acc

  (* Quiescent invariants: each level sorted; every node linked at level
     [l] is linked at all lower levels; no marks, no partial links. *)
  let validate ?crashed:_ t =
    let ok = ref true in
    (* level 0 ordering + flags *)
    let cur = ref (next_at t.head 0) in
    let prev_key = ref min_int in
    while !cur.key < max_int do
      if !cur.key <= !prev_key then ok := false;
      if Rt.get !cur.marked then ok := false;
      if not (Rt.get !cur.fully_linked) then ok := false;
      if OL.is_locked (OL.get_version !cur.lock) then ok := false;
      prev_key := !cur.key;
      cur := next_at !cur 0
    done;
    (* upper levels: subsets of level below, sorted *)
    for l = 1 to max_level - 1 do
      let keys_below = Hashtbl.create 64 in
      let c = ref (next_at t.head (l - 1)) in
      while !c.key < max_int do
        Hashtbl.replace keys_below !c.key ();
        c := next_at !c (l - 1)
      done;
      let c = ref (next_at t.head l) in
      let pk = ref min_int in
      while !c.key < max_int do
        if !c.key <= !pk then ok := false;
        if not (Hashtbl.mem keys_below !c.key) then ok := false;
        pk := !c.key;
        c := next_at !c l
      done
    done;
    !ok
end
