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
    (A version match also covers the [succ.deleted] check: a marked
    successor is tolerable because the deleter revalidates its
    predecessors under their locks and re-traverses on failure.)

    The node, its sentinels and the quiescent helpers come from
    {!Sl_common.Base}, whose [deleted] flag is Herlihy's mark; this module
    adds the two modes' [t] (the [optik] flag), the [find] traversal and
    [search] built on it, the [lock_preds] validation, [insert],
    [delete] and the probes of both modes. *)

module type RT = Rt.Rt_intf.RT

module Backoff = Rt.Backoff

module Make (Rt : RT) = struct
  module B = Backoff.Make (Rt)

  include Sl_common.Base (Rt) (struct
    let node_site = None
  end)

  type 'v t = { head : 'v node; optik : bool; qsbr : 'v node Q.t }

  let name = "sl-herlihy"

  let restarts = Rt.Probe.counter ~kind:Restart "sl-herlihy.restarts"
  let optik_validations = Rt.Probe.counter "sl-herlihy.optik-fast-validations"

  (* diagnostic breakdown of validation failures (also used to reproduce
     the §5.3 restart-rate analysis) *)
  let vfail_pred_marked = Rt.Probe.counter ~kind:Vfail "sl-herlihy.vfail-pred-marked"
  let vfail_succ = Rt.Probe.counter ~kind:Vfail "sl-herlihy.vfail-succ"
  let vfail_next = Rt.Probe.counter ~kind:Vfail "sl-herlihy.vfail-next"
  let found_marked_retry = Rt.Probe.counter ~kind:Restart "sl-herlihy.found-marked-retry"

  (* The node lock is a plain lock for "herlihy", an OPTIK lock for
     "herl-optik". *)
  let create ?(optik = false) () =
    let head = sentinels () in
    { head; optik; qsbr = Q.create () }

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
    let preds, succs, predvs = level_arrays t.head in
    let lfound = find t key preds succs predvs in
    let res =
      if lfound >= 0 then (
        let f = succs.(lfound) in
        if live f then Some f.value else None)
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
             checks. The [deleted] re-check is still required: a stale
             traversal may have entered an already-unlinked node and read
             its (released, post-deletion) version, which then validates
             even though the node is dead. [deleted] is never reset, so
             unmarked-under-lock proves the predecessor is still live. *)
          version_ok :=
            OL.lock_version pred.lock predvs.(!l)
            && not (Rt.get pred.deleted);
          if !version_ok then Rt.Probe.incr optik_validations)
        else OL.lock pred.lock;
        locked := pred :: !locked;
        prev_pred := Some pred);
      if not !version_ok then (
        (* Fine-grained validation (original Herlihy). *)
        let succ_ok =
          match victim with
          | Some v -> succ == v (* delete: successor must be the victim *)
          | None -> not (Rt.get succ.deleted)
        in
        let next_ok =
          match Rt.get pred.nexts.(!l) with
          | Some n -> n == succ
          | None -> false
        in
        if Rt.get pred.deleted then (
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
    let preds, succs, predvs = level_arrays t.head in
    let toplevel = Sl_common.random_toplevel (Rt.tid ()) in
    let b = B.create () in
    let rec attempt () =
      let lfound = find t key preds succs predvs in
      if lfound >= 0 then (
        let f = succs.(lfound) in
        if not (Rt.get f.deleted) then (
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
    Rt.get f.fully_linked && f.toplevel = lfound && not (Rt.get f.deleted)

  let delete t key =
    check_key key;
    Q.op_begin t.qsbr;
    let preds, succs, predvs = level_arrays t.head in
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
              if Rt.get f.deleted then (
                (* Raced with another deleter. *)
                OL.revert f.lock;
                None)
              else (
                Rt.set f.deleted true;
                victim_locked := Some f;
                proceed f))
    in
    let res = attempt () in
    Q.op_end t.qsbr;
    res

  let size t = size t.head
  let fold t = fold t.head
  let validate ?crashed:_ t = validate t.head
end
