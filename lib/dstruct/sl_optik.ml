(** The paper's new OPTIK-based skip list (§5.3) — "optik1" and "optik2"
    in Figure 11.

    Traversal keeps the OPTIK version of every per-level predecessor
    (hand-over-hand version tracking, as in the OPTIK linked list).
    Updates then lock each predecessor with [trylock_version]: a success
    validates predecessor {e and} its next pointer in one CAS.

    - {e Insertion is incremental/eager}: the new node is physically
      linked level by level, each level under its own short-lived
      predecessor lock. If a level's trylock fails, the operation
      re-traverses and continues from the level that failed — levels
      already linked are never re-acquired. A [fully_linked] flag keeps
      partially inserted nodes from being deleted.
    - {e Deletion} locks the victim itself (keeping it locked for the
      whole unlink, so eager inserts cannot link behind it), sets its
      [deleted] flag, then acquires all predecessor locks bottom-up and
      unlinks top-down.

    The two variants differ in how deletion handles a predecessor
    trylock failure ([create ~variant:`Restart ()] = "optik2",
    [`Validate] = "optik1"): [`Restart] releases everything and
    re-traverses immediately; [`Validate] falls back to a blocking
    [lock_version] plus Herlihy-style fine-grained validation, restarting
    only if that fails too.

    The node, its sentinels and the quiescent helpers come from
    {!Sl_common.Base}, with the nodes filed under the ["sl-optik.node"]
    allocation site; this module adds [t] (the [variant]), the
    [restarts] probe, [lock_unless_deleted], the version-tracking [find],
    the oblivious [search], the eager [insert], [lock_preds_for_delete]
    and [delete]. *)

module type RT = Rt.Rt_intf.RT

module Backoff = Rt.Backoff

module Make (Rt : RT) = struct
  module B = Backoff.Make (Rt)

  include Sl_common.Base (Rt) (struct
    let node_site = Some "sl-optik.node"
  end)

  type variant = [ `Restart | `Validate ]

  type 'v t = { head : 'v node; variant : variant; qsbr : 'v node Q.t }

  let name = "sl-optik"

  let restarts = Rt.Probe.counter ~kind:Restart "sl-optik.restarts"

  let create ?(variant : variant = `Restart) () =
    let head = sentinels () in
    { head; variant; qsbr = Q.create () }

  (* Deleted victims keep their OPTIK lock forever (as in the OPTIK
     linked list, §4.2): a stale traversal that settles on an unlinked
     node then sees a locked version and can never validate against it.
     Consequently a {e blocking} acquire must watch the [deleted] flag or
     it would spin on a dead node for good. Returns the acquired (free)
     version, or [None] if the node is (or becomes) deleted. *)
  let lock_unless_deleted node =
    let s = B.spin () in
    let rec loop () =
      if Rt.get node.deleted then None
      else
        let v = OL.get_version node.lock in
        if OL.is_locked v then (
          B.spin_once s;
          loop ())
        else if OL.trylock_version node.lock v then Some v
        else (
          B.spin_once s;
          loop ())
    in
    loop ()

  (* Hand-over-hand version-tracking traversal: at each level record the
     predecessor, its version (read before following the level link) and
     the successor. *)
  let find t key preds succs (predvs : OL.version array) =
    let pred = ref t.head in
    for l = max_level - 1 downto 0 do
      let continue = ref true in
      while !continue do
        let v = OL.get_version !pred.lock in
        let cur = next_at !pred l in
        if cur.key < key then pred := cur
        else (
          preds.(l) <- !pred;
          predvs.(l) <- v;
          succs.(l) <- cur;
          continue := false)
      done
    done

  let search t key =
    check_key key;
    Q.op_begin t.qsbr;
    let cur = ref t.head and f = ref t.head in
    for l = max_level - 1 downto 0 do
      let continue = ref true in
      while !continue do
        let nxt = next_at !cur l in
        if nxt.key < key then cur := nxt
        else (
          f := nxt;
          continue := false)
      done
    done;
    (* [f] is the node the level-0 walk stopped at. Re-reading the link
       here could return a node inserted since, with a smaller key. *)
    let f = !f in
    let res = if f.key = key && live f then Some f.value else None in
    Q.op_end t.qsbr;
    res

  let insert t key value =
    check_key key;
    Q.op_begin t.qsbr;
    let preds, succs, predvs = level_arrays t.head in
    let toplevel = Sl_common.random_toplevel (Rt.tid ()) in
    let newnode = mk_node key value toplevel in
    let b = B.create () in
    (* [linked_from] is the lowest level not yet linked; re-traversals
       continue from there ("the locks for the already inserted levels
       are not reacquired", §3.3). *)
    let rec attempt linked_from =
      find t key preds succs predvs;
      let found = succs.(0) in
      if linked_from = 0 && found.key = key && found != newnode then
        if Rt.get found.deleted then (
          (* Being removed: wait for the removal to finish. *)
          Rt.Probe.incr restarts;
          Rt.pause_n 16;
          attempt 0)
        else (
          let s = B.spin () in
          while not (Rt.get found.fully_linked) do
            B.spin_once s
          done;
          false)
      else
        let rec link l =
          if l > toplevel then (
            Rt.set newnode.fully_linked true;
            true)
          else if OL.trylock_version preds.(l).lock predvs.(l) then (
            (* Eager per-level insertion under a single short lock. *)
            Rt.set newnode.nexts.(l) (Some succs.(l));
            Rt.set preds.(l).nexts.(l) (Some newnode);
            OL.unlock preds.(l).lock;
            link (l + 1))
          else (
            Rt.Probe.incr restarts;
            B.once b;
            attempt l)
        in
        link linked_from
    in
    let res = attempt 0 in
    Q.op_end t.qsbr;
    res

  (* Lock all distinct predecessors of levels [0..top] of [victim].
     Returns the locked list, or [None] if the attempt must restart. *)
  let lock_preds_for_delete t ~victim preds predvs =
    let top = victim.toplevel in
    let locked = ref [] in
    let release_reverted () =
      List.iter (fun p -> OL.revert p.lock) !locked;
      locked := []
    in
    let rec go l =
      if l > top then Some !locked
      else
        let pred = preds.(l) in
        let same_as_prev =
          match !locked with p :: _ -> p == pred | [] -> false
        in
        if same_as_prev then
          (* Already hold this predecessor; check its link for this
             level directly (we own the lock, the check is stable). *)
          match Rt.get pred.nexts.(l) with
          | Some n when n == victim -> go (l + 1)
          | _ ->
              release_reverted ();
              None
        else if OL.trylock_version pred.lock predvs.(l) then (
          locked := pred :: !locked;
          go (l + 1))
        else
          match t.variant with
          | `Restart ->
              release_reverted ();
              None
          | `Validate -> (
              (* optik1: blocking (deleted-aware) lock; if the version
                 moved, do the fine-grained validation instead. *)
              match lock_unless_deleted pred with
              | None ->
                  release_reverted ();
                  None
              | Some acquired ->
                  let same = OL.same_version acquired predvs.(l) in
                  let still_ok =
                    same
                    ||
                    match Rt.get pred.nexts.(l) with
                    | Some n -> n == victim
                    | None -> false
                  in
                  if still_ok then (
                    locked := pred :: !locked;
                    go (l + 1))
                  else (
                    OL.revert pred.lock;
                    release_reverted ();
                    None))
    in
    go 0

  let delete t key =
    check_key key;
    Q.op_begin t.qsbr;
    let preds, succs, predvs = level_arrays t.head in
    (* Once we own and mark the victim, reattempts only redo the
       predecessor phase. *)
    let b = B.create () in
    let rec unlink_phase victim =
      match lock_preds_for_delete t ~victim preds predvs with
      | None ->
          Rt.Probe.incr restarts;
          B.once b;
          find t key preds succs predvs;
          unlink_phase victim
      | Some locked ->
          for l = victim.toplevel downto 0 do
            Rt.set preds.(l).nexts.(l) (Rt.get victim.nexts.(l))
          done;
          List.iter (fun p -> OL.unlock p.lock) locked;
          (* The victim's lock is never released (§4.2): its permanently
             locked version is what invalidates stale traversals that
             still hold a reference to it. *)
          Q.retire t.qsbr victim;
          Some victim.value
    in
    let res =
      find t key preds succs predvs;
      let f = succs.(0) in
      if f.key <> key then None
      else if not (Rt.get f.fully_linked) then None
      else if Rt.get f.deleted then None
      else (
        (* Lock the victim itself for the whole removal: eager inserts
           that would link behind it are blocked, then fail validation. *)
        match lock_unless_deleted f with
        | None -> None
        | Some _ ->
            if Rt.get f.deleted then (
              OL.revert f.lock;
              None)
            else (
              Rt.set f.deleted true;
              unlink_phase f))
    in
    Q.op_end t.qsbr;
    res

  let size t = size t.head
  let fold t = fold t.head
  let validate ?crashed:_ t = validate t.head
end
