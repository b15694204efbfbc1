(** Lock-free skip list (Fraser, PhD 2004 / Herlihy–Shavit formulation) —
    "fraser" in Figure 11.

    Each per-level next pointer carries a logical-deletion mark (encoded
    as an immutable link record, as in {!Ll_harris}; OCaml cannot steal
    pointer bits). Deletion marks a victim's links from the top level
    down — the level-0 mark is the linearization point — and physical
    unlinking is done by [find]'s helping snips. Insertion links bottom-up
    with per-level CAS; the level-0 link is its linearization point. *)

module type RT = Rt.Rt_intf.RT

module Backoff = Rt.Backoff

module Make (Rt : RT) = struct
  module B = Backoff.Make (Rt)
  module Q = Mem.Qsbr.Make (Rt)

  let max_level = Sl_common.max_level

  type 'v link = { dest : 'v node; marked : bool }

  and 'v node = {
    key : int;
    value : 'v;
    nexts : 'v link option Rt.atomic array;
    toplevel : int;
  }

  type 'v t = { head : 'v node; qsbr : 'v node Q.t }

  let name = "sl-fraser"

  let restarts = Rt.Probe.counter ~kind:Restart "sl-fraser.restarts"

  exception Restart

  (* Level links of one node share a cache line (C-struct layout). *)
  let mk_node key value toplevel =
    let anchor = Rt.atomic None in
    {
      key;
      value;
      nexts =
        Array.init (toplevel + 1) (fun i ->
            if i = 0 then anchor else Rt.atomic_with anchor None);
      toplevel;
    }

  let create ?capacity:_ () =
    let tail = mk_node max_int (Obj.magic 0) (max_level - 1) in
    let head = mk_node min_int (Obj.magic 0) (max_level - 1) in
    for l = 0 to max_level - 1 do
      Rt.set head.nexts.(l) (Some { dest = tail; marked = false })
    done;
    { head; qsbr = Q.create () }

  let check_key k =
    if k = min_int || k = max_int then invalid_arg "sl: key out of range"

  (* Find preds and succs at every level, snipping marked successors on
     the way. [preads.(l)] keeps the physical option value read from
     [preds.(l).nexts.(l)] — the witness later CAS'd against. Returns
     whether the key is present (level-0 successor matches, unmarked).

     A failed snip CAS restarts the whole walk (Harris/Michael rule); the
     restart backs off — under a hot-key deletion storm many threads race
     to snip the same nodes, and immediate retries livelock. *)
  let rec find_b b t key preds succs (preads : 'v link option array) =
    let walk () =
      let pred = ref t.head in
      for l = max_level - 1 downto 0 do
        let continue = ref true in
        while !continue do
          let pread = Rt.get !pred.nexts.(l) in
          let plink =
            match pread with
            | Some p -> p
            | None -> invalid_arg "sl: missing level link"
          in
          (* The predecessor itself got marked (deleted) under our feet:
             its link is no longer a valid CAS witness — settling with it
             would let a later CAS overwrite the mark. Restart. *)
          if plink.marked then raise_notrace Restart;
          let cur = plink.dest in
          let snip_dest =
            if cur.key = max_int then None
            else
              match Rt.get cur.nexts.(l) with
              | Some clink when clink.marked -> Some clink.dest
              | _ -> None
          in
          match snip_dest with
          | Some dest ->
              (* Help unlink the logically deleted [cur] at this level. *)
              if Rt.cas !pred.nexts.(l) pread (Some { dest; marked = false })
              then (if l = 0 then Q.retire t.qsbr cur)
              else raise_notrace Restart
          | None ->
              if cur.key < key then pred := cur
              else (
                preds.(l) <- !pred;
                preads.(l) <- pread;
                succs.(l) <- cur;
                continue := false)
        done
      done
    in
    match walk () with
    | () -> (
        let f = succs.(0) in
        f.key = key
        &&
        match Rt.get f.nexts.(0) with
        | Some l -> not l.marked
        | None -> false)
    | exception Restart ->
        Rt.Probe.incr restarts;
        B.once b;
        find_b b t key preds succs preads

  let find t key preds succs preads =
    find_b (B.create ()) t key preds succs preads

  let search t key =
    check_key key;
    Q.op_begin t.qsbr;
    (* Read-only traversal: no helping, no stores. *)
    let cur = ref t.head in
    for l = max_level - 1 downto 0 do
      let continue = ref true in
      while !continue do
        match Rt.get !cur.nexts.(l) with
        | Some link when link.dest.key < key -> cur := link.dest
        | _ -> continue := false
      done
    done;
    let res =
      match Rt.get !cur.nexts.(0) with
      | Some link when link.dest.key = key -> (
          let f = link.dest in
          match Rt.get f.nexts.(0) with
          | Some fl when not fl.marked -> Some f.value
          | _ -> None)
      | _ -> None
    in
    Q.op_end t.qsbr;
    res

  let insert t key value =
    check_key key;
    Q.op_begin t.qsbr;
    let preds = Array.make max_level t.head in
    let succs = Array.make max_level t.head in
    let preads : 'v link option array = Array.make max_level None in
    let toplevel = Sl_common.random_toplevel (Rt.tid ()) in
    let b = B.create () in
    let rec attempt () =
      if find t key preds succs preads then false
      else (
        let newnode = mk_node key value toplevel in
        for l = 0 to toplevel do
          Rt.set newnode.nexts.(l) (Some { dest = succs.(l); marked = false })
        done;
        (* Linearization point: link at level 0. *)
        if
          not
            (Rt.cas preds.(0).nexts.(0) preads.(0)
               (Some { dest = newnode; marked = false }))
        then (
          Rt.Probe.incr restarts;
          B.once b;
          attempt ())
        else (
          (* Link the upper levels; on interference, re-find and retry
             the level. Stop if the node got deleted meanwhile (its link
             is marked — deleters mark top-down before level 0). *)
          let rec link l =
            if l > toplevel then ()
            else
              let nread = Rt.get newnode.nexts.(l) in
              match nread with
              | Some nl when nl.marked -> ()
              | _ ->
                  let succ = succs.(l) in
                  let own_ok =
                    match nread with
                    | Some nl when nl.dest == succ -> true
                    | _ ->
                        Rt.cas newnode.nexts.(l) nread
                          (Some { dest = succ; marked = false })
                  in
                  if
                    own_ok
                    && Rt.cas preds.(l).nexts.(l) preads.(l)
                         (Some { dest = newnode; marked = false })
                  then link (l + 1)
                  else (
                    Rt.Probe.incr restarts;
                    ignore (find t key preds succs preads : bool);
                    link l)
          in
          link 1;
          true))
    in
    let res = attempt () in
    Q.op_end t.qsbr;
    res

  let delete t key =
    check_key key;
    Q.op_begin t.qsbr;
    let preds = Array.make max_level t.head in
    let succs = Array.make max_level t.head in
    let preads : 'v link option array = Array.make max_level None in
    let res =
      if not (find t key preds succs preads) then None
      else
        let victim = succs.(0) in
        (* Mark upper levels top-down. *)
        for l = victim.toplevel downto 1 do
          let rec mark () =
            let w = Rt.get victim.nexts.(l) in
            match w with
            | Some link when not link.marked ->
                if
                  not
                    (Rt.cas victim.nexts.(l) w
                       (Some { dest = link.dest; marked = true }))
                then mark ()
            | _ -> ()
          in
          mark ()
        done;
        (* Level 0: linearization point; exactly one deleter wins. *)
        let rec mark0 () =
          let w = Rt.get victim.nexts.(0) in
          match w with
          | Some link when not link.marked ->
              if
                Rt.cas victim.nexts.(0) w
                  (Some { dest = link.dest; marked = true })
              then (
                (* Help with the physical unlink. *)
                ignore (find t key preds succs preads : bool);
                Some victim.value)
              else (
                Rt.Probe.incr restarts;
                mark0 ())
          | _ -> None (* lost the race to another deleter *)
        in
        mark0 ()
    in
    Q.op_end t.qsbr;
    res

  let size t =
    let n = ref 0 in
    let rec go node =
      match Rt.get node.nexts.(0) with
      | None -> ()
      | Some l ->
          let nxt = l.dest in
          if nxt.key < max_int then (
            (match Rt.get nxt.nexts.(0) with
            | Some l' when not l'.marked -> incr n
            | _ -> ());
            go nxt)
    in
    go t.head;
    !n

  let fold t f acc =
    let rec go acc node =
      match Rt.get node.nexts.(0) with
      | None -> acc
      | Some l ->
          let nxt = l.dest in
          if nxt.key < max_int then
            let acc =
              match Rt.get nxt.nexts.(0) with
              | Some l' when not l'.marked -> f nxt.key nxt.value acc
              | _ -> acc
            in
            go acc nxt
          else acc
    in
    go acc t.head

  let validate ?crashed:_ t =
    let ok = ref true in
    for l = 0 to max_level - 1 do
      let rec go node pk =
        match Rt.get node.nexts.(l) with
        | None -> if node.key <> max_int then ok := false
        | Some link ->
            if link.marked then ok := false;
            if link.dest.key <= pk then ok := false;
            if link.dest.key < max_int then go link.dest link.dest.key
      in
      go t.head min_int
    done;
    !ok
end
