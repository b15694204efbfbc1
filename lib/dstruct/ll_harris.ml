(** Harris lock-free linked list (DISC '01) — "harris" in Figure 9.

    Harris marks the least-significant bit of a node's [next] pointer to
    signal logical deletion, making delete a two-CAS protocol (mark, then
    unlink) and letting traversals help unlink marked nodes. OCaml cannot
    steal pointer bits, so a [next] field holds an immutable {!link}
    record carrying the destination and the mark; compare-and-swap
    operates on the physical identity of the link record, preserving the
    single-CAS semantics of each step. This is the standard encoding for
    GC'd languages and is noted as a substitution in DESIGN.md. *)

module type RT = Rt.Rt_intf.RT

module Backoff = Rt.Backoff

module Make (Rt : RT) = struct
  module B = Backoff.Make (Rt)
  module Q = Mem.Qsbr.Make (Rt)

  type 'v link = { dest : 'v node; marked : bool }
  and 'v node = { key : int; value : 'v; next : 'v link option Rt.atomic }

  type 'v t = { head : 'v node; qsbr : 'v node Q.t }

  let name = "ll-harris"

  let restarts = Rt.Probe.counter ~kind:Restart "ll-harris.restarts"

  let mk_node key value next =
    Rt.Probe.with_site "ll-harris.node" (fun () ->
        { key; value; next = Rt.atomic next })

  let create ?capacity:_ () =
    let tail = mk_node max_int (Obj.magic 0) None in
    let head = mk_node min_int (Obj.magic 0) (Some { dest = tail; marked = false }) in
    { head; qsbr = Q.create () }

  let check_key k =
    if k = min_int || k = max_int then invalid_arg "ll: key out of range"

  (* Wait-free-style search: traverse ignoring (but not helping) marked
     nodes; a key is present iff its node's own next link is unmarked. *)
  let search t key =
    check_key key;
    Q.op_begin t.qsbr;
    let cur = ref t.head in
    while !cur.key < key do
      match Rt.get !cur.next with
      | Some l -> cur := l.dest
      | None -> invalid_arg "ll: traversed past the tail sentinel"
    done;
    let res =
      if !cur.key = key then
        match Rt.get !cur.next with
        | Some l when not l.marked -> Some !cur.value
        | _ -> None
      else None
    in
    Q.op_end t.qsbr;
    res

  (* Find predecessor and current node for [key], snipping out marked
     nodes on the way (the helping that keeps the list clean). Returns
     [(pred, pread, cur)] where [pread] is the {e physical} option value
     read from [pred.next] (the CAS witness — compare-and-swap is on
     physical identity) and [cur] its destination. *)
  let rec find_b b t key =
    (* Note: [walk] threads the physically-read link records through, so
       a predecessor that gets marked after we stepped onto it simply
       fails the eventual CAS (the mark replaced the record) — unlike a
       re-reading find, no marked-witness check is needed here. *)
    let rec walk pred pread plink =
      let cur = plink.dest in
      if cur.key = max_int then (pred, pread, cur)
      else
        let cread = Rt.get cur.next in
        match cread with
        | None -> (pred, pread, cur)
        | Some clink ->
            if clink.marked then (
              (* Help unlink the logically deleted [cur]. *)
              let nread = Some { dest = clink.dest; marked = false } in
              if Rt.cas pred.next pread nread then (
                Q.retire t.qsbr cur;
                match nread with
                | Some nlink -> walk pred nread nlink
                | None -> assert false)
              else (
                (* lost a snip race: back off before re-walking *)
                Rt.Probe.incr restarts;
                B.once b;
                find_b b t key))
            else if cur.key >= key then (pred, pread, cur)
            else walk cur cread clink
    in
    let hread = Rt.get t.head.next in
    match hread with
    | Some plink -> walk t.head hread plink
    | None -> invalid_arg "ll: empty head"

  let find t key = find_b (B.create ()) t key

  let insert t key value =
    check_key key;
    Q.op_begin t.qsbr;
    let b = B.create () in
    let rec attempt () =
      let pred, pread, cur = find t key in
      if cur.key = key then false
      else
        let newnode = mk_node key value (Some { dest = cur; marked = false }) in
        if Rt.cas pred.next pread (Some { dest = newnode; marked = false })
        then true
        else (
          Rt.Probe.incr restarts;
          B.once b;
          attempt ())
    in
    let res = attempt () in
    Q.op_end t.qsbr;
    res

  let delete t key =
    check_key key;
    Q.op_begin t.qsbr;
    let b = B.create () in
    let rec attempt () =
      let pred, pread, cur = find t key in
      if cur.key <> key then None
      else
        let cread = Rt.get cur.next in
        match cread with
        | None -> None
        | Some clink ->
            if clink.marked then (
              (* Concurrently deleted; retry until [find] stops seeing it. *)
              Rt.Probe.incr restarts;
              B.once b;
              attempt ())
            else if
              (* Logical delete: mark [cur]'s next link. *)
              Rt.cas cur.next cread (Some { dest = clink.dest; marked = true })
            then (
              (* Physical delete: best-effort unlink; [find] helps later
                 otherwise (and performs the retire). *)
              if Rt.cas pred.next pread (Some { dest = clink.dest; marked = false })
              then Q.retire t.qsbr cur
              else ignore (find t key);
              Some cur.value)
            else (
              Rt.Probe.incr restarts;
              B.once b;
              attempt ())
    in
    let res = attempt () in
    Q.op_end t.qsbr;
    res

  let size t =
    let n = ref 0 in
    let rec go node =
      match Rt.get node.next with
      | None -> ()
      | Some l ->
          if (not l.marked) && l.dest.key < max_int then (
            (* count [l.dest] unless its own link is marked *)
            match Rt.get l.dest.next with
            | Some l' when not l'.marked -> incr n
            | Some _ -> ()
            | None -> ());
          go l.dest
    in
    go t.head;
    !n

  let fold t f acc =
    let rec go acc node =
      match Rt.get node.next with
      | None -> acc
      | Some l ->
          let acc =
            if (not l.marked) && l.dest.key < max_int then
              (* yield [l.dest] unless its own link is marked *)
              match Rt.get l.dest.next with
              | Some l' when not l'.marked -> f l.dest.key l.dest.value acc
              | _ -> acc
            else acc
          in
          go acc l.dest
    in
    go acc t.head

  (* Quiescent lists hold no marked node: every delete unlinks its own
     victim or has [find] help unlink it. A thread that crashes between
     its mark CAS and its unlink CAS breaks that; its marked node stays
     linked until some later operation walks past it, and in a hash
     bucket none may. So each crashed thread may leave one. *)
  let validate ?(crashed = 0) t =
    let ok = ref true and marked = ref 0 in
    let rec go node =
      match Rt.get node.next with
      | None -> if node.key <> max_int then ok := false
      | Some l ->
          if l.marked then incr marked;
          if l.dest.key <= node.key then ok := false;
          go l.dest
    in
    go t.head;
    !ok && !marked <= crashed
end
