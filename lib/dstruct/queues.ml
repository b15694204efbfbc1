(** Concurrent FIFO queues (§5.4 of the paper): the two classic
    Michael–Scott queues and the paper's four OPTIK-based variants.

    - {!Ms_lf} — the lock-free MS queue ("ms-lf").
    - {!Ms_lb} — the two-lock MS queue with MCS locks ("ms-lb").
    - {!Optik0} — lock-based MS queue whose dequeue is optimistically
      prepared and committed under [lock_version]; when the version
      validates, the critical section is a single store.
    - {!Optik1} — like optik0 but dequeue uses [trylock_version] and
      restarts on failure; enqueue keeps the ms-lb (MCS) implementation.
    - {!Optik2} — hybrid: the unaltered lock-free MS enqueue (enqueues
      offer no optimism to exploit) with the OPTIK-trylock dequeue.
    - {!Optik3} — optik2 plus {e victim queues}: enqueuers observing a
      long queue behind the tail lock (via the ticket-lock
      [num_queued]) append to a secondary victim queue instead of
      waiting. The first thread to populate the empty victim queue is the
      {e linker}: it waits for the main lock once and splices the whole
      batch in; other victim enqueuers wait until their batch is spliced
      (so their elements are visible and the operation linearizes) —
      exactly the §5.4 design.

    All queues use the MS dummy-node representation: [head] points at a
    consumed dummy whose successor holds the front value.

    Each variant is a baseline with some protocols swapped, so the
    protocols several queues share are written once, over the fields
    they touch and, where they can restart, the calling queue's
    [restarts] counter:
    {!ms_enqueue} (ms-lf, optik2), {!mcs_enqueue} (ms-lb, optik1) and
    {!optik_dequeue} (optik1, optik2, optik3). Each queue module keeps
    its layout, its [create] and whatever protocol is its own. *)

module type RT = Rt.Rt_intf.RT

module Backoff = Rt.Backoff

module Make (Rt : RT) = struct
  module B = Backoff.Make (Rt)
  module Q = Mem.Qsbr.Make (Rt)
  module Mcs = Locks.Mcs (Rt)
  module OL = Optik.Versioned (Rt)
  module OT = Optik.Ticket (Rt)

  type 'v node = { value : 'v; next : 'v node option Rt.atomic }

  let mk_node value =
    Rt.Probe.with_site "queue.node" (fun () ->
        { value; next = Rt.atomic None })
  let dummy () = mk_node (Obj.magic 0)

  let queue_size head =
    let n = ref 0 in
    let rec go node =
      match Rt.get node.next with
      | None -> ()
      | Some nxt ->
          incr n;
          go nxt
    in
    go head;
    !n

  (* The lock-free MS enqueue. Retries back off, like every other
     restart in the library (the paper applies one backoff policy to all
     algorithms, §5). *)
  let ms_enqueue restarts tail qsbr v =
    Q.op_begin qsbr;
    let n = mk_node v in
    let n_opt = Some n in
    let b = B.create () in
    let rec loop () =
      let last = Rt.get tail in
      let nread = Rt.get last.next in
      if last == Rt.get tail then
        match nread with
        | None ->
            if Rt.cas last.next nread n_opt then ignore (Rt.cas tail last n : bool)
            else (
              Rt.Probe.incr restarts;
              B.once b;
              loop ())
        | Some nxt ->
            (* Help the lagging tail forward. *)
            ignore (Rt.cas tail last nxt : bool);
            loop ()
      else loop ()
    in
    loop ();
    Q.op_end qsbr

  (* The ms-lb enqueue: append under the MCS tail lock. *)
  let mcs_enqueue tlock tail qsbr v =
    Q.op_begin qsbr;
    let n = mk_node v in
    Mcs.lock tlock;
    Rt.set (Rt.get tail).next (Some n);
    Rt.set tail n;
    Mcs.unlock tlock;
    Q.op_end qsbr

  (* The OPTIK-trylock dequeue: a failed validation never waited behind
     the lock. *)
  let rec optik_dequeue_loop restarts hlock head qsbr s =
    let v0 = OL.get_version hlock in
    if OL.is_locked v0 then (
      B.spin_once s;
      optik_dequeue_loop restarts hlock head qsbr s)
    else
      let h = Rt.get head in
      match Rt.get h.next with
      | None ->
          (* Empty iff nothing committed since [v0]. *)
          if OL.same_version (OL.get_version hlock) v0 then None
          else (
            Rt.Probe.incr restarts;
            B.spin_once s;
            optik_dequeue_loop restarts hlock head qsbr s)
      | Some nxt ->
          if OL.trylock_version hlock v0 then (
            Rt.set head nxt;
            OL.unlock hlock;
            Q.retire qsbr h;
            Some nxt.value)
          else (
            Rt.Probe.incr restarts;
            B.spin_once s;
            optik_dequeue_loop restarts hlock head qsbr s)

  let optik_dequeue restarts hlock head qsbr =
    Q.op_begin qsbr;
    let res = optik_dequeue_loop restarts hlock head qsbr (B.spin ()) in
    Q.op_end qsbr;
    res

  (* --------------------------------------------------------------- *)

  module Ms_lf = struct
    type 'v t = {
      head : 'v node Rt.atomic;
      tail : 'v node Rt.atomic;
      qsbr : 'v node Q.t;
    }

    let name = "ms-lf"

    (* Wasted work: a CAS on [last.next] (enqueue) or [t.head] (dequeue)
       that lost the race, forcing a fresh traversal of the two-pointer
       state. Helping a lagging tail is not counted — that work lands. *)
    let restarts = Rt.Probe.counter ~kind:Restart "q-ms-lf.restarts"

    let create () =
      let d = dummy () in
      { head = Rt.atomic d; tail = Rt.atomic d; qsbr = Q.create () }

    let enqueue t v = ms_enqueue restarts t.tail t.qsbr v

    let dequeue t =
      Q.op_begin t.qsbr;
      let b = B.create () in
      let rec loop () =
        let first = Rt.get t.head in
        let last = Rt.get t.tail in
        let nread = Rt.get first.next in
        if first == Rt.get t.head then
          if first == last then
            match nread with
            | None -> None
            | Some nxt ->
                ignore (Rt.cas t.tail last nxt : bool);
                loop ()
          else
            match nread with
            | None -> None
            | Some nxt ->
                let v = nxt.value in
                if Rt.cas t.head first nxt then (
                  Q.retire t.qsbr first;
                  Some v)
                else (
                  Rt.Probe.incr restarts;
                  B.once b;
                  loop ())
        else loop ()
      in
      let res = loop () in
      Q.op_end t.qsbr;
      res

    let size t = queue_size (Rt.get t.head)
  end

  (* --------------------------------------------------------------- *)

  module Ms_lb = struct
    type 'v t = {
      head : 'v node Rt.atomic;
      tail : 'v node Rt.atomic;
      hlock : Mcs.t;
      tlock : Mcs.t;
      qsbr : 'v node Q.t;
    }

    let name = "ms-lb"

    let create () =
      let d = dummy () in
      {
        head = Rt.atomic d;
        tail = Rt.atomic d;
        hlock = Mcs.create ();
        tlock = Mcs.create ();
        qsbr = Q.create ();
      }

    let enqueue t v = mcs_enqueue t.tlock t.tail t.qsbr v

    let dequeue t =
      Q.op_begin t.qsbr;
      Mcs.lock t.hlock;
      let h = Rt.get t.head in
      let res =
        match Rt.get h.next with
        | None -> None
        | Some nxt ->
            Rt.set t.head nxt;
            Q.retire t.qsbr h;
            Some nxt.value
      in
      Mcs.unlock t.hlock;
      Q.op_end t.qsbr;
      res

    let size t = queue_size (Rt.get t.head)
  end

  (* --------------------------------------------------------------- *)

  module Optik0 = struct
    type 'v t = {
      head : 'v node Rt.atomic;
      tail : 'v node Rt.atomic;
      hlock : OL.t;
      tlock : OL.t;
      qsbr : 'v node Q.t;
    }

    let name = "q-optik0"

    let validated = Rt.Probe.counter "q-optik0.validated"

    (* The blocking [lock_version] always acquires; when the version
       moved meanwhile the optimistic preparation is wasted and the
       dequeue re-prepares under the lock — a validation failure, the
       only wasted work this variant can exhibit. *)
    let vfail_lock = Rt.Probe.counter ~kind:Vfail "q-optik0.vfail-lock"

    (* The C struct lays the dequeue lock next to the head pointer (and
       the enqueue lock next to the tail): one hot line per queue end,
       not two. *)
    let create () =
      let d = dummy () in
      let head = Rt.atomic d in
      let tail = Rt.atomic d in
      {
        head;
        tail;
        hlock = Rt.atomic_with head 0;
        tlock = Rt.atomic_with tail 0;
        qsbr = Q.create ();
      }

    let enqueue t v =
      Q.op_begin t.qsbr;
      let n = mk_node v in
      OL.lock t.tlock;
      Rt.set (Rt.get t.tail).next (Some n);
      Rt.set t.tail n;
      OL.unlock t.tlock;
      Q.op_end t.qsbr

    (* Prepare the dequeue optimistically; [lock_version] tells whether
       the preparation is still valid — if so the critical section is
       one store. *)
    let dequeue t =
      Q.op_begin t.qsbr;
      let v0 = OL.get_version t.hlock in
      let h0 = Rt.get t.head in
      let n0 = Rt.get h0.next in
      let same = OL.lock_version t.hlock v0 in
      if same then Rt.Probe.incr validated
      else Rt.Probe.incr vfail_lock;
      (* Version validated: no dequeue completed since [v0], so the
         prepared (h0, n0) still holds. Otherwise re-prepare in the
         critical section, as a classic locked dequeue would. *)
      let h, n =
        if same then (h0, n0)
        else
          let h = Rt.get t.head in
          (h, Rt.get h.next)
      in
      let res =
        match n with
        | None ->
            OL.revert t.hlock;
            None
        | Some nxt ->
            Rt.set t.head nxt;
            OL.unlock t.hlock;
            Q.retire t.qsbr h;
            Some nxt.value
      in
      Q.op_end t.qsbr;
      res

    let size t = queue_size (Rt.get t.head)
  end

  (* --------------------------------------------------------------- *)

  module Optik1 = struct
    type 'v t = {
      head : 'v node Rt.atomic;
      tail : 'v node Rt.atomic;
      hlock : OL.t;
      tlock : Mcs.t;
      qsbr : 'v node Q.t;
    }

    let name = "q-optik1"

    let restarts = Rt.Probe.counter ~kind:Restart "q-optik1.restarts"

    let create () =
      let d = dummy () in
      let head = Rt.atomic d in
      {
        head;
        tail = Rt.atomic d;
        hlock = Rt.atomic_with head 0 (* same line as [head], as in C *);
        tlock = Mcs.create ();
        qsbr = Q.create ();
      }

    let enqueue t v = mcs_enqueue t.tlock t.tail t.qsbr v
    let dequeue t = optik_dequeue restarts t.hlock t.head t.qsbr
    let size t = queue_size (Rt.get t.head)
  end

  (* --------------------------------------------------------------- *)

  module Optik2 = struct
    type 'v t = {
      head : 'v node Rt.atomic;
      tail : 'v node Rt.atomic;
      hlock : OL.t;
      qsbr : 'v node Q.t;
    }

    let name = "q-optik2"

    let restarts = Rt.Probe.counter ~kind:Restart "q-optik2.restarts"

    let create () =
      let d = dummy () in
      let head = Rt.atomic d in
      {
        head;
        tail = Rt.atomic d;
        hlock = Rt.atomic_with head 0 (* same line as [head], as in C *);
        qsbr = Q.create ();
      }

    (* Unaltered lock-free MS enqueue: enqueues have no optimistic
       read-only prefix to exploit (§5.4). *)
    let enqueue t v = ms_enqueue restarts t.tail t.qsbr v
    let dequeue t = optik_dequeue restarts t.hlock t.head t.qsbr
    let size t = queue_size (Rt.get t.head)
  end

  (* --------------------------------------------------------------- *)

  module Optik3 = struct
    type 'v t = {
      head : 'v node Rt.atomic;
      tail : 'v node Rt.atomic;
      hlock : OL.t;
      tlock : OT.t;  (** ticket-based OPTIK: exposes [num_queued] *)
      vlock : OT.t;
      vhead : 'v node option Rt.atomic;
      vtail : 'v node option Rt.atomic;
      threshold : int;
      qsbr : 'v node Q.t;
    }

    let name = "q-optik3"

    let restarts = Rt.Probe.counter ~kind:Restart "q-optik3.restarts"
    let victim_uses = Rt.Probe.counter "q-optik3.victim-uses"

    let create ?(threshold = 2) () =
      let d = dummy () in
      let head = Rt.atomic d in
      {
        head;
        tail = Rt.atomic d;
        hlock = Rt.atomic_with head 0 (* same line as [head], as in C *);
        tlock = OT.create ();
        vlock = OT.create ();
        vhead = Rt.atomic None;
        vtail = Rt.atomic None;
        threshold;
        qsbr = Q.create ();
      }

    let append_main t first last =
      Rt.set (Rt.get t.tail).next (Some first);
      Rt.set t.tail last

    (* Splice the pending victim batch into the main queue; caller holds
       the main tail lock. *)
    let splice_victims t =
      OT.lock t.vlock;
      (match (Rt.get t.vhead, Rt.get t.vtail) with
      | Some vh, Some vt ->
          append_main t vh vt;
          Rt.set t.vhead None;
          Rt.set t.vtail None
      | _ -> ());
      OT.unlock t.vlock

    let enqueue t v =
      Q.op_begin t.qsbr;
      let n = mk_node v in
      if OT.num_queued t.tlock <= t.threshold then (
        OT.lock t.tlock;
        append_main t n n;
        OT.unlock t.tlock)
      else (
        (* Victim path: append to the secondary queue instead of
           queueing behind the contended tail lock. *)
        Rt.Probe.incr victim_uses;
        OT.lock t.vlock;
        let batch_head = Rt.get t.vhead in
        let linker = match batch_head with None -> true | Some _ -> false in
        (match Rt.get t.vtail with
        | None ->
            Rt.set t.vhead (Some n);
            Rt.set t.vtail (Some n)
        | Some vt ->
            Rt.set vt.next (Some n);
            Rt.set t.vtail (Some n));
        let my_batch = Rt.get t.vhead in
        OT.unlock t.vlock;
        if linker then (
          OT.lock t.tlock;
          splice_victims t;
          OT.unlock t.tlock)
        else
          (* Wait until our batch has been spliced (the batch head
             changes — to [None] or to a new batch). *)
          let s = B.spin ~max_pauses:512 () in
          while Rt.get t.vhead == my_batch do
            B.spin_once s
          done);
      Q.op_end t.qsbr

    let dequeue t = optik_dequeue restarts t.hlock t.head t.qsbr

    let size t = queue_size (Rt.get t.head)
  end
end
