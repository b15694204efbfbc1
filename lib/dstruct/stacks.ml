(** Concurrent stacks (§5.5 of the paper).

    The paper briefly redesigns the classic Treiber lock-free stack with
    OPTIK and reports that the two behave similarly — a single contended
    word (the top pointer / the OPTIK lock) bounds both. Both designs are
    here so the bench suite can reproduce that observation. *)

module type RT = Rt.Rt_intf.RT

module Backoff = Rt.Backoff

(* The elimination stack's per-thread slot counters. Domain-local, like
   the skip lists' level rngs, so a run's slot choices depend only on
   what ran before it in the same domain, and [reset_slot_seq] makes
   them independent of that too. *)
let slot_seq_key : int array Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Array.make 128 0)

let reset_slot_seq () = Array.fill (Domain.DLS.get slot_seq_key) 0 128 0

module Make (Rt : RT) = struct
  module B = Backoff.Make (Rt)
  module OL = Optik.Versioned (Rt)
  module Q = Mem.Qsbr.Make (Rt)

  type 'v node = { value : 'v; next : 'v node option }

  (** Treiber stack: push/pop are single CAS loops on the top pointer. *)
  module Treiber = struct
    type 'v t = { top : 'v node option Rt.atomic; qsbr : 'v node Q.t }

    let name = "stack-treiber"

    (* Wasted work: every failed CAS on [top] throws the prepared node
       (push) or the read top (pop) away and retries. *)
    let restarts = Rt.Probe.counter ~kind:Restart "stack-treiber.restarts"

    let create () =
      Rt.Probe.with_site "stack-treiber.top" (fun () ->
          { top = Rt.atomic None; qsbr = Q.create () })

    let push t v =
      Q.op_begin t.qsbr;
      let b = B.create () in
      let rec loop () =
        let cur = Rt.get t.top in
        let n = Some { value = v; next = cur } in
        if not (Rt.cas t.top cur n) then (
          Rt.Probe.incr restarts;
          B.once b;
          loop ())
      in
      loop ();
      Q.op_end t.qsbr

    let pop t =
      Q.op_begin t.qsbr;
      let b = B.create () in
      let rec loop () =
        let cur = Rt.get t.top in
        match cur with
        | None -> None
        | Some node ->
            if Rt.cas t.top cur node.next then (
              Q.retire t.qsbr node;
              Some node.value)
            else (
              Rt.Probe.incr restarts;
              B.once b;
              loop ())
      in
      let res = loop () in
      Q.op_end t.qsbr;
      res

    let size t =
      let rec go acc = function
        | None -> acc
        | Some n -> go (acc + 1) n.next
      in
      go 0 (Rt.get t.top)
  end

  (** OPTIK stack: the top pointer is a plain field protected by an OPTIK
      lock; push/pop read it optimistically and commit with a single
      [trylock_version]. *)
  module Optik_stack = struct
    type 'v t = {
      top : 'v node option Rt.atomic;
      lock : OL.t;
      qsbr : 'v node Q.t;
    }

    let name = "stack-optik"

    let restarts = Rt.Probe.counter ~kind:Restart "stack-optik.restarts"

    let create () =
      Rt.Probe.with_site "stack-optik.top" (fun () ->
          let top = Rt.atomic None in
          (* lock and top pointer share the struct's cache line, as in C *)
          { top; lock = Rt.atomic_with top 0; qsbr = Q.create () })

    let push t v =
      Q.op_begin t.qsbr;
      let b = B.create () in
      let rec loop () =
        let vn = OL.get_version t.lock in
        if OL.is_locked vn then (
          B.once b;
          loop ())
        else
          let cur = Rt.get t.top in
          if OL.trylock_version t.lock vn then (
            Rt.set t.top (Some { value = v; next = cur });
            OL.unlock t.lock)
          else (
            Rt.Probe.incr restarts;
            B.once b;
            loop ())
      in
      loop ();
      Q.op_end t.qsbr

    let pop t =
      Q.op_begin t.qsbr;
      let b = B.create () in
      let rec loop () =
        let vn = OL.get_version t.lock in
        if OL.is_locked vn then (
          B.once b;
          loop ())
        else
          match Rt.get t.top with
          | None ->
              (* Empty iff no push/pop committed since [vn]. *)
              if OL.same_version (OL.get_version t.lock) vn then None
              else (
                B.once b;
                loop ())
          | Some node ->
              if OL.trylock_version t.lock vn then (
                Rt.set t.top node.next;
                OL.unlock t.lock;
                Q.retire t.qsbr node;
                Some node.value)
              else (
                Rt.Probe.incr restarts;
                B.once b;
                loop ())
      in
      let res = loop () in
      Q.op_end t.qsbr;
      res

    let size t =
      let rec go acc = function
        | None -> acc
        | Some n -> go (acc + 1) n.next
      in
      go 0 (Rt.get t.top)
  end

  (** Elimination-backoff stack (§5.5 points to elimination [24] as the
      way to make stacks scale; this is the Hendler–Shavit–Yerushalmi
      construction on top of the Treiber stack).

      When the CAS on [top] fails, the operation visits a random slot of
      an {e elimination array} instead of just backing off: a push and a
      pop that meet there cancel out without ever touching [top]. Each
      slot is a single-word state machine driven by physical-identity
      CAS:

      {v
        Empty --push--> Offered v --pop--> Taken --offerer--> Empty
        Empty --pop--> Asking --push--> Given v --asker--> Empty
      v} *)
  module Elimination = struct
    type 'v slot_state =
      | Empty
      | Offered of 'v  (** a pusher waits with its value *)
      | Taken  (** a popper consumed the offer *)
      | Asking  (** a popper waits for a value *)
      | Given of 'v  (** a pusher satisfied the asker *)

    type 'v t = {
      top : 'v node option Rt.atomic;
      slots : 'v slot_state Rt.atomic array;
      qsbr : 'v node Q.t;
    }

    let name = "stack-elimination"

    let eliminated = Rt.Probe.counter "stack-elim.eliminated"

    (* A retry that neither the CAS nor the elimination layer absorbed. *)
    let restarts = Rt.Probe.counter ~kind:Restart "stack-elim.restarts"

    let default_slots = 4
    let spin_budget = 32

    let create ?(slots = default_slots) () =
      {
        top = Rt.Probe.with_site "stack-elim.top" (fun () -> Rt.atomic None);
        slots =
          Rt.Probe.with_site "stack-elim.slots" (fun () ->
              Array.init (max 1 slots) (fun _ -> Rt.atomic Empty));
        qsbr = Q.create ();
      }

    (* Pick a slot pseudo-randomly from the thread id and a counter. *)
    let pick t =
      let slot_seq = Domain.DLS.get slot_seq_key in
      let tid = Rt.tid () land 127 in
      slot_seq.(tid) <- slot_seq.(tid) + 1;
      t.slots.(((tid * 31) + slot_seq.(tid)) mod Array.length t.slots)

    (* Try to eliminate a push against a waiting popper, or wait briefly
       for a popper to take our offer. Returns whether the push is done. *)
    let try_eliminate_push t v =
      let slot = pick t in
      let cur = Rt.get slot in
      match cur with
      | Asking ->
          (* a popper is waiting: hand the value over *)
          Rt.cas slot cur (Given v) && (Rt.Probe.incr eliminated; true)
      | Empty ->
          let offer = Offered v in
          if not (Rt.cas slot cur offer) then false
          else
            let rec wait n =
              let now = Rt.get slot in
              if now == offer then
                if n = 0 then
                  (* timeout: withdraw, unless a popper races us *)
                  if Rt.cas slot offer Empty then false
                  else (
                    (* withdrawn too late: the popper took it *)
                    Rt.set slot Empty;
                    Rt.Probe.incr eliminated;
                    true)
                else (
                  Rt.pause ();
                  wait (n - 1))
              else (
                (* state advanced: must be [Taken] *)
                Rt.set slot Empty;
                Rt.Probe.incr eliminated;
                true)
            in
            wait spin_budget
      | _ -> false

    let try_eliminate_pop t =
      let slot = pick t in
      let cur = Rt.get slot in
      match cur with
      | Offered v ->
          if Rt.cas slot cur Taken then (
            Rt.Probe.incr eliminated;
            Some v)
          else None
      | Empty ->
          if not (Rt.cas slot cur Asking) then None
          else
            let rec wait n =
              let now = Rt.get slot in
              match now with
              | Given v ->
                  Rt.set slot Empty;
                  Rt.Probe.incr eliminated;
                  Some v
              | _ ->
                  if n = 0 then
                    if Rt.cas slot now Empty then None
                    else
                      (* a pusher slipped in a value as we timed out *)
                      (match Rt.get slot with
                      | Given v ->
                          Rt.set slot Empty;
                          Rt.Probe.incr eliminated;
                          Some v
                      | _ -> None)
                  else (
                    Rt.pause ();
                    wait (n - 1))
            in
            wait spin_budget
      | _ -> None

    let push t v =
      Q.op_begin t.qsbr;
      let rec loop () =
        let cur = Rt.get t.top in
        let n = Some { value = v; next = cur } in
        if not (Rt.cas t.top cur n) then
          if try_eliminate_push t v then ()
          else (
            Rt.Probe.incr restarts;
            loop ())
      in
      loop ();
      Q.op_end t.qsbr

    let pop t =
      Q.op_begin t.qsbr;
      let rec loop () =
        let cur = Rt.get t.top in
        match cur with
        | None -> None
        | Some node ->
            if Rt.cas t.top cur node.next then (
              Q.retire t.qsbr node;
              Some node.value)
            else (
              match try_eliminate_pop t with
              | Some v -> Some v
              | None ->
                  Rt.Probe.incr restarts;
                  loop ())
      in
      let res = loop () in
      Q.op_end t.qsbr;
      res

    let size t =
      let rec go acc = function
        | None -> acc
        | Some n -> go (acc + 1) n.next
      in
      go 0 (Rt.get t.top)
  end
end
