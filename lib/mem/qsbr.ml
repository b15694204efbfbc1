(** Quiescent-state-based memory reclamation — the [ssmem] substitute.

    The paper's data structures rely on ssmem, a memory allocator with
    quiescent-state-based garbage collection (§3.3): a retired node may be
    reused only after every thread has passed through a quiescent state
    (an operation boundary) following its retirement. In OCaml the runtime
    GC already guarantees memory safety, so reclamation here is {e logical}
    — the point of this module is to reproduce ssmem's protocol and
    statistics faithfully, because the paper's designs depend on its
    semantics: e.g. node caches (§5.1) must never observe a recycled node,
    and the fine-grained list (§4.2) leaves deleted nodes locked forever
    precisely so that a reclaimer cannot hand them out again.

    Protocol: each thread [i] owns an activity stamp [ts.(i)], incremented
    when an operation begins (stamp becomes odd = inside an operation) and
    when it ends (even = quiescent). Retired objects accumulate in
    per-thread batches; a full batch is sealed with a snapshot of all
    stamps. A sealed batch is reclaimed once every thread is either outside
    any operation or has been observed with a stamp different from the
    snapshot — i.e., every operation concurrent with the retirement has
    finished. *)

module type RT = Rt.Rt_intf.RT

(* Stall-detection state, one entry per thread id (see [stall_obs]). *)
type stall = {
  obs : int array;  (** consecutive blocked-with-same-stamp observations *)
  obs_stamp : int array;  (** stamp at the last observation of [i] *)
  dead : bool array;
}

(* Stands for "no stall state yet": no batch has been sealed and no
   thread declared dead. *)
let no_stall = { obs = [||]; obs_stamp = [||]; dead = [||] }
let default_max_threads = 128

module Make (Rt : RT) = struct
  type 'a batch = { snapshot : int array; items : 'a list }

  type 'a slot = {
    mutable current : 'a list;
    mutable current_n : int;
    mutable sealed : 'a batch list;  (** oldest last *)
    mutable n_retired : int;
    mutable n_freed : int;
  }

  (* Per-thread state is built on first use, as ssmem builds a thread's
     allocator state on its first allocation: a structure holding many
     instances (one per hash bucket) pays host memory only for the
     threads that touch each one. [ts] reserves all [max_threads] stamp
     lines up front (see [Rt.cells]), so line ids and access pricing are
     those of eager allocation; [slots] starts empty and grows (doubling
     from 8, capped at [max_threads]) on a thread's first retire; [stall]
     appears when the first sealed batch is checked (right after the
     first seal) or on [declare_dead]. *)
  type 'a t = {
    ts : int Rt.cells;
    slots : 'a slot option array Atomic.t;
        (** copy-on-write: a published array is never written again, and
            a thread's first retire installs a copy holding its new slot
            by compare-and-set, so two native domains retiring for the
            first time cannot drop each other's slot *)
    batch_size : int;
    free_fn : 'a -> unit;
    max_threads : int;
    (* Epoch-stall detection: a thread that crashes or stalls inside an
       operation never advances its stamp again and would otherwise block
       reclamation forever, growing [pending] without bound. Each reclaim
       attempt that finds the oldest batch blocked by thread [i] with an
       {e unchanged} stamp counts one observation against [i]; at
       [stall_obs] consecutive observations (0 = never) the thread is
       declared dead and no longer consulted. Logical reclamation makes
       this safe in OCaml — a wrongly-declared thread that resumes reads
       nodes the GC still keeps alive — whereas a real allocator would
       need the declaration to be conservative. *)
    stall_obs : int;
    stall : stall Atomic.t;
        (** installed once by compare-and-set, so two native domains
            sealing their first batches agree on one *)
  }

  let default_batch = 64

  let create ?(max_threads = default_max_threads) ?(batch_size = default_batch)
      ?(stall_obs = 0) ?(free = fun _ -> ()) () =
    {
      ts = Rt.cells max_threads 0;
      slots = Atomic.make [||];
      batch_size;
      free_fn = free;
      max_threads;
      stall_obs;
      stall = Atomic.make no_stall;
    }

  let stall_state t =
    let s = Atomic.get t.stall in
    if s != no_stall then s
    else
      let n = t.max_threads in
      let s =
        { obs = Array.make n 0; obs_stamp = Array.make n 0; dead = Array.make n false }
      in
      if Atomic.compare_and_set t.stall no_stall s then s else Atomic.get t.stall

  (* The calling thread's id, checked against the instance's bound. *)
  let self t =
    let i = Rt.tid () in
    if i >= t.max_threads then
      invalid_arg
        (Printf.sprintf "Qsbr: thread id %d is out of range (max_threads = %d)" i
           t.max_threads);
    i

  let in_op stamp = stamp land 1 = 1

  (* Operation boundaries. The stamp is only ever written by its owner, so
     a load + release store suffices (no RMW). *)
  let op_begin t =
    let c = Rt.cell t.ts (self t) in
    let s = Rt.get c in
    if in_op s then invalid_arg "Qsbr.op_begin: already inside an operation";
    Rt.set c (s + 1)

  let op_end t =
    let c = Rt.cell t.ts (self t) in
    let s = Rt.get c in
    if not (in_op s) then invalid_arg "Qsbr.op_end: not inside an operation";
    Rt.set c (s + 1)

  (* A quiescent pass outside any bracketed operation. *)
  let quiescent t =
    let c = Rt.cell t.ts (self t) in
    let s = Rt.get c in
    if in_op s then invalid_arg "Qsbr.quiescent: inside an operation";
    Rt.set c (s + 2)

  (* A sealed batch is safe once every thread that was inside an operation
     at sealing time has moved on (threads declared dead don't count). *)
  let batch_safe t (b : 'a batch) =
    let { dead; _ } = stall_state t in
    let ok = ref true in
    let n = t.max_threads in
    let i = ref 0 in
    while !ok && !i < n do
      let snap = b.snapshot.(!i) in
      if (not dead.(!i)) && in_op snap && Rt.get (Rt.cell t.ts !i) = snap then
        ok := false;
      incr i
    done;
    !ok

  (* Count one stall observation against every thread blocking batch [b]
     with an unchanged stamp; returns whether any crossed [stall_obs] and
     was declared dead (so the caller should retry reclamation). *)
  let note_stalled t (b : 'a batch) =
    let { obs; obs_stamp; dead } = stall_state t in
    let newly_dead = ref false in
    for i = 0 to t.max_threads - 1 do
      let snap = b.snapshot.(i) in
      if (not dead.(i)) && in_op snap then
        let cur = Rt.get (Rt.cell t.ts i) in
        if cur = snap then (
          if obs_stamp.(i) = snap then obs.(i) <- obs.(i) + 1
          else (
            obs_stamp.(i) <- snap;
            obs.(i) <- 1);
          if t.stall_obs > 0 && obs.(i) >= t.stall_obs then (
            dead.(i) <- true;
            newly_dead := true))
        else if obs_stamp.(i) = snap then (
          (* moved on since we last looked: progressing, not stalled *)
          obs.(i) <- 0;
          obs_stamp.(i) <- cur)
    done;
    !newly_dead

  (* Sealed batches age from list head (newest) to tail (oldest); walk the
     oldest-first view and reclaim leading safe batches. Stopping at the
     first unsafe batch keeps reclamation FIFO (conservative but simple —
     a newer batch can only be safe if checked independently anyway). The
     first unsafe batch also feeds stall detection: if that declares a
     blocker dead, retry, so a dead thread frees everything it blocked. *)
  let reclaim t slot =
    let rec go oldest_first =
      let rec take_safe = function
        | b :: rest when batch_safe t b ->
            List.iter t.free_fn b.items;
            slot.n_freed <- slot.n_freed + List.length b.items;
            take_safe rest
        | rest -> rest
      in
      match take_safe oldest_first with
      | [] -> []
      | b :: _ as remaining -> if note_stalled t b then go remaining else remaining
    in
    slot.sealed <- List.rev (go (List.rev slot.sealed))

  let declare_dead t i =
    if i < 0 || i >= t.max_threads then
      invalid_arg
        (Printf.sprintf "Qsbr.declare_dead: thread id %d is out of range (max_threads = %d)"
           i t.max_threads);
    (stall_state t).dead.(i) <- true

  (* Threads the reclaimer currently believes are stuck: declared dead, or
     observed blocking the reclamation frontier with an unchanged stamp on
     at least two consecutive attempts. *)
  let stalled t =
    let { obs; dead; _ } = Atomic.get t.stall in
    let acc = ref [] in
    for i = Array.length dead - 1 downto 0 do
      if dead.(i) || obs.(i) >= 2 then acc := i :: !acc
    done;
    !acc

  let seal t slot =
    if slot.current_n > 0 then (
      let snapshot = Array.init t.max_threads (fun i -> Rt.get (Rt.cell t.ts i)) in
      slot.sealed <- { snapshot; items = slot.current } :: slot.sealed;
      slot.current <- [];
      slot.current_n <- 0)

  let find_slot t i =
    let a = Atomic.get t.slots in
    if i < Array.length a then a.(i) else None

  (* The calling thread's slot, installed on its first retire. *)
  let rec slot_of t i =
    let a = Atomic.get t.slots in
    let len = Array.length a in
    match if i < len then a.(i) else None with
    | Some slot -> slot
    | None ->
        let rec double l = if l > i then l else double (2 * l) in
        let a' =
          Array.make
            (if i < len then len else min t.max_threads (double (max 8 (2 * len))))
            None
        in
        Array.blit a 0 a' 0 len;
        let slot =
          { current = []; current_n = 0; sealed = []; n_retired = 0; n_freed = 0 }
        in
        a'.(i) <- Some slot;
        if Atomic.compare_and_set t.slots a a' then slot else slot_of t i

  let retire t x =
    let slot = slot_of t (self t) in
    slot.current <- x :: slot.current;
    slot.current_n <- slot.current_n + 1;
    slot.n_retired <- slot.n_retired + 1;
    if slot.current_n >= t.batch_size then (
      seal t slot;
      reclaim t slot)

  (* Force-seal the calling thread's batch and reclaim what is safe. *)
  let flush t =
    match find_slot t (self t) with
    | None -> ()
    | Some slot ->
        seal t slot;
        reclaim t slot

  type stats = { retired : int; freed : int; pending : int }

  let stats t =
    Array.fold_left
      (fun acc -> function
        | None -> acc
        | Some slot ->
            {
              retired = acc.retired + slot.n_retired;
              freed = acc.freed + slot.n_freed;
              pending =
                acc.pending + slot.current_n
                + List.fold_left (fun a b -> a + List.length b.items) 0 slot.sealed;
            })
      { retired = 0; freed = 0; pending = 0 }
      (Atomic.get t.slots)
end
