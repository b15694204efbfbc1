(** Recording bridge from live structure operations to linearizability
    histories.

    Wrap each benchmark operation in {!Make.record}: the recorder
    timestamps the invocation and response with the calling virtual
    thread's clock and appends a completed {!Lincheck.Make.event}. If the
    thread crashes mid-operation (the thunk raises, e.g.
    [Sim.Sched.Crashed] from a fault plan), the in-flight marker is left
    behind and surfaces as a {!Lincheck.Make.pending} operation — exactly
    what the crash-aware checker needs for its include-or-exclude search.

    Timestamps come from [Sim.Sched.now ()], which under a nonzero
    [read_slack] can make a read appear to complete before a write it
    observed. {!Make.completed} therefore takes a [widen] parameter
    (pass the run's read slack): widening every interval by the slack at
    the invocation end restores soundness — it only relaxes precedence
    constraints, so it can never manufacture a violation. *)

(** The crash-aware recorder, over arbitrary request records: an
    exception leaves the in-flight record behind as a pending request.
    Service-level oracles that do not go through {!Lincheck} use it
    directly, so they can reason about acknowledged effects instead of
    input/output pairs: the KV acked-write oracle records one mutable
    request per client call here and sweeps [completed] {e and}
    [inflight] afterwards — a request whose thread crashed after the
    acknowledgment still carries its obligation. {!Make} is the same log
    over linearizability operations. *)
module Log = struct
  type 'r t = {
    completed : 'r array array;
        (** per-thread buffer in recording order; only the first
            [len.(tid)] cells are records *)
    len : int array;
    inflight : 'r option array;
  }

  let create ~nthreads =
    {
      completed = Array.make nthreads [||];
      len = Array.make nthreads 0;
      inflight = Array.make nthreads None;
    }

  (* Append [r] to thread [tid]'s buffer, doubling it when full. A
     fresh buffer is filled with [r] itself: ['r] has no other value to
     hand. *)
  let push t tid r =
    let buf = t.completed.(tid) and n = t.len.(tid) in
    let buf =
      if n < Array.length buf then buf
      else begin
        let grown = Array.make (max 16 (2 * n)) r in
        Array.blit buf 0 grown 0 n;
        t.completed.(tid) <- grown;
        grown
      end
    in
    buf.(n) <- r;
    t.len.(tid) <- n + 1

  (* Deliberately no exception handler: a crash must leave the in-flight
     record set — that IS the pending request. *)
  let record t r (f : unit -> 'a) : 'a =
    let tid = Sim.Sched.tid () in
    t.inflight.(tid) <- Some r;
    let x = f () in
    push t tid r;
    t.inflight.(tid) <- None;
    x

  (* Completed requests in per-thread recording order, thread 0 first,
     then any pending ones: every request ever [record]ed appears
     exactly once. The buffers are walked in place; no copy of the log
     is built. *)
  let iter t f =
    Array.iteri
      (fun tid buf ->
        for i = 0 to t.len.(tid) - 1 do
          f buf.(i)
        done)
      t.completed;
    Array.iter (Option.iter f) t.inflight
end

(** {!Log} over {!Lincheck} operations. An operation's [output] is
    [Some] once it completed and stays [None] if its thread crashed
    mid-operation; completed operations keep their per-thread recording
    order. *)
module Make (Spec : Lincheck.SPEC) = struct
  module L = Lincheck.Make (Spec)

  type op = {
    tid : int;
    inv : int;
    input : Spec.input;
    mutable res : int;
    mutable output : Spec.output option;
  }

  type t = op Log.t

  let create ~nthreads : t = Log.create ~nthreads

  (* Record one operation on the calling virtual thread; a crash leaves
     it in flight with no output, which IS the pending operation. *)
  let record (t : t) input (f : unit -> Spec.output) : Spec.output =
    let tid = Sim.Sched.tid () in
    let op = { tid; inv = Sim.Sched.now (); input; res = 0; output = None } in
    Log.record t op (fun () ->
        let output = f () in
        (* An operation that finished on the inline fast path advanced no
           virtual time; give it a non-empty interval. *)
        op.res <- max (Sim.Sched.now ()) (op.inv + 1);
        op.output <- Some output;
        output)

  let widen_inv widen inv = if inv > widen then inv - widen else 0

  let completed ?(widen = 0) (t : t) : L.event list =
    let acc = ref [] in
    Log.iter t (fun op ->
        Option.iter
          (fun output ->
            acc :=
              { L.tid = op.tid; inv = widen_inv widen op.inv; res = op.res;
                input = op.input; output }
              :: !acc)
          op.output);
    List.rev !acc

  let pending ?(widen = 0) (t : t) : L.pending list =
    let acc = ref [] in
    Log.iter t (fun op ->
        if Option.is_none op.output then
          acc :=
            { L.p_tid = op.tid; p_inv = widen_inv widen op.inv;
              p_input = op.input }
            :: !acc);
    List.rev !acc
end
