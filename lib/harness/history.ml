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

module Make (Spec : Lincheck.SPEC) = struct
  module L = Lincheck.Make (Spec)

  type t = {
    completed : L.event list array;  (** per-thread, newest first *)
    inflight : (int * Spec.input) option array;
        (** per-thread (inv, input) of the op being executed, if any *)
  }

  let create ~nthreads =
    { completed = Array.make nthreads []; inflight = Array.make nthreads None }

  (* Record one operation on the calling virtual thread. Not wrapped in a
     handler on purpose: an exception (a crash) must leave the in-flight
     marker set, because that IS the pending operation. *)
  let record t input (f : unit -> Spec.output) : Spec.output =
    let tid = Sim.Sched.tid () in
    let inv = Sim.Sched.now () in
    t.inflight.(tid) <- Some (inv, input);
    let output = f () in
    let res = Sim.Sched.now () in
    (* An operation that finished on the inline fast path advanced no
       virtual time; give it a non-empty interval. *)
    let res = if res <= inv then inv + 1 else res in
    t.completed.(tid) <- { L.tid; inv; res; input; output } :: t.completed.(tid);
    t.inflight.(tid) <- None;
    output

  let widen_inv widen inv = if inv > widen then inv - widen else 0

  let completed ?(widen = 0) t : L.event list =
    Array.to_list t.completed
    |> List.concat_map
         (List.rev_map (fun (e : L.event) ->
              { e with L.inv = widen_inv widen e.inv }))

  let pending ?(widen = 0) t : L.pending list =
    Array.to_list t.inflight
    |> List.mapi (fun tid o -> (tid, o))
    |> List.filter_map (fun (tid, o) ->
           Option.map
             (fun (inv, input) ->
               { L.p_tid = tid; p_inv = widen_inv widen inv; p_input = input })
             o)
end

(** Spec-free variant of {!Make} for service-level oracles that do not go
    through {!Lincheck}: the same crash semantics (an exception leaves the
    in-flight record behind as a pending operation) but over arbitrary
    request records, so an oracle can reason about acknowledged effects
    instead of input/output pairs. The KV acked-write oracle records one
    mutable request per client call here and sweeps [completed]
    {e and} [inflight] afterwards — a request whose thread crashed after
    the acknowledgment still carries its obligation. *)
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
