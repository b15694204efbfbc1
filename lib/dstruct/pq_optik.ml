(** A concurrent priority queue on top of the OPTIK skip list.

    The paper's skip-list lineage (§6) includes Sundell & Tsigas's
    lock-free priority queues built from skip lists [47]; this module
    shows the same construction over {!Sl_optik}: [insert] is a skip-list
    insertion keyed by priority, and [extract_min] walks the bottom level
    from the head and deletes the first live key it can win. Ties on
    priority are broken by a per-instance sequence number packed into the
    low bits, so equal-priority items are admitted and served roughly in
    arrival order. *)

module type RT = Rt.Rt_intf.RT

module Make (Rt : RT) = struct
  module Sl = Sl_optik.Make (Rt)

  (* Priorities are packed as [prio * 2^20 + seq]: up to ~2^42 distinct
     priorities and 2^20 concurrent same-priority insertions between
     extractions (the sequence counter wraps harmlessly — order among
     equal priorities is then arbitrary, which a priority queue allows). *)
  let seq_bits = 20
  let seq_mask = (1 lsl seq_bits) - 1

  type 'v t = { sl : 'v Sl.t; seq : int Rt.atomic }

  let name = "pq-optik"

  (* Wasted work above what the underlying skip list already counts
     (under "sl-optik"): an insert redone with a fresh sequence number
     after a key collision, or an extractor losing the delete race and
     moving on to the next candidate. *)
  let restarts = Rt.Probe.counter "pq-optik.restarts"

  let create () = { sl = Sl.create ~variant:`Restart (); seq = Rt.atomic 0 }

  let max_prio = (max_int lsr (seq_bits + 1)) - 1

  let insert t ~prio v =
    if prio < 0 || prio > max_prio then invalid_arg "pq: priority out of range";
    let rec attempt () =
      let seq = Rt.faa t.seq 1 land seq_mask in
      let key = (prio lsl seq_bits) lor seq in
      (* key collision with a concurrent equal-priority insert: take a
         fresh sequence number and retry *)
      if Sl.insert t.sl key v then ()
      else (
        Rt.Probe.incr restarts;
        attempt ())
    in
    attempt ()

  (* Extract the minimum-priority element. Walks the bottom level from
     the head; competing extractors race on [delete] and the losers move
     on to the next node. *)
  let extract_min t =
    let rec walk node =
      match Rt.get node.Sl.nexts.(0) with
      | None -> None
      | Some next ->
          if next.Sl.key = max_int then None
          else if Sl.live next then
            match Sl.delete t.sl next.Sl.key with
            | Some v -> Some (next.Sl.key lsr seq_bits, v)
            | None ->
                (* lost the race; try the next node *)
                Rt.Probe.incr restarts;
                walk next
          else walk next
    in
    walk t.sl.Sl.head

  let peek_min t =
    let rec walk node =
      match Rt.get node.Sl.nexts.(0) with
      | None -> None
      | Some next ->
          if next.Sl.key = max_int then None
          else if Sl.live next then
            Some (next.Sl.key lsr seq_bits, next.Sl.value)
          else walk next
    in
    walk t.sl.Sl.head

  let size t = Sl.size t.sl

  let is_empty t = match peek_min t with None -> true | Some _ -> false
end
