(** A small linearizability checker (Wing & Gong style), crash-aware.

    A {e history} is a set of completed operations, each with invocation
    and response timestamps (virtual cycles from the simulator, whose
    determinism makes failures reproducible), plus optional {e pending}
    operations — invoked but never responded, because their thread
    crashed (or the run was aborted mid-operation). The checker searches
    for a {e linearization}: a total order of the completed operations,
    {e plus any subset of the pending ones} (include-or-exclude search: a
    crashed operation may have taken effect or not), that (a) respects
    real-time precedence — if [a] responded before [b] was invoked, [a]
    must come first; a pending op never responded, so nothing is ordered
    after it — and (b) replays correctly against a sequential
    specification, matching every completed operation's observed output
    (an included pending op constrains only the state, having produced no
    output).

    The search is exponential in the worst case, so it is meant for the
    small, adversarial histories the property tests generate (a few
    threads, a handful of operations each — where interleaving bugs
    actually manifest). Oversized histories return {!Make.result.Too_large}
    instead of raising, so fuzzed histories degrade gracefully. Pruning:
    only minimal (real-time-enabled) operations are candidates at each
    step, and only those whose output matches the specification's
    answer. *)

module type SPEC = sig
  type state
  type input
  type output

  val init : state
  (** Initial state; persistent values make backtracking free. *)

  val apply : state -> input -> state * output
  val equal_output : output -> output -> bool
  val pp_input : Format.formatter -> input -> unit
  val pp_output : Format.formatter -> output -> unit
end

module Make (Spec : SPEC) = struct
  type event = {
    tid : int;
    inv : int;  (** invocation timestamp *)
    res : int;  (** response timestamp *)
    input : Spec.input;
    output : Spec.output;
  }

  type pending = {
    p_tid : int;
    p_inv : int;  (** invocation timestamp; there is no response *)
    p_input : Spec.input;
  }

  type step = Completed of event | Included of pending

  type result = Witness of step list | No_witness | Too_large

  let max_events = 62

  let pp_event fmt e =
    Format.fprintf fmt "[t%d %d..%d] %a -> %a" e.tid e.inv e.res Spec.pp_input
      e.input Spec.pp_output e.output

  let pp_pending fmt p =
    Format.fprintf fmt "[t%d %d..crash] %a -> ?" p.p_tid p.p_inv Spec.pp_input
      p.p_input

  let pp_step fmt = function
    | Completed e -> pp_event fmt e
    | Included p -> pp_pending fmt p

  (* Check whether [history] (plus any subset of [pending]) is
     linearizable starting from [init]. Completed and pending operations
     share one index space: 0..n-1 completed, n..n+m-1 pending. The
     search terminates as soon as every completed op is placed — pending
     ops not yet chosen are simply excluded (the crashed op never took
     effect). *)
  let check ?(init = Spec.init) ?(pending = []) (history : event list) :
      result =
    let ops = Array.of_list history in
    let pend = Array.of_list pending in
    let n = Array.length ops in
    let m = Array.length pend in
    if n + m > max_events then Too_large
    else
      let total = n + m in
      (* Precompute precedence: [before.(i)] = bitmask of ops that must
         linearize before op i (responded before i's invocation). Pending
         ops never responded, so they appear in nobody's mask. *)
      let before = Array.make total 0 in
      for i = 0 to total - 1 do
        let inv_i = if i < n then ops.(i).inv else pend.(i - n).p_inv in
        for j = 0 to n - 1 do
          if i <> j && ops.(j).res < inv_i then
            before.(i) <- before.(i) lor (1 lsl j)
        done
      done;
      let full = (1 lsl n) - 1 in
      (* Candidates are tried by ascending response time, pending ops
         last: the op that responded first is the likeliest to come
         first, so a witness is usually found without backtracking. The
         search stays exhaustive, so only which witness is found depends
         on this order. *)
      let order = Array.init total Fun.id in
      let res i = if i < n then ops.(i).res else max_int in
      Array.stable_sort (fun i j -> compare (res i) (res j)) order;
      (* Memoize failed (chosen-set, state) pairs; the spec states here
         are small persistent values, so polymorphic hashing is fine. *)
      let failed : (int * Spec.state, unit) Hashtbl.t = Hashtbl.create 256 in
      let rec search chosen state acc =
        if chosen land full = full then Some (List.rev acc)
        else if Hashtbl.mem failed (chosen, state) then None
        else
          let result = ref None in
          let i = ref 0 in
          while !result = None && !i < total do
            let idx = order.(!i) in
            incr i;
            if
              chosen land (1 lsl idx) = 0
              && before.(idx) land lnot chosen = 0
            then
              if idx < n then (
                let state', out = Spec.apply state ops.(idx).input in
                if Spec.equal_output out ops.(idx).output then
                  match
                    search
                      (chosen lor (1 lsl idx))
                      state'
                      (Completed ops.(idx) :: acc)
                  with
                  | Some _ as w -> result := w
                  | None -> ())
              else
                (* Pending: the operation produced no output, so only its
                   effect on the state constrains the search. *)
                let state', _ = Spec.apply state pend.(idx - n).p_input in
                match
                  search
                    (chosen lor (1 lsl idx))
                    state'
                    (Included pend.(idx - n) :: acc)
                with
                | Some _ as w -> result := w
                | None -> ()
          done;
          if !result = None then Hashtbl.replace failed (chosen, state) ();
          !result
      in
      match search 0 init [] with
      | Some w -> Witness w
      | None -> No_witness

  let pp_history fmt history =
    List.iter (fun e -> Format.fprintf fmt "  %a@." pp_event e) history

  let pp_pendings fmt pending =
    List.iter (fun p -> Format.fprintf fmt "  %a@." pp_pending p) pending
end

(* ------------------------------------------------------------------ *)
(* Sequential specifications for the library's data structures.        *)

(** Search data structures (sets/maps with int keys and values). *)
module Set_spec = struct
  module M = Map.Make (Int)

  type state = int M.t

  type input = Search of int | Insert of int * int | Delete of int

  type output = Found of int | Absent | Ok | Dup

  let init = M.empty

  let apply st = function
    | Search k -> (
        ( st,
          match M.find_opt k st with
          | Some v -> Found v
          | None -> Absent ))
    | Insert (k, v) ->
        if M.mem k st then (st, Dup) else (M.add k v st, Ok)
    | Delete k -> (
        match M.find_opt k st with
        | Some v -> (M.remove k st, Found v)
        | None -> (st, Absent))

  let equal_output (a : output) b = a = b

  let pp_input fmt = function
    | Search k -> Format.fprintf fmt "search %d" k
    | Insert (k, v) -> Format.fprintf fmt "insert %d=%d" k v
    | Delete k -> Format.fprintf fmt "delete %d" k

  let pp_output fmt = function
    | Found v -> Format.fprintf fmt "found %d" v
    | Absent -> Format.fprintf fmt "absent"
    | Ok -> Format.fprintf fmt "ok"
    | Dup -> Format.fprintf fmt "dup"
end

(** Queues and stacks, one pool spec over the order. *)
module Pool_spec (O : sig
  val lifo : bool
end) =
struct
  (* One list, front first: each abstract pool has exactly one
     representation, so the checker's memo of failed states never holds
     two copies of the same pool. A stack's front is its top. *)
  type state = int list

  type input = Put of int | Take

  type output = Unit | Got of int | Empty

  let init = []

  let apply st = function
    | Put v -> ((if O.lifo then v :: st else st @ [ v ]), Unit)
    | Take -> ( match st with x :: rest -> (rest, Got x) | [] -> ([], Empty))

  let equal_output (a : output) b = a = b

  let pp_input fmt = function
    | Put v -> Format.fprintf fmt "put %d" v
    | Take -> Format.fprintf fmt "take"

  let pp_output fmt = function
    | Unit -> Format.fprintf fmt "()"
    | Got v -> Format.fprintf fmt "got %d" v
    | Empty -> Format.fprintf fmt "empty"
end
