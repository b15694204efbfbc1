(** Trace analyzers: latency attribution and virtual-time timelines.

    Both are deterministic folds over a {!Journal.record} — same-seed
    runs produce identical analyses, which is what makes the report
    sections built from them ([Harness.Report.attrib_section] /
    [timeline_section]) diffable and fleet-safe.

    {b Attribution} reconstructs each traced request (the
    [Req_begin]/[Req_end] pairs, see {!Tracectx}) and charges its
    latency to typed phases. Nested phase spans are charged {e self}
    time: a resync running inside routing bills "resync", not "route",
    and a request's phase cycles plus its ["other"] remainder sum
    exactly to its served time.

    {b Timelines} cut the run's virtual time into fixed windows and
    count, per window, completions, retries, aborts, timeouts, sheds,
    failovers, crash observations and storm-issued requests, plus each
    phase's {e occupancy} (total cycles any thread spent inside the
    phase overlapping the window). Storms read as a retry/backoff spike,
    crashes as a crash mark followed by failover + resync occupancy —
    visible on the timeline instead of smeared into run totals. *)

(* ------------------------------------------------------------------ *)
(* Per-request attribution                                             *)

type areq = {
  a_id : int;  (** deterministic trace id *)
  a_tid : int;
  a_kind : string;  (** from [Req_begin]: "get", "put", ... *)
  a_class : string;  (** from [Req_end]: the latency class it landed in *)
  a_outcome : string;  (** derived, see {!Tracectx.outcome} *)
  a_t0 : int;  (** virtual time of [Req_begin] *)
  a_t1 : int;  (** virtual time of [Req_end] (or the thread's death) *)
  a_total : int;  (** served time + precomputed queueing delay *)
  a_phases : (string * int) list;  (** phase -> self cycles, sorted *)
}

type t = {
  reqs : areq list;  (** completion order *)
  phases : string list;  (** every phase name observed, sorted *)
  dropped : int;
      (** requests still open when the record ended (run aborted
          mid-request); their partial data is discarded *)
}

(* Walker state: per-thread, one open request and its stack of open
   phase spans. [op_child] accumulates the cycles of completed nested
   phases so the parent can be charged self time only. *)
type open_phase = {
  op_name : string;
  op_start : int;
  mutable op_child : int;
}

type open_req = {
  orq_id : int;
  orq_kind : string;
  orq_t0 : int;
  mutable orq_stack : open_phase list;
  orq_tot : (string, int) Hashtbl.t;
  mutable orq_retried : bool;
  mutable orq_failed_over : bool;
}

let charge tbl name cycles =
  if cycles > 0 then
    Hashtbl.replace tbl name
      (cycles + Option.value ~default:0 (Hashtbl.find_opt tbl name))

let sorted_phases tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Close every open phase at [ts] (thread death), innermost first: each
   gets its self time up to the death point, and hands its full duration
   up as the parent's child time — exactly what [Span_end] would have
   done. *)
let close_stack rq ts =
  let rec go = function
    | [] -> ()
    | op :: rest ->
        let dur = ts - op.op_start in
        charge rq.orq_tot op.op_name (dur - op.op_child);
        (match rest with
        | parent :: _ -> parent.op_child <- parent.op_child + dur
        | [] -> ());
        go rest
  in
  go rq.orq_stack;
  rq.orq_stack <- []

let finish rq ~tid ~cls ~t1 ~outcome_override =
  close_stack rq t1;
  let queue = Option.value ~default:0 (Hashtbl.find_opt rq.orq_tot "queue") in
  let served = t1 - rq.orq_t0 in
  let attributed =
    Hashtbl.fold
      (fun name v a -> if String.equal name "queue" then a else a + v)
      rq.orq_tot 0
  in
  charge rq.orq_tot "other" (served - attributed);
  let outcome =
    match outcome_override with
    | Some o -> o
    | None ->
        Tracectx.outcome ~cls ~retried:rq.orq_retried
          ~failed_over:rq.orq_failed_over
  in
  {
    a_id = rq.orq_id;
    a_tid = tid;
    a_kind = rq.orq_kind;
    a_class = cls;
    a_outcome = outcome;
    a_t0 = rq.orq_t0;
    a_t1 = t1;
    a_total = served + queue;
    a_phases = sorted_phases rq.orq_tot;
  }

let analyze (r : Journal.record) : t =
  let open_reqs : (int, open_req) Hashtbl.t = Hashtbl.create 16 in
  let reqs_rev = ref [] in
  let emit a = reqs_rev := a :: !reqs_rev in
  Array.iter
    (fun (e : Journal.entry) ->
      let rq () = Hashtbl.find_opt open_reqs e.tid in
      match e.kind with
      | Journal.Req_begin (kind, id) ->
          (* a stale open request on this tid (missing end) is dropped *)
          Hashtbl.replace open_reqs e.tid
            {
              orq_id = id;
              orq_kind = kind;
              orq_t0 = e.at;
              orq_stack = [];
              orq_tot = Hashtbl.create 8;
              orq_retried = false;
              orq_failed_over = false;
            }
      | Journal.Req_end (cls, id) -> (
          match rq () with
          | Some rq when rq.orq_id = id ->
              Hashtbl.remove open_reqs e.tid;
              emit (finish rq ~tid:e.tid ~cls ~t1:e.at ~outcome_override:None)
          | _ -> () (* unmatched end: drop *))
      | Journal.Span_begin name -> (
          match (Tracectx.phase_of_span name, rq ()) with
          | Some p, Some rq ->
              rq.orq_stack <-
                { op_name = p; op_start = e.at; op_child = 0 } :: rq.orq_stack
          | _ -> ())
      | Journal.Span_end name -> (
          match (Tracectx.phase_of_span name, rq ()) with
          | Some p, Some rq -> (
              match rq.orq_stack with
              | top :: rest when String.equal top.op_name p ->
                  rq.orq_stack <- rest;
                  let dur = e.at - top.op_start in
                  charge rq.orq_tot p (dur - top.op_child);
                  (match rest with
                  | parent :: _ -> parent.op_child <- parent.op_child + dur
                  | [] -> ())
              | _ -> () (* unmatched phase end: drop *))
          | _ -> ())
      | Journal.Instant (name, arg) ->
          if String.equal name Tracectx.ev_thread_crash then (
            match rq () with
            | Some rq ->
                Hashtbl.remove open_reqs e.tid;
                emit
                  (finish rq ~tid:e.tid ~cls:rq.orq_kind ~t1:e.at
                     ~outcome_override:(Some "crashed"))
            | None -> ())
          else (
            match (Tracectx.phase_of_inline name, arg, rq ()) with
            | Some p, Some v, Some rq -> charge rq.orq_tot p v
            | _ ->
                if String.equal name Tracectx.ev_retry then
                  Option.iter (fun rq -> rq.orq_retried <- true) (rq ()))
      | Journal.Count (_, kind, _) -> (
          match (rq (), kind) with
          | Some rq, (Retry | Abort | Snapshot_retry) -> rq.orq_retried <- true
          | Some rq, Failover -> rq.orq_failed_over <- true
          | _ -> ())
      | Journal.Sample _ | Journal.Point _ -> ())
    r.entries;
  let reqs = List.rev !reqs_rev in
  let phase_set : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun a -> List.iter (fun (p, _) -> Hashtbl.replace phase_set p ()) a.a_phases)
    reqs;
  {
    reqs;
    phases =
      List.sort String.compare
        (Hashtbl.fold (fun k () a -> k :: a) phase_set []);
    dropped = Hashtbl.length open_reqs;
  }

(* ------------------------------------------------------------------ *)
(* Virtual-time timelines                                              *)

type timeline = {
  tl_horizon : int;  (** last journal timestamp (run length proxy) *)
  tl_nwindows : int;
  tl_width : int;  (** window width in cycles *)
  tl_reqs : int array;  (** requests completed per window *)
  tl_retries : int array;
  tl_aborts : int array;  (** txn aborts *)
  tl_timeouts : int array;
  tl_sheds : int array;
  tl_failovers : int array;
  tl_crashes : int array;  (** node-crash observations + thread crashes *)
  tl_storms : int array;  (** requests issued inside a hot-key storm *)
  tl_occ : (string * int array) list;
      (** phase -> occupied cycles per window, sorted by phase *)
}

let default_windows = 24

let timeline ?(nwindows = default_windows) (r : Journal.record) : timeline =
  let win = Journal.windows ~n:nwindows r in
  let { Journal.horizon; nwindows; width } = win in
  let widx = Journal.window_index win in
  let z () = Array.make nwindows 0 in
  let reqs = z ()
  and retries = z ()
  and aborts = z ()
  and timeouts = z ()
  and sheds = z ()
  and failovers = z ()
  and crashes = z ()
  and storms = z () in
  let occ : (string, int array) Hashtbl.t = Hashtbl.create 8 in
  let occupy name b e =
    let a =
      match Hashtbl.find_opt occ name with
      | Some a -> a
      | None ->
          let a = z () in
          Hashtbl.add occ name a;
          a
    in
    let e = max b e in
    for w = widx b to widx e do
      let w0 = w * width and w1 = (w + 1) * width in
      let o = min e w1 - max b w0 in
      if o > 0 then a.(w) <- a.(w) + o
    done
  in
  let bump a at = a.(widx at) <- a.(widx at) + 1 in
  (* Per-thread open phase-span stacks, request-independent: occupancy
     is about what threads were doing, whether or not the span sits in a
     traced request. *)
  let stacks : (int, (string * int) list) Hashtbl.t = Hashtbl.create 16 in
  Array.iter
    (fun (e : Journal.entry) ->
      match e.kind with
      | Journal.Req_end _ -> bump reqs e.at
      | Journal.Req_begin _ -> ()
      | Journal.Count (_, kind, n) -> (
          (* Only the service aggregates have these kinds; their per-shard
             twins are [Tally]s, so nothing counts twice. *)
          let add a = a.(widx e.at) <- a.(widx e.at) + n in
          match kind with
          | Retry -> add retries
          | Abort -> add aborts
          | Timeout -> add timeouts
          | Shed -> add sheds
          | Failover -> add failovers
          | _ -> ())
      | Journal.Instant (name, arg) -> (
          if String.equal name Tracectx.ev_node_crash then bump crashes e.at
          else if String.equal name Tracectx.ev_thread_crash then begin
            bump crashes e.at;
            (* the dead thread's open phases end here *)
            match Hashtbl.find_opt stacks e.tid with
            | Some st ->
                List.iter (fun (p, b) -> occupy p b e.at) st;
                Hashtbl.remove stacks e.tid
            | None -> ()
          end
          else if String.equal name Tracectx.ev_storm then bump storms e.at
          else
            match (Tracectx.phase_of_inline name, arg) with
            | Some p, Some v -> occupy p (e.at - v) e.at
            | _ -> ())
      | Journal.Span_begin name -> (
          match Tracectx.phase_of_span name with
          | Some p ->
              Hashtbl.replace stacks e.tid
                ((p, e.at)
                :: Option.value ~default:[] (Hashtbl.find_opt stacks e.tid))
          | None -> ())
      | Journal.Span_end name -> (
          match Tracectx.phase_of_span name with
          | None -> ()
          | Some p -> (
              match Hashtbl.find_opt stacks e.tid with
              | Some ((top, b) :: rest) when String.equal top p ->
                  Hashtbl.replace stacks e.tid rest;
                  occupy p b e.at
              | _ -> ()))
      | Journal.Sample _ | Journal.Point _ -> ())
    r.entries;
  (* Spans still open at EOF occupy through the horizon. *)
  Hashtbl.fold (fun tid st acc -> (tid, st) :: acc) stacks []
  |> List.sort compare
  |> List.iter (fun (_, st) -> List.iter (fun (p, b) -> occupy p b horizon) st);
  {
    tl_horizon = horizon;
    tl_nwindows = nwindows;
    tl_width = width;
    tl_reqs = reqs;
    tl_retries = retries;
    tl_aborts = aborts;
    tl_timeouts = timeouts;
    tl_sheds = sheds;
    tl_failovers = failovers;
    tl_crashes = crashes;
    tl_storms = storms;
    tl_occ =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) occ []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b);
  }

(* ------------------------------------------------------------------ *)
(* Chrome counter tracks                                               *)

(* One counter event per window boundary per track, so Perfetto renders
   the windowed series as stacked counter tracks under pid 0. *)
let timeline_chrome (tl : timeline) : string =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\":[\n";
  let first = ref true in
  let ev ~name ~ts ~v =
    if not !first then Buffer.add_string b ",\n";
    first := false;
    Printf.bprintf b
      "{\"name\":\"%s\",\"ph\":\"C\",\"ts\":%d,\"pid\":0,\"tid\":0,\"args\":{\"value\":%d}}"
      name ts v
  in
  let track name vs = Array.iteri (fun w v -> ev ~name ~ts:(w * tl.tl_width) ~v) vs in
  track "tl.reqs" tl.tl_reqs;
  track "tl.retries" tl.tl_retries;
  track "tl.aborts" tl.tl_aborts;
  track "tl.timeouts" tl.tl_timeouts;
  track "tl.sheds" tl.tl_sheds;
  track "tl.failovers" tl.tl_failovers;
  track "tl.crashes" tl.tl_crashes;
  track "tl.storms" tl.tl_storms;
  List.iter (fun (p, vs) -> track ("tl.occ." ^ p) vs) tl.tl_occ;
  Buffer.add_string b "\n]}\n";
  Buffer.contents b
