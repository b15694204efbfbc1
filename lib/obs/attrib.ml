(** Trace analyzers: latency attribution and virtual-time timelines.

    Both are deterministic folds over a {!Journal.record} — same-seed
    runs produce identical analyses, which is what makes the report
    sections built from them ([Harness.Report.attrib_section] /
    [timeline_section]) diffable and fleet-safe.

    {b Attribution} reconstructs each traced request (the
    [Req_begin]/[Req_end] pairs, see {!Journal}) and charges its
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

(** The outcome taxonomy the "why is p99 slow" section splits on. A
    request's outcome is derived, not emitted: the class name on
    [Req_end] decides deadline misses and sheds, and the kinds of the
    counters the request bumped while open decide the rest — a
    [Failover] counter makes it failed-over, a [Retry], [Abort] or
    [Snapshot_retry] counter (or a [Retry] instant) makes it retried. A
    structure's own [Restart]s (a lock-free traversal re-walking) do not
    count: they are the structure's business, not a service-level retry.
    A request whose thread crashed is [Crashed]. *)
type outcome = Served | Retried | Failed_over | Deadline | Shed | Crashed

let outcomes = [ Served; Retried; Failed_over; Deadline; Shed; Crashed ]

let outcome_name = function
  | Served -> "ok"
  | Retried -> "retried"
  | Failed_over -> "failed-over"
  | Deadline -> "deadline"
  | Shed -> "shed"
  | Crashed -> "crashed"

type areq = {
  a_id : int;  (** deterministic trace id *)
  a_tid : int;
  a_kind : string;  (** from [Req_begin]: "get", "put", ... *)
  a_class : string;  (** from [Req_end]: the latency class it landed in *)
  a_outcome : outcome;
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

(* One open request per thread; its phases are charged by the walk. *)
type open_req = {
  orq_id : int;
  orq_kind : string;
  orq_t0 : int;
  orq_tot : (string, int) Hashtbl.t;
  mutable orq_retried : bool;
  mutable orq_failed_over : bool;
}

let charge tbl name cycles =
  if cycles > 0 then
    Hashtbl.replace tbl name
      (cycles + Option.value ~default:0 (Hashtbl.find_opt tbl name))

let queue = Journal.phase_name Queue

(* The frames both analyzers walk: phases only. *)
let phase_step : Journal.kind -> Journal.phase Journal.step = function
  | Phase_begin p -> Open p
  | Phase_end p -> Close (fun q -> q = p)
  | _ -> Neither

let finish rq ~tid ~cls ~t1 ~outcome =
  let queued = Option.value ~default:0 (Hashtbl.find_opt rq.orq_tot queue) in
  let served = t1 - rq.orq_t0 in
  let attributed =
    Hashtbl.fold
      (fun name v a -> if String.equal name queue then a else a + v)
      rq.orq_tot 0
  in
  charge rq.orq_tot "other" (served - attributed);
  let outcome =
    match outcome with
    | Some o -> o
    | None ->
        if String.equal cls "timeout" then Deadline
        else if String.equal cls "shed" then Shed
        else if rq.orq_failed_over then Failed_over
        else if rq.orq_retried then Retried
        else Served
  in
  {
    a_id = rq.orq_id;
    a_tid = tid;
    a_kind = rq.orq_kind;
    a_class = cls;
    a_outcome = outcome;
    a_t0 = rq.orq_t0;
    a_t1 = t1;
    a_total = served + queued;
    a_phases =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) rq.orq_tot []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b);
  }

let analyze (r : Journal.record) : t =
  let open_reqs : (int, open_req) Hashtbl.t = Hashtbl.create 16 in
  let reqs_rev = ref [] in
  let finish_open tid ~cls ~t1 ~outcome =
    match Hashtbl.find_opt open_reqs tid with
    | Some rq ->
        Hashtbl.remove open_reqs tid;
        let cls = Option.value ~default:rq.orq_kind cls in
        reqs_rev := finish rq ~tid ~cls ~t1 ~outcome :: !reqs_rev
    | None -> ()
  in
  Journal.walk r ~step:phase_step
    ~close:(fun ~tid p ~start:_ ~stop:_ ~self ~crashed:_ ->
      Option.iter
        (fun rq -> charge rq.orq_tot (Journal.phase_name p) self)
        (Hashtbl.find_opt open_reqs tid))
    ~entry:(fun e ->
      let rq () = Hashtbl.find_opt open_reqs e.tid in
      match e.kind with
      | Req_begin (kind, id) ->
          (* a stale open request on this tid (missing end) is dropped *)
          Hashtbl.replace open_reqs e.tid
            {
              orq_id = id;
              orq_kind = kind;
              orq_t0 = e.at;
              orq_tot = Hashtbl.create 8;
              orq_retried = false;
              orq_failed_over = false;
            }
      | Req_end (cls, id) -> (
          match rq () with
          | Some rq when rq.orq_id = id ->
              finish_open e.tid ~cls:(Some cls) ~t1:e.at ~outcome:None
          | _ -> () (* unmatched end: drop *))
      | Instant (Thread_crash, _) ->
          finish_open e.tid ~cls:None ~t1:e.at ~outcome:(Some Crashed)
      | Instant (Retry, _) -> Option.iter (fun rq -> rq.orq_retried <- true) (rq ())
      | Phase_elapsed (p, v) ->
          Option.iter (fun rq -> charge rq.orq_tot (Journal.phase_name p) v) (rq ())
      | Count (_, kind, _) -> (
          match (rq (), kind) with
          | Some rq, (Retry | Abort | Snapshot_retry) -> rq.orq_retried <- true
          | Some rq, Failover -> rq.orq_failed_over <- true
          | _ -> ())
      | _ -> ());
  let reqs = List.rev !reqs_rev in
  {
    reqs;
    phases =
      List.sort_uniq String.compare
        (List.concat_map (fun a -> List.map fst a.a_phases) reqs);
    dropped = Hashtbl.length open_reqs;
  }

(** [tally a reqs]: over [reqs] (all of [a]'s requests, or a subset such
    as its tail), "other" and each phase of [a], sorted by name, with its
    total self cycles, and each outcome, in {!outcomes} order, with its
    request count. The CLI summary and the report section both read it. *)
let tally a reqs =
  let sum f = List.fold_left (fun s r -> s + f r) 0 reqs in
  ( List.map
      (fun p ->
        (p, sum (fun r -> Option.value ~default:0 (List.assoc_opt p r.a_phases))))
      (List.sort_uniq String.compare ("other" :: a.phases)),
    List.map (fun o -> (o, sum (fun r -> Bool.to_int (r.a_outcome = o)))) outcomes )

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
  let occupy p b e =
    let name = Journal.phase_name p in
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
  (* Occupancy is about what threads were doing, whether or not the
     phase sits in a traced request. *)
  Journal.walk r ~step:phase_step
    ~close:(fun ~tid:_ p ~start ~stop ~self:_ ~crashed:_ -> occupy p start stop)
    ~entry:(fun e ->
      match e.kind with
      | Req_end _ -> bump reqs e.at
      | Count (_, kind, n) -> (
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
      | Instant ((Node_crash | Thread_crash), _) -> bump crashes e.at
      | Instant (Storm, _) -> bump storms e.at
      | Phase_elapsed (p, v) -> occupy p (e.at - v) e.at
      | _ -> ());
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
