(** Trace exporters for {!Journal.record}: Chrome [trace_event] JSON
    (load in [chrome://tracing] / Perfetto) and a line-oriented JSONL
    format for scripted analysis.

    Both exporters are deterministic functions of the record: same-seed
    simulator runs therefore produce byte-identical files. Timestamps are
    virtual cycles written into the [ts] microsecond field — absolute
    scale is meaningless in a simulation, ordering and durations are
    what matters. *)

(* ------------------------------------------------------------------ *)
(* JSONL: one journal entry per line                                   *)

let jsonl_entry b (e : Journal.entry) =
  let named k name =
    Printf.bprintf b "{\"t\":%d,\"tid\":%d,\"k\":\"%s\",\"name\":\"%s\"" e.at e.tid k
      (Report.escape name)
  in
  (match e.kind with
  | Journal.Count (name, _, n) ->
      named "count" name;
      Printf.bprintf b ",\"v\":%d" n
  | Journal.Sample (name, v) ->
      named "sample" name;
      Printf.bprintf b ",\"v\":%d" v
  | Journal.Instant (i, arg) ->
      named "event" (Journal.instant_name i);
      (match arg with None -> () | Some v -> Printf.bprintf b ",\"v\":%d" v)
  | Journal.Phase_elapsed (p, v) ->
      named "event" (Journal.phase_elapsed_name p);
      Printf.bprintf b ",\"v\":%d" v
  | Journal.Span_begin name -> named "begin" name
  | Journal.Span_end name -> named "end" name
  | Journal.Phase_begin p -> named "begin" (Journal.phase_span_name p)
  | Journal.Phase_end p -> named "end" (Journal.phase_span_name p)
  | Journal.Point p -> named "point" (Rt.Rt_intf.fault_point_name p)
  | Journal.Req_begin (kind, id) ->
      named "req-begin" kind;
      Printf.bprintf b ",\"trace\":%d" id
  | Journal.Req_end (cls, id) ->
      named "req-end" cls;
      Printf.bprintf b ",\"trace\":%d" id);
  Buffer.add_string b "}\n"

let to_jsonl (r : Journal.record) =
  let b = Buffer.create (64 * Array.length r.entries) in
  Array.iter (jsonl_entry b) r.entries;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Chrome trace_event JSON                                             *)

(* Spans come from lock waits ([Probe.span]), phases, requests and the
   critical sections between paired [Critical_enter]/[Critical_exit]
   checkpoints; {!Journal.walk} keeps them on one per-thread stack, so
   the output is well-formed: an unmatched end is dropped, a thread's
   crash closes its open spans at its death timestamp with a
   [crashed:true] arg (the span visibly ends where the thread died), and
   spans still open when the record ends close at its final timestamp. *)
type frame = Span of string | Phase of Journal.phase | Critical | Req of string

let frame_name = function
  | Span name -> name
  | Phase p -> Journal.phase_span_name p
  | Critical -> "critical-section"
  | Req kind -> "req:" ^ kind

let step : Journal.kind -> frame Journal.step = function
  | Span_begin name -> Open (Span name)
  | Span_end name -> Close (( = ) (Span name))
  | Phase_begin p -> Open (Phase p)
  | Phase_end p -> Close (( = ) (Phase p))
  | Point Critical_enter -> Open Critical
  | Point Critical_exit -> Close (( = ) Critical)
  | Req_begin (kind, _) -> Open (Req kind)
  (* the end's class may legitimately differ from the begin's kind *)
  | Req_end _ -> Close (function Req _ -> true | _ -> false)
  | _ -> Neither

let chrome_event b ~first ~name ~ph ~ts ~tid ?args () =
  if not !first then Buffer.add_string b ",\n";
  first := false;
  Printf.bprintf b "{\"name\":\"%s\",\"ph\":\"%s\",\"ts\":%d,\"pid\":0,\"tid\":%d"
    (Report.escape name) ph ts tid;
  (match args with
  | None -> ()
  | Some a -> Printf.bprintf b ",\"args\":%s" a);
  (if ph = "i" then Buffer.add_string b ",\"s\":\"t\"");
  Buffer.add_string b "}"

let to_chrome (r : Journal.record) =
  let b = Buffer.create (96 * Array.length r.entries) in
  Buffer.add_string b "{\"traceEvents\":[\n";
  let first = ref true in
  let ev = chrome_event b ~first in
  let value v = Printf.sprintf "{\"value\":%d}" v in
  (* per-counter running totals *)
  let totals : (string, int) Hashtbl.t = Hashtbl.create 16 in
  Journal.walk r ~step
    ~close:(fun ~tid f ~start:_ ~stop ~self:_ ~crashed ->
      let args = if crashed then Some "{\"crashed\":true}" else None in
      ev ~name:(frame_name f) ~ph:"E" ~ts:stop ~tid ?args ())
    ~entry:(fun e ->
      let instant ?args name = ev ~name ~ph:"i" ~ts:e.at ~tid:e.tid ?args () in
      let opens f = ev ~name:(frame_name f) ~ph:"B" ~ts:e.at ~tid:e.tid in
      match e.kind with
      | Count (name, _, n) ->
          let t = n + Option.value ~default:0 (Hashtbl.find_opt totals name) in
          Hashtbl.replace totals name t;
          ev ~name ~ph:"C" ~ts:e.at ~tid:e.tid ~args:(value t) ()
      | Sample (name, v) -> instant ~args:(value v) name
      | Instant (i, arg) -> instant ?args:(Option.map value arg) (Journal.instant_name i)
      | Phase_elapsed (p, v) -> instant ~args:(value v) (Journal.phase_elapsed_name p)
      | Span_begin name -> opens (Span name) ()
      | Phase_begin p -> opens (Phase p) ()
      | Point Critical_enter -> opens Critical ()
      | Req_begin (kind, id) ->
          opens (Req kind) ~args:(Printf.sprintf "{\"trace\":%d}" id) ()
      | Point Critical_exit | Span_end _ | Phase_end _ | Req_end _ -> ()
      | Point p -> instant (Rt.Rt_intf.fault_point_name p));
  Buffer.add_string b "\n]}\n";
  Buffer.contents b

(* ------------------------------------------------------------------ *)

(** [write_file path r] writes the trace to [path]: JSONL when the name
    ends in [.jsonl], Chrome [trace_event] JSON otherwise. *)
let write_file path (r : Journal.record) =
  let data =
    if Filename.check_suffix path ".jsonl" then to_jsonl r else to_chrome r
  in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc data)
