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
  let common k = Printf.bprintf b "{\"t\":%d,\"tid\":%d,\"k\":\"%s\"" e.at e.tid k in
  (match e.kind with
  | Journal.Count (name, _, n) ->
      common "count";
      Printf.bprintf b ",\"name\":\"%s\",\"v\":%d" (Report.escape name) n
  | Journal.Sample (name, v) ->
      common "sample";
      Printf.bprintf b ",\"name\":\"%s\",\"v\":%d" (Report.escape name) v
  | Journal.Instant (name, arg) ->
      common "event";
      Printf.bprintf b ",\"name\":\"%s\"" (Report.escape name);
      (match arg with None -> () | Some v -> Printf.bprintf b ",\"v\":%d" v)
  | Journal.Span_begin name ->
      common "begin";
      Printf.bprintf b ",\"name\":\"%s\"" (Report.escape name)
  | Journal.Span_end name ->
      common "end";
      Printf.bprintf b ",\"name\":\"%s\"" (Report.escape name)
  | Journal.Point p ->
      common "point";
      Printf.bprintf b ",\"name\":\"%s\"" (Rt.Rt_intf.fault_point_name p)
  | Journal.Req_begin (kind, id) ->
      common "req-begin";
      Printf.bprintf b ",\"name\":\"%s\",\"trace\":%d" (Report.escape kind) id
  | Journal.Req_end (cls, id) ->
      common "req-end";
      Printf.bprintf b ",\"name\":\"%s\",\"trace\":%d" (Report.escape cls) id);
  Buffer.add_string b "}\n"

let to_jsonl (r : Journal.record) =
  let b = Buffer.create (64 * Array.length r.entries) in
  Array.iter (jsonl_entry b) r.entries;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Chrome trace_event JSON                                             *)

(* Critical sections are reconstructed as spans from the paired
   [Critical_enter]/[Critical_exit] checkpoints; [Probe.span_begin]/
   [span_end] map to "B"/"E" directly. A per-thread stack of open spans
   keeps the output well-formed: unmatched ends are dropped. A thread
   killed by a [crash] fault journals [Instant ("thread.crash", None)]
   at its death timestamp, and its open spans are closed right there
   with a [crashed:true] arg — the span visibly ends where the thread
   died, instead of being silently stretched to the end of the trace.
   Spans still open at EOF (the run simply ended) close at the final
   timestamp, as before. *)

let crit = "critical-section"

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
  (* Per-thread stacks of open span names; per-counter running totals. *)
  let open_spans : (int, string list) Hashtbl.t = Hashtbl.create 16 in
  let totals : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let last_ts = ref 0 in
  let span_open tid name ts =
    Hashtbl.replace open_spans tid
      (name :: Option.value ~default:[] (Hashtbl.find_opt open_spans tid));
    ev ~name ~ph:"B" ~ts ~tid ()
  in
  let span_close tid name ts =
    match Hashtbl.find_opt open_spans tid with
    | Some (top :: rest) when String.equal top name ->
        Hashtbl.replace open_spans tid rest;
        ev ~name ~ph:"E" ~ts ~tid ()
    | _ -> ()  (* unmatched end: drop *)
  in
  Array.iter
    (fun (e : Journal.entry) ->
      if e.at > !last_ts then last_ts := e.at;
      match e.kind with
      | Journal.Count (name, _, n) ->
          let t = n + Option.value ~default:0 (Hashtbl.find_opt totals name) in
          Hashtbl.replace totals name t;
          ev ~name ~ph:"C" ~ts:e.at ~tid:e.tid
            ~args:(Printf.sprintf "{\"value\":%d}" t)
            ()
      | Journal.Sample (name, v) ->
          ev ~name ~ph:"i" ~ts:e.at ~tid:e.tid
            ~args:(Printf.sprintf "{\"value\":%d}" v)
            ()
      | Journal.Instant (name, arg) ->
          if String.equal name "thread.crash" then begin
            (* close the dead thread's spans at its death timestamp *)
            (match Hashtbl.find_opt open_spans e.tid with
            | Some stack ->
                Hashtbl.remove open_spans e.tid;
                List.iter
                  (fun n ->
                    ev ~name:n ~ph:"E" ~ts:e.at ~tid:e.tid
                      ~args:"{\"crashed\":true}" ())
                  stack
            | None -> ());
            ev ~name ~ph:"i" ~ts:e.at ~tid:e.tid ()
          end
          else
            let args =
              Option.map (fun v -> Printf.sprintf "{\"value\":%d}" v) arg
            in
            ev ~name ~ph:"i" ~ts:e.at ~tid:e.tid ?args ()
      | Journal.Span_begin name -> span_open e.tid name e.at
      | Journal.Span_end name -> span_close e.tid name e.at
      | Journal.Point Rt.Rt_intf.Critical_enter -> span_open e.tid crit e.at
      | Journal.Point Rt.Rt_intf.Critical_exit -> span_close e.tid crit e.at
      | Journal.Point p ->
          ev ~name:(Rt.Rt_intf.fault_point_name p) ~ph:"i" ~ts:e.at ~tid:e.tid ()
      | Journal.Req_begin (kind, id) ->
          ev ~name:("req:" ^ kind) ~ph:"B" ~ts:e.at ~tid:e.tid
            ~args:(Printf.sprintf "{\"trace\":%d}" id)
            ();
          Hashtbl.replace open_spans e.tid
            (("req:" ^ kind)
            :: Option.value ~default:[] (Hashtbl.find_opt open_spans e.tid))
      | Journal.Req_end (_, _) -> (
          (* the span opened by [Req_begin] — named for the request kind,
             which the end's class may legitimately differ from *)
          match Hashtbl.find_opt open_spans e.tid with
          | Some (top :: rest)
            when String.length top > 4 && String.equal (String.sub top 0 4) "req:"
            ->
              Hashtbl.replace open_spans e.tid rest;
              ev ~name:top ~ph:"E" ~ts:e.at ~tid:e.tid ()
          | _ -> ()))
    r.entries;
  (* Close whatever is still open, deterministically (ascending tid). *)
  Hashtbl.fold (fun tid stack acc -> (tid, stack) :: acc) open_spans []
  |> List.sort compare
  |> List.iter (fun (tid, stack) ->
         List.iter (fun name -> ev ~name ~ph:"E" ~ts:!last_ts ~tid ()) stack);
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
