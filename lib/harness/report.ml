(** Measurement → run-report JSON.

    {!Obs.Report} owns the JSON representation, schema and diff;
    this module owns the rendering of a harness {!Runner.measurement}
    into one run entry of that schema, because only the harness layer
    knows the measurement record. Everything emitted here is
    deterministic for a given seed: host wall-clock ([host_s]) is
    deliberately {e excluded} so seeded report files are byte-identical
    across machines and can be pinned byte for byte. *)

module J = Obs.Report

let outcome_string (m : Runner.measurement) =
  match m.outcome with
  | Runner.Complete -> "complete"
  | Runner.Aborted r ->
      Format.asprintf "aborted: %a" Sim.Sched.pp_verdict r.Sim.Sched.r_verdict

(* Latency summaries as an object keyed by class name, empty classes
   omitted: the diff's numeric-leaf flattener then yields stable
   [latency.<class>.<pct>] paths with no array special-casing. *)
let latency_json (m : Runner.measurement) =
  let n = min (Array.length m.lat) (Array.length m.lat_classes) in
  let entries = ref [] in
  for c = n - 1 downto 0 do
    let s = m.lat.(c) in
    if s.Pstats.n > 0 then
      entries :=
        ( m.lat_classes.(c),
          J.Obj
            [
              ("n", J.Int s.Pstats.n);
              ("p05", J.Int s.Pstats.p05);
              ("p25", J.Int s.Pstats.p25);
              ("p50", J.Int s.Pstats.p50);
              ("p75", J.Int s.Pstats.p75);
              ("p95", J.Int s.Pstats.p95);
              ("p99", J.Int s.Pstats.p99);
              ("p999", J.Int s.Pstats.p999);
              ("mean", J.Float s.Pstats.mean);
            ] )
        :: !entries
  done;
  J.Obj !entries

(* Hot-line profile (when the run recorded the journal), keyed by site so
   the diff can attribute stall deltas to allocation sites. The profile
   already has one row per site; [lines] is its count of distinct cache
   lines. *)
let hotlines_json (m : Runner.measurement) =
  match m.obs with
  | None -> []
  | Some s ->
      let sites =
        List.map
          (fun (h : Obs.Profile.hotline) ->
            ( h.hl_site,
              J.Obj
                [
                  ("lines", J.Int h.hl_lines);
                  ("transfers", J.Int h.hl_transfers);
                  ("cas_fails", J.Int h.hl_cas_fails);
                  ("bounces", J.Int h.hl_bounces);
                  ("stalls", J.Int h.hl_stalls);
                ] ))
          s.Obs.Profile.s_hotlines
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      in
      if sites = [] then [] else [ ("hotlines", J.Obj sites) ]

(** One run entry of the report schema. [id] defaults to the structure
    name; callers comparing many runs in one report give each a unique,
    reproducible id ([r003:f5/ll-optik@t8] …). *)
let run_entry ?id (m : Runner.measurement) : J.json =
  let id = Option.value ~default:m.name id in
  J.Obj
    ([
       ("id", J.Str id);
       ("name", J.Str m.name);
       ("topology", J.Str m.topo_name);
       ("threads", J.Int m.threads);
       ("run_seed", J.Int m.seed);
       ("outcome", J.Str (outcome_string m));
       ("final_size", J.Int m.final_size);
       ("valid", J.Bool m.valid);
       ( "metrics",
         J.Obj
           [
             ("ops", J.Int m.ops);
             ("mops", J.Float m.mops);
             ("wall_s", J.Float m.wall_s);
             ("eff_update_pct", J.Float m.eff_update_pct);
             ("reads", J.Int m.reads);
             ("writes", J.Int m.writes);
             ("cas", J.Int m.cas);
             ("cas_failed", J.Int m.cas_failed);
             ("faa", J.Int m.faa);
             ("events", J.Int m.events);
           ] );
       ( "wasted",
         J.wasted ~ops:m.ops ~cas_failed:m.cas_failed
           ~counters:
             (List.map
                (fun (k, v) -> (k, Sim.Sim_rt.Probe.kind k, v))
                m.counters) );
       ("latency", latency_json m);
       ( "counters",
         J.Obj (List.map (fun (k, v) -> (k, J.Int v)) m.counters) );
     ]
    @ hotlines_json m)

(** Assemble a full report from labelled measurements. [sections] carries
    subcommand-specific extras (the KV service attaches its oracle verdict
    and failover timeline there). *)
let make ~subcommand ~seed ~params ?(sections = [])
    (runs : (string * Runner.measurement) list) : J.json =
  J.make ~subcommand ~seed ~params
    ~runs:(List.map (fun (id, m) -> run_entry ~id m) runs)
    ~sections

(* ------------------------------------------------------------------ *)
(* Trace-analysis sections: latency attribution and timelines          *)

let pstats_json (s : Pstats.summary) : (string * J.json) list =
  [
    ("n", J.Int s.Pstats.n);
    ("p50", J.Int s.Pstats.p50);
    ("p95", J.Int s.Pstats.p95);
    ("p99", J.Int s.Pstats.p99);
    ("p999", J.Int s.Pstats.p999);
    ("mean", J.Float s.Pstats.mean);
  ]

let share ~part ~whole =
  if whole = 0 then 0. else 100. *. float_of_int part /. float_of_int whole

(** The latency-attribution section of a run report: per-phase totals and
    percentiles over the traced requests, a per-outcome split of request
    totals, and a "why is p99 slow" tail breakdown — the phase shares of
    just the requests at or beyond the all-request p99. Deterministic for
    a seed, so two reports' sections diff leaf-by-leaf. *)
let attrib_section (a : Obs.Attrib.t) : string * J.json =
  let reqs = a.Obs.Attrib.reqs in
  let phase_cycles (r : Obs.Attrib.areq) p =
    Option.value ~default:0 (List.assoc_opt p r.Obs.Attrib.a_phases)
  in
  let grand =
    List.fold_left (fun s (r : Obs.Attrib.areq) -> s + r.Obs.Attrib.a_total) 0 reqs
  in
  let phase_json p =
    let ps = Pstats.create () in
    let total = ref 0 in
    List.iter
      (fun r ->
        let c = phase_cycles r p in
        if c > 0 then begin
          Pstats.record ps c;
          total := !total + c
        end)
      reqs;
    ( p,
      J.Obj
        (("total", J.Int !total)
        :: ("share_pct", J.Float (share ~part:!total ~whole:grand))
        :: pstats_json (Pstats.summarize [ ps ])) )
  in
  let outcome_json o =
    let ps = Pstats.create () in
    List.iter
      (fun (r : Obs.Attrib.areq) ->
        if String.equal r.Obs.Attrib.a_outcome o then
          Pstats.record ps r.Obs.Attrib.a_total)
      reqs;
    if Pstats.count ps = 0 then None
    else Some (o, J.Obj (pstats_json (Pstats.summarize [ ps ])))
  in
  let all = Pstats.create () in
  List.iter (fun (r : Obs.Attrib.areq) -> Pstats.record all r.Obs.Attrib.a_total) reqs;
  let all_s = Pstats.summarize [ all ] in
  (* The tail section answers "where do the slowest requests spend their
     time": phase shares over just the requests at/beyond the p99. *)
  let tail = List.filter (fun (r : Obs.Attrib.areq) -> r.Obs.Attrib.a_total >= all_s.Pstats.p99) reqs in
  let tail_cycles =
    List.fold_left (fun s (r : Obs.Attrib.areq) -> s + r.Obs.Attrib.a_total) 0 tail
  in
  let tail_phase p =
    let c = List.fold_left (fun s r -> s + phase_cycles r p) 0 tail in
    if c = 0 then None
    else
      Some
        ( p,
          J.Obj
            [
              ("total", J.Int c);
              ("share_pct", J.Float (share ~part:c ~whole:tail_cycles));
            ] )
  in
  let tail_outcomes =
    List.filter_map
      (fun o ->
        let n =
          List.length
            (List.filter
               (fun (r : Obs.Attrib.areq) -> String.equal r.Obs.Attrib.a_outcome o)
               tail)
        in
        if n = 0 then None else Some (o, J.Int n))
      Obs.Tracectx.outcomes
  in
  ( "attrib",
    J.Obj
      [
        ("requests", J.Int (List.length reqs));
        ("dropped", J.Int a.Obs.Attrib.dropped);
        ("total", J.Obj (pstats_json all_s));
        ("phases", J.Obj (List.map phase_json ("other" :: a.Obs.Attrib.phases |> List.sort_uniq String.compare)));
        ( "outcomes",
          J.Obj (List.filter_map outcome_json Obs.Tracectx.outcomes) );
        ( "tail",
          J.Obj
            ([
               ("threshold_p99", J.Int all_s.Pstats.p99);
               ("requests", J.Int (List.length tail));
               ("cycles", J.Int tail_cycles);
               ("outcomes", J.Obj tail_outcomes);
             ]
            @ [
                ( "phases",
                  J.Obj
                    (List.filter_map tail_phase
                       ("other" :: a.Obs.Attrib.phases
                       |> List.sort_uniq String.compare)) );
              ]) );
      ] )

(** The virtual-time timeline section: one object per window ("w00" …)
    holding the window's event counts and per-phase occupancy, plus the
    grid geometry. Objects, not arrays, so the report diff's numeric-leaf
    flattener yields stable [timeline.w07.retries] paths. *)
let timeline_section (tl : Obs.Attrib.timeline) : string * J.json =
  let open Obs.Attrib in
  let window w =
    let occ =
      List.filter_map
        (fun (p, vs) -> if vs.(w) = 0 then None else Some (p, J.Int vs.(w)))
        tl.tl_occ
    in
    ( Printf.sprintf "w%02d" w,
      J.Obj
        ([
           ("reqs", J.Int tl.tl_reqs.(w));
           ("retries", J.Int tl.tl_retries.(w));
           ("aborts", J.Int tl.tl_aborts.(w));
           ("timeouts", J.Int tl.tl_timeouts.(w));
           ("sheds", J.Int tl.tl_sheds.(w));
           ("failovers", J.Int tl.tl_failovers.(w));
           ("crashes", J.Int tl.tl_crashes.(w));
           ("storms", J.Int tl.tl_storms.(w));
         ]
        @ if occ = [] then [] else [ ("occ", J.Obj occ) ]) )
  in
  ( "timeline",
    J.Obj
      ([
         ("horizon", J.Int tl.tl_horizon);
         ("nwindows", J.Int tl.tl_nwindows);
         ("width", J.Int tl.tl_width);
       ]
      @ List.init tl.tl_nwindows window) )

(** Validate and write a report; a schema violation here is a bug in the
    emitter, so it fails loudly rather than writing a bad file. *)
let write path (j : J.json) =
  (match J.validate j with
  | Ok () -> ()
  | Error e -> invalid_arg ("Report.write: emitted invalid report: " ^ e));
  J.write_file path j
