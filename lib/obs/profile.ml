(** Profiles computed from a {!Journal.record}: hot-line contention
    tables (coherence transfers, failed CAS and owner bounces attributed
    to the allocating structure/field) and restart-rate / throughput
    time series sliced per thread. *)

(** Per-site aggregate over every cache line the site allocated. *)
type hotline = {
  hl_site : string;  (** allocation site, or ["(unattributed)"] *)
  hl_lines : int;  (** distinct cache lines with recorded activity *)
  hl_transfers : int;
  hl_cas_fails : int;
  hl_bounces : int;
  hl_stalls : int;
}

(** One bucket of the run's time axis. *)
type window = { w_t0 : int; w_t1 : int; w_ops : int; w_restarts : int }

type thread_total = { tt_tid : int; tt_ops : int; tt_restarts : int }

type summary = {
  s_events : int;  (** journal entries recorded *)
  s_hotlines : hotline list;  (** by transfers (desc), then failed CAS *)
  s_windows : window list;  (** whole-run series, {!n_windows} buckets *)
  s_threads : thread_total list;  (** per-thread ops/restarts, asc tid *)
  s_record : Journal.record;  (** the raw journal, for trace export *)
}

let n_windows = 16

let unattributed = "(unattributed)"

let hotlines (r : Journal.record) =
  let by_site : (string, hotline) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (ls : Journal.line_stat) ->
      let site = Option.value ~default:unattributed ls.ls_site in
      let h =
        match Hashtbl.find_opt by_site site with
        | Some h -> h
        | None ->
            {
              hl_site = site;
              hl_lines = 0;
              hl_transfers = 0;
              hl_cas_fails = 0;
              hl_bounces = 0;
              hl_stalls = 0;
            }
      in
      Hashtbl.replace by_site site
        {
          h with
          hl_lines = h.hl_lines + 1;
          hl_transfers = h.hl_transfers + ls.ls_transfers;
          hl_cas_fails = h.hl_cas_fails + ls.ls_cas_fails;
          hl_bounces = h.hl_bounces + ls.ls_bounces;
          hl_stalls = h.hl_stalls + ls.ls_stalls;
        })
    r.lines;
  Hashtbl.fold (fun _ h acc -> h :: acc) by_site []
  |> List.sort (fun a b ->
         match compare b.hl_transfers a.hl_transfers with
         | 0 -> (
             match compare b.hl_cas_fails a.hl_cas_fails with
             | 0 -> compare a.hl_site b.hl_site
             | c -> c)
         | c -> c)

(* Series are computed from the journal's [Op_boundary] and [Restart]
   checkpoints; [keep] selects the slice (whole run or one thread). *)
let windows_of (r : Journal.record) keep =
  let win = Journal.windows ~n:n_windows r in
  let ops = Array.make n_windows 0 in
  let restarts = Array.make n_windows 0 in
  Array.iter
    (fun (e : Journal.entry) ->
      if keep e.tid then
        let w = Journal.window_index win e.at in
        match e.kind with
        | Journal.Point Rt.Rt_intf.Op_boundary -> ops.(w) <- ops.(w) + 1
        | Journal.Point Rt.Rt_intf.Restart -> restarts.(w) <- restarts.(w) + 1
        | _ -> ())
    r.entries;
  List.init n_windows (fun i ->
      {
        w_t0 = i * win.Journal.width;
        w_t1 = min win.Journal.horizon ((i + 1) * win.Journal.width);
        w_ops = ops.(i);
        w_restarts = restarts.(i);
      })

let thread_windows r ~tid = windows_of r (fun t -> t = tid)

let thread_totals (r : Journal.record) =
  let tbl : (int, int * int) Hashtbl.t = Hashtbl.create 16 in
  Array.iter
    (fun (e : Journal.entry) ->
      let o, rs = Option.value ~default:(0, 0) (Hashtbl.find_opt tbl e.tid) in
      match e.kind with
      | Journal.Point Rt.Rt_intf.Op_boundary -> Hashtbl.replace tbl e.tid (o + 1, rs)
      | Journal.Point Rt.Rt_intf.Restart -> Hashtbl.replace tbl e.tid (o, rs + 1)
      | _ -> ())
    r.entries;
  Hashtbl.fold (fun tid (o, rs) acc -> { tt_tid = tid; tt_ops = o; tt_restarts = rs } :: acc) tbl []
  |> List.sort (fun a b -> compare a.tt_tid b.tt_tid)

let summarize (r : Journal.record) =
  {
    s_events = Array.length r.entries;
    s_hotlines = hotlines r;
    s_windows = windows_of r (fun _ -> true);
    s_threads = thread_totals r;
    s_record = r;
  }

(* ------------------------------------------------------------------ *)
(* Pretty-printing (the [optik_bench --profile] report)                *)

let pp_hotlines ppf s =
  Format.fprintf ppf "hot lines (by coherence transfers):@\n";
  Format.fprintf ppf "  %-28s %6s %9s %9s %8s %7s@\n" "site" "lines"
    "transfers" "failed-CAS" "bounces" "stalls";
  List.iter
    (fun h ->
      Format.fprintf ppf "  %-28s %6d %9d %9d %8d %7d@\n" h.hl_site h.hl_lines
        h.hl_transfers h.hl_cas_fails h.hl_bounces h.hl_stalls)
    s.s_hotlines

let pp_series ppf s =
  Format.fprintf ppf "time series (%d windows): ops | restarts@\n" n_windows;
  List.iter
    (fun w ->
      Format.fprintf ppf "  [%9d..%9d) %6d | %6d@\n" w.w_t0 w.w_t1 w.w_ops
        w.w_restarts)
    s.s_windows

let pp_threads ppf s =
  Format.fprintf ppf "per-thread totals:@\n";
  List.iter
    (fun t ->
      Format.fprintf ppf "  t%-3d ops=%-8d restarts=%d@\n" t.tt_tid t.tt_ops
        t.tt_restarts)
    s.s_threads

let pp ppf s =
  Format.fprintf ppf "journal: %d events@\n" s.s_events;
  pp_hotlines ppf s;
  pp_series ppf s;
  pp_threads ppf s
