(** Regeneration of every figure in the paper's evaluation (§3.2, §4.1,
    §5.1–§5.5), on the simulated Xeon and Opteron. Each [figN] function
    runs the corresponding experiment and returns renderable figures plus
    direction-checks against the paper's claims.

    The experiment index (id → workload → modules) lives in DESIGN.md;
    paper-vs-measured notes belong in EXPERIMENTS.md. *)

module Runner = Harness.Runner
module R = Harness.Registry.Sim_backend
module Sched = Sim.Sched
module Topology = Sim.Topology

(* The sets of [family]'s figure lineup ({!Harness.Registry.ForRt.lineup}). *)
let sets family = List.map Harness.Registry.set_ops (R.lineup family)

let xeon = Topology.xeon
let opteron = Topology.opteron

type mode = {
  threads_of : Topology.t -> int list;
  ops_scale : float;  (** multiplier on per-point op budgets *)
  seed : int;
      (** workload seed threaded into every runner call, except that
          fig5, stack and ablation-victim run fixed seeds *)
}

let quick =
  {
    threads_of =
      (fun topo ->
        if Topology.n_contexts topo >= 48 then [ 1; 4; 10; 20; 32; 48; 56 ]
        else [ 1; 4; 10; 20; 30; 40; 56 ]);
    ops_scale = 1.;
    seed = 42;
  }

let full =
  {
    threads_of =
      (fun topo ->
        if Topology.n_contexts topo >= 48 then
          [ 1; 2; 4; 6; 8; 12; 16; 20; 24; 32; 40; 48; 56; 64 ]
        else [ 1; 2; 4; 6; 8; 10; 14; 18; 22; 26; 32; 36; 40; 48; 56; 64 ]);
    ops_scale = 2.;
    seed = 42;
  }

let scaled mode ops = int_of_float (float_of_int ops *. mode.ops_scale)

(* ------------------------------------------------------------------ *)
(* Measurement sink

   Figures print rendered tables, not raw measurements; run reports
   need the measurements themselves. Every experiment deposits each
   measurement here as it is produced, labelled with a short
   description; [drain_measurements] hands them to the report emitter,
   numbered in production order so the same command line always yields
   the same run ids (required for diffing two seeds). *)

let sink_key : (string * Runner.measurement) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let emit desc (m : Runner.measurement) =
  let sink = Domain.DLS.get sink_key in
  sink := (desc, m) :: !sink;
  m

let drain_measurements () =
  let sink = Domain.DLS.get sink_key in
  let ms = List.rev !sink in
  sink := [];
  List.mapi (fun i (d, m) -> (Printf.sprintf "r%03d:%s" i d, m)) ms

(* ------------------------------------------------------------------ *)
(* Generic sweeps                                                      *)

(* One curve: [run n] measured at each thread count, each measurement
   deposited as "<prefix>/<label>@t<n>". *)
let series ~prefix label threads run =
  {
    Render.label;
    points =
      List.map
        (fun n -> (n, emit (Printf.sprintf "%s/%s@t%d" prefix label n) (run n)))
        threads;
  }

let set_series mode ?threads ~topology ~ops ~workload
    (module S : Harness.Registry.SET_OPS) =
  let threads = Option.value threads ~default:(mode.threads_of topology) in
  series ~prefix:topology.Topology.name S.name threads (fun n ->
      Runner.run_set_sim ~topology ~nthreads:n ~ops:(scaled mode ops)
        ~seed:mode.seed
        (module S)
        workload)

let queue_series mode ?threads ~topology ~ops ~enqueue_pct
    ((module Q : Harness.Registry.POOL_OPS) as q) =
  let threads =
    Option.value threads
      ~default:(List.filter (fun n -> n >= 2) (mode.threads_of topology))
  in
  series ~prefix:topology.Topology.name Q.name threads (fun n ->
      Runner.run_pool_sim ~topology ~nthreads:n ~ops:(scaled mode ops)
        ~seed:mode.seed ~add_pct:enqueue_pct q)

let figure ?latency ?(notes = []) id title series =
  let latency_at, latency_classes =
    match latency with
    | None -> (None, [||])
    | Some (at, classes, ls) -> (Some (at, ls), classes)
  in
  { Render.id; title; series; latency_at; latency_classes; notes }

(* The paper's figure grids: one figure per (workload case, machine), on
   the Xeon then the Opteron, each cell from a pristine world. *)
let grid ~fig ~what ?(notes = fun _ -> []) cases curves =
  List.concat_map
    (fun (wname, case) ->
      List.map
        (fun topo ->
          Harness.World.reset ();
          let series = curves topo case in
          figure ("F" ^ fig)
            (Printf.sprintf "Figure %s: %s — %s — %s" fig what wname
               topo.Topology.name)
            ~notes:(notes series) series)
        [ xeon; opteron ])
    cases

(* Claims helpers: average throughput ratio of two labelled series over
   thread counts satisfying [keep]. *)
let find_series (figs : Render.series list) label =
  List.find (fun s -> String.equal s.Render.label label) figs

let avg_ratio ?(keep = fun _ -> true) (a : Render.series) (b : Render.series)
    =
  let pairs =
    List.filter_map
      (fun (t, ma) ->
        if keep t then
          match List.assoc_opt t b.Render.points with
          | Some mb when mb.Runner.mops > 0. ->
              Some (ma.Runner.mops /. mb.Runner.mops)
          | _ -> None
        else None)
      a.Render.points
  in
  match pairs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0. pairs /. float_of_int (List.length pairs)

(* [ratio series a b]: {!avg_ratio} of the curves labelled [a] and [b]. *)
let ratio ?keep series a b =
  avg_ratio ?keep (find_series series a) (find_series series b)

let claim claim_id description ~expected ~measured holds =
  { Render.claim_id; description; expected; measured; holds }

(* The Xeon figure whose title contains [frag]. *)
let fig_by_title figs frag =
  let has sub f = Obs.Report.contains ~sub f.Render.title in
  List.find (fun f -> has frag f && has "xeon" f) figs

(* ------------------------------------------------------------------ *)
(* Figure 5: locking+validation with and without OPTIK locks           *)

type f5_impl = Ttas_version | Optik_versioned | Optik_ticket

let f5_name = function
  | Ttas_version -> "ttas"
  | Optik_versioned -> "optik-versioned"
  | Optik_ticket -> "optik-ticket"

module F5_ttas = Locks.Ttas (Sim.Sim_rt)
module F5_ov = Optik.Versioned (Sim.Sim_rt)
module F5_ot = Optik.Ticket (Sim.Sim_rt)
module F5_backoff = Rt.Backoff.Make (Sim.Sim_rt)

let fig5_point impl ~topology ~nthreads ~ops =
  (* One validation attempt: read the version, work, then lock and
     check it still holds. *)
  let validate =
    match impl with
    | Ttas_version ->
        (* lock-then-validate: 4-byte TTAS + 4-byte version, validated
           and incremented while holding the lock. *)
        (* TTAS flag and version share a cache line (8 bytes in the
           paper's C implementation). Locks.Ttas.t is transparently a
           bool atomic, so the flag anchors the line directly. *)
        let l : F5_ttas.t = Sim.Sched.loc false in
        let version = Sim.Sched.loc_with l 0 in
        fun () ->
          let v = Sched.read version in
          Sched.work 30;
          F5_ttas.lock l;
          let ok = Sched.read version = v in
          if ok then (
            Sched.work 10;
            Sched.write version (v + 1));
          F5_ttas.unlock l;
          ok
    | Optik_versioned ->
        let l = F5_ov.create () in
        fun () ->
          let v = F5_ov.get_version l in
          Sched.work 30;
          F5_ov.trylock_version l v
          && (Sched.work 10;
              F5_ov.unlock l;
              true)
    | Optik_ticket ->
        let l = F5_ot.create () in
        fun () ->
          let v = F5_ot.get_version l in
          Sched.work 30;
          F5_ot.trylock_version l v
          && (Sched.work 10;
              F5_ot.unlock l;
              true)
  in
  (* Every completed validation is one op. The OPTIK variants count
     their failed trylocks, which the run report's wasted-work section
     picks up. *)
  Runner.simulate ~name:(f5_name impl) ~topology ~nthreads ~ops ~seed:0
    ~classes:Runner.class_names (fun _ _ ->
      let b = F5_backoff.create () in
      while not (Sched.stop_requested ()) do
        while not (validate ()) do
          F5_backoff.once b
        done;
        Sched.tick ()
      done)

let fig5 mode =
  let ops = scaled mode 40_000 in
  let series =
    List.map
      (fun impl ->
        series ~prefix:"f5" (f5_name impl) (mode.threads_of xeon) (fun n ->
            fig5_point impl ~topology:xeon ~nthreads:n ~ops))
      [ Ttas_version; Optik_ticket; Optik_versioned ]
  in
  let cas_note =
    (* the right panel of Figure 5: CAS per successful validation *)
    String.concat "  "
      ("CAS/validation:"
      :: List.map
           (fun s ->
             let last = List.rev s.Render.points in
             match last with
             | (t, m) :: _ ->
                 Printf.sprintf "%s@%dthr=%.1f" s.Render.label t
                   (float_of_int m.Runner.cas /. float_of_int (max 1 m.Runner.ops))
             | [] -> "")
           series)
  in
  let fig =
    figure "F5" "Figure 5: lock+validate throughput (Mops/s), single lock, Xeon"
      ~notes:[ cas_note ] series
  in
  let hi t = t >= 10 in
  let r_ov = ratio ~keep:hi series "optik-versioned" "ttas" in
  let r_backends = ratio ~keep:hi series "optik-versioned" "optik-ticket" in
  let claims =
    [
      claim "F5.a" "OPTIK locks much faster than TTAS lock-then-validate"
        ~expected:">10x on average (paper, Xeon)"
        ~measured:(Printf.sprintf "optik-versioned/ttas = %.1fx (>=10 thr)" r_ov)
        (r_ov > 2.);
      claim "F5.b" "both OPTIK implementations behave almost identically"
        ~expected:
          "identical curves (C releases the ticket lock with a plain store            to its own half-word; our packed-int ticket word needs an atomic            RMW release, a documented substitution cost)"
        ~measured:(Printf.sprintf "versioned/ticket = %.2fx" r_backends)
        (r_backends > 0.6 && r_backends < 2.0);
    ]
  in
  ([ fig ], claims)

(* ------------------------------------------------------------------ *)
(* Figure 7: array maps                                                *)

let map_workload capacity =
  {
    Runner.init_size = capacity;
    range = 2 * capacity;
    update_pct = 20;
    dist = Runner.Uniform;
    capacity = Some capacity;
  }

let fig7 mode =
  let mk title capacity ops =
    let w = map_workload capacity in
    let series =
      List.map (set_series mode ~topology:xeon ~ops ~workload:w) (sets "map")
    in
    let lat_series =
      List.map
        (set_series mode ~threads:[ 10 ] ~topology:xeon ~ops ~workload:w)
        (sets "map")
    in
    ( figure "F7" title ~latency:(10, Runner.class_names, lat_series) series,
      series )
  in
  let fig_small, small =
    mk "Figure 7: small map (4 slots, ~10% eff updates), xeon" 4 40_000
  in
  let fig_large, large =
    mk "Figure 7: large map (1024 slots, ~10% eff updates), xeon" 1024 15_000
  in
  let not_mp t = t <= 40 in
  let r_small = ratio ~keep:not_mp small "optik" "mcs" in
  let r_large = ratio ~keep:not_mp large "optik" "mcs" in
  let claims =
    [
      claim "F7.a" "optik map beats the MCS map on the small map"
        ~expected:"4.7x average (paper, excl. multiprogramming)"
        ~measured:(Printf.sprintf "%.1fx" r_small)
        (r_small > 1.5);
      claim "F7.b" "optik map beats the MCS map on the large map"
        ~expected:"1.4x average"
        ~measured:(Printf.sprintf "%.1fx" r_large)
        (r_large > 1.05);
    ]
  in
  ([ fig_small; fig_large ], claims)

(* Figures 9-11: one set family over workload cases, [(name, (workload,
   ops))]. *)
let set_grid mode ~fig ~what ?notes structures cases =
  grid ~fig ~what ?notes cases (fun topo (w, ops) ->
      List.map (set_series mode ~topology:topo ~ops ~workload:w) structures)

(* ------------------------------------------------------------------ *)
(* Figure 9: linked lists                                              *)

let fig9 mode =
  let uniform init_size = Runner.uniform_workload ~init_size ~update_pct:40 () in
  let skewed init_size = Runner.skewed_workload ~init_size ~update_pct:40 () in
  let figs =
    set_grid mode ~fig:"9" ~what:"linked lists" (sets "list")
      [
        ("large (8192, 20% upd)", (uniform 8192, 2_000));
        ("medium (1024, 20% upd)", (uniform 1024, 10_000));
        ("small (64, 20% upd)", (uniform 64, 25_000));
        ("large skewed (8192, zipf .9)", (skewed 8192, 2_000));
        ("small skewed (64, zipf .9)", (skewed 64, 25_000));
      ]
  in
  (* claims on the xeon figures *)
  let small = (fig_by_title figs "small (64").Render.series in
  let large = (fig_by_title figs "large (8192").Render.series in
  let hi t = t >= 10 && t <= 40 in
  let r_small_optik_lazy = ratio ~keep:hi small "optik" "lazy" in
  let r_cache_large = ratio ~keep:hi large "optik-cache" "optik" in
  let r_gl = ratio ~keep:hi small "optik-gl" "mcs-gl-opt" in
  let r_harris = ratio ~keep:hi small "optik" "harris" in
  let claims =
    [
      claim "F9.a" "fine-grained optik list beats lazy under contention (64 keys)"
        ~expected:"~22% faster on average (paper)"
        ~measured:(Printf.sprintf "%.2fx" r_small_optik_lazy)
        (r_small_optik_lazy > 1.0);
      claim "F9.b" "node caching speeds up the large list"
        ~expected:"~50% higher average throughput (paper)"
        ~measured:(Printf.sprintf "%.2fx" r_cache_large)
        (r_cache_large > 1.15);
      claim "F9.c" "optik-gl beats mcs-gl-opt everywhere"
        ~expected:"higher throughput in all workloads"
        ~measured:(Printf.sprintf "%.2fx on small" r_gl)
        (r_gl > 1.0);
      claim "F9.d" "optik close to the lock-free harris list"
        ~expected:"within ~5% on small lists"
        ~measured:(Printf.sprintf "%.2fx" r_harris)
        (r_harris > 0.75);
    ]
  in
  (figs, claims)

(* ------------------------------------------------------------------ *)
(* Figure 10: hash tables                                              *)

let fig10 mode =
  (* one bucket per initial element *)
  let table ~skewed size =
    (if skewed then Runner.skewed_workload else Runner.uniform_workload)
      ~capacity:size ~init_size:size ~update_pct:40 ()
  in
  let figs =
    set_grid mode ~fig:"10" ~what:"hash tables" (sets "hashtable")
      [
        ("medium (8192 elems, 1 per bucket)", (table ~skewed:false 8192, 25_000));
        ("small skewed (512, zipf .9)", (table ~skewed:true 512, 25_000));
      ]
  in
  let skewed = (fig_by_title figs "small skewed").Render.series in
  let medium = (fig_by_title figs "medium").Render.series in
  let hi t = t >= 10 && t <= 40 in
  let r_gl = ratio ~keep:hi skewed "optik-gl" "lazy-gl" in
  let r_java = ratio ~keep:hi skewed "java-optik" "java" in
  let r_optik_gl_med = ratio ~keep:hi medium "optik-gl" "lazy-gl" in
  let claims =
    [
      claim "F10.a" "optik-gl far ahead of lazy-gl on the skewed table"
        ~expected:"3.7x average (paper)"
        ~measured:(Printf.sprintf "%.1fx" r_gl)
        (r_gl > 1.3);
      claim "F10.b" "OPTIK helps ConcurrentHashMap mainly under contention"
        ~expected:"java-optik > java when contended"
        ~measured:(Printf.sprintf "%.2fx on skewed" r_java)
        (r_java > 1.0);
      claim "F10.c" "optik-gl also ahead on the uncontended medium table"
        ~expected:"~31% faster (paper, non-skewed)"
        ~measured:(Printf.sprintf "%.2fx" r_optik_gl_med)
        (r_optik_gl_med > 1.0);
    ]
  in
  (figs, claims)

(* ------------------------------------------------------------------ *)
(* Figure 11: skip lists                                               *)

(* restart-rate note (§5.3 reports 30% for herlihy vs 24% for herl-optik
   on 20 Xeon threads): restarts per op at the highest in-budget thread
   count, counted as the report's restart taxonomy counts them *)
let restart_note series =
  [
    String.concat "  "
      ("restarts/op:"
      :: List.filter_map
           (fun s ->
             match List.rev s.Render.points with
             | (t, m) :: _ ->
                 let restarts =
                   List.fold_left
                     (fun acc (k, v) ->
                       if Obs.Report.restart_class (Sim.Sim_rt.Probe.kind k)
                       then acc + v
                       else acc)
                     0 m.Runner.counters
                 in
                 Some
                   (Printf.sprintf "%s@%d=%.2f" s.Render.label t
                      (float_of_int restarts /. float_of_int (max 1 m.Runner.ops)))
             | [] -> None)
           series);
  ]

let fig11 mode =
  let skewed init_size = Runner.skewed_workload ~init_size ~update_pct:40 () in
  let figs =
    set_grid mode ~fig:"11" ~what:"skip lists" ~notes:restart_note
      (sets "skiplist")
      [
        ("large skewed (65536, zipf .9)", (skewed 65_536, 15_000));
        ("small skewed (1024, zipf .9)", (skewed 1_024, 20_000));
      ]
  in
  let small = (fig_by_title figs "small skewed").Render.series in
  let hi t = t >= 10 && t <= 40 in
  let r_herl = ratio ~keep:hi small "herl-optik" "herlihy" in
  let r_optik2 = ratio ~keep:hi small "optik2" "fraser" in
  let r_variants = ratio ~keep:hi small "optik2" "optik1" in
  let claims =
    [
      claim "F11.a" "OPTIK validation helps the Herlihy skip list on Xeon"
        ~expected:"herl-optik >= herlihy (fewer restarts)"
        ~measured:(Printf.sprintf "%.2fx" r_herl)
        (r_herl > 0.95);
      claim "F11.b" "the new OPTIK skip list competes with lock-free fraser"
        ~expected:"optik2 ~10% faster at 20 threads (paper)"
        ~measured:(Printf.sprintf "%.2fx" r_optik2)
        (r_optik2 > 0.8);
      claim "F11.c" "immediate restart beats fine-grained fallback when skewed"
        ~expected:"optik2 more scalable than optik1"
        ~measured:(Printf.sprintf "%.2fx" r_variants)
        (r_variants > 0.95);
    ]
  in
  (figs, claims)

(* ------------------------------------------------------------------ *)
(* Figure 12: queues                                                   *)

let fig12 mode =
  let queues = List.map Harness.Registry.pool_ops (R.lineup "queue") in
  let figs =
    grid ~fig:"12" ~what:"queues"
      [
        ("decreasing size (40% enq)", 40);
        ("stable size (50% enq)", 50);
        ("increasing size (60% enq)", 60);
      ]
      (fun topo enqueue_pct ->
        List.map (queue_series mode ~topology:topo ~ops:20_000 ~enqueue_pct) queues)
  in
  (* latency panel: stable size at 10 threads (both machines) *)
  let lat_fig =
    figure "F12" "Figure 12 (bottom): queue latency, stable size, 10 threads, Xeon"
      ~latency:
        ( 10,
          Runner.queue_class_names,
          List.map
            (queue_series mode ~threads:[ 10 ] ~topology:xeon ~ops:20_000
               ~enqueue_pct:50)
            queues )
      []
  in
  let stable = (fig_by_title figs "stable").Render.series in
  let incr_ = (fig_by_title figs "increasing").Render.series in
  let mid t = t >= 8 && t <= 40 in
  let low t = t <= 6 in
  let mp t = t > 40 in
  let r_o2 = ratio ~keep:mid stable "optik2" "ms-lf" in
  let r_o3 = ratio ~keep:mid incr_ "optik3" "ms-lf" in
  let r_lb_low = ratio ~keep:low stable "ms-lb" "ms-lf" in
  let mslb = find_series stable "ms-lb" in
  let peak = List.fold_left (fun a (_, m) -> Float.max a m.Runner.mops) 0. mslb.Render.points in
  let mp_avg =
    let pts = List.filter (fun (t, _) -> mp t) mslb.Render.points in
    match pts with
    | [] -> nan
    | _ ->
        List.fold_left (fun a (_, m) -> a +. m.Runner.mops) 0. pts
        /. float_of_int (List.length pts)
  in
  let claims =
    [
      claim "F12.a" "OPTIK-trylock dequeue behaves like the lock-free MS queue"
        ~expected:"optik2 ~= ms-lf"
        ~measured:(Printf.sprintf "%.2fx" r_o2)
        (r_o2 > 0.7 && r_o2 < 1.5);
      claim "F12.b" "victim queues help enqueue-heavy workloads"
        ~expected:"optik3 ~28% over ms-lf on increasing size (paper)"
        ~measured:(Printf.sprintf "%.2fx" r_o3)
        (r_o3 > 0.95);
      claim "F12.c" "ms-lb is slower at low thread counts"
        ~expected:"slower than the rest below 6-7 threads"
        ~measured:(Printf.sprintf "ms-lb/ms-lf = %.2fx (<=6 thr)" r_lb_low)
        (r_lb_low < 1.0);
      claim "F12.d" "MCS fairness collapses under multiprogramming"
        ~expected:"ms-lb throughput drops past 40 threads on Xeon"
        ~measured:
          (Printf.sprintf "peak %.2f vs %.2f Mops/s oversubscribed" peak mp_avg)
        (mp_avg < 0.7 *. peak);
    ]
  in
  (figs @ [ lat_fig ], claims)

(* ------------------------------------------------------------------ *)
(* Ablations and the stack experiment                                  *)

module Map_ticket =
  Dstruct.Maps.Optik_based_gen (Sim.Sim_rt) (Optik.Ticket)

let map_ticket_ops : (module Harness.Registry.SET_OPS) =
  (module Dstruct.Dstruct_intf.Mono_set (Map_ticket)
            (struct
              let name = "optik[tkt]"
              let probe_prefix = Some "map-optik"
              let create ?capacity () = Map_ticket.create ?capacity ()
            end))

module Ll_ticket = Dstruct.Ll_optik.Make_gen (Sim.Sim_rt) (Optik.Ticket)

let ll_ticket_ops : (module Harness.Registry.SET_OPS) =
  (module Dstruct.Dstruct_intf.Mono_set (Ll_ticket)
            (struct
              let name = "optik[tkt]"
              let probe_prefix = Some "ll-optik"
              let create ?capacity:_ () = Ll_ticket.create ()
            end))

(* A1: versioned vs ticket OPTIK backend across two structures. *)
let ablation_backend mode =
  let wmap = map_workload 64 in
  let wll = Runner.uniform_workload ~init_size:64 ~update_pct:40 () in
  let ops = scaled mode 25_000 in
  let pair title workload a b =
    figure "A1" title
      [
        set_series mode ~topology:xeon ~ops ~workload a;
        set_series mode ~topology:xeon ~ops ~workload b;
      ]
  in
  let fig1 =
    pair "Ablation: OPTIK backend (versioned vs ticket) — array map, Xeon" wmap
      R.map_optik map_ticket_ops
  in
  let fig2 =
    pair "Ablation: OPTIK backend — fine-grained list (64 keys), Xeon" wll
      R.ll_optik ll_ticket_ops
  in
  let r = ratio fig1.Render.series "optik" "optik[tkt]" in
  ( [ fig1; fig2 ],
    [
      claim "A1" "the two OPTIK backends are interchangeable"
        ~expected:"identical behaviour (paper §3.2)"
        ~measured:(Printf.sprintf "versioned/ticket = %.2fx on the map" r)
        (r > 0.7 && r < 1.4);
    ] )

(* A2: node-cache hit rate vs list size. *)
let ablation_cache mode =
  let sizes = [ 64; 256; 1024; 4096; 8192 ] in
  let rows =
    List.map
      (fun size ->
        let w = Runner.uniform_workload ~init_size:size ~update_pct:40 () in
        let ops = scaled mode (max 2_000 (400_000 / size)) in
        let m_cache =
          emit
            (Printf.sprintf "cache/optik-cache@s%d" size)
            (Runner.run_set_sim ~topology:xeon ~nthreads:10 ~ops
               ~seed:mode.seed
               (Harness.Registry.set_ops (R.find "list/optik-cache"))
               w)
        in
        let hits =
          try List.assoc "ll-optik.cache-hits" m_cache.Runner.counters
          with Not_found -> 0
        in
        let tries =
          try List.assoc "ll-optik.cache-tries" m_cache.Runner.counters
          with Not_found -> 1
        in
        let m_plain =
          emit
            (Printf.sprintf "cache/optik@s%d" size)
            (Runner.run_set_sim ~topology:xeon ~nthreads:10 ~ops
               ~seed:mode.seed R.ll_optik w)
        in
        (size, m_cache, m_plain, float_of_int hits /. float_of_int (max 1 tries)))
      sizes
  in
  let notes =
    List.map
      (fun (size, mc, mp, hitrate) ->
        Printf.sprintf
          "size %5d: hit-rate %4.1f%%  optik-cache %.2f vs optik %.2f Mops/s (%.2fx)"
          size (100. *. hitrate) mc.Runner.mops mp.Runner.mops
          (mc.Runner.mops /. mp.Runner.mops))
      rows
  in
  let fig =
    figure "A2"
      "Ablation: node-cache hit rate and speedup vs list size (10 thr, Xeon)"
      ~notes []
  in
  let _, _, _, hit_large = List.nth rows (List.length rows - 1) in
  ( [ fig ],
    [
      claim "A2" "cache hit rate grows with list size"
        ~expected:"~49.8% hits on the large list, ~40% on the small (paper)"
        ~measured:(Printf.sprintf "%.1f%% hits at size 8192" (100. *. hit_large))
        (hit_large > 0.25);
    ] )

(* A3: victim-queue threshold sweep. *)
module QSim = Dstruct.Queues.Make (Sim.Sim_rt)

let ablation_victim mode =
  let thresholds = [ 0; 1; 2; 4; 8; 1_000_000 ] in
  let ops = scaled mode 20_000 in
  let rows =
    List.map
      (fun thr ->
        let q = QSim.Optik3.create ~threshold:thr () in
        let rng0 = Harness.Rng.create 5 in
        for _ = 1 to 8_192 do
          QSim.Optik3.enqueue q (Harness.Rng.below rng0 1_000_000)
        done;
        let m =
          Runner.simulate ~name:QSim.Optik3.name ~topology:xeon ~nthreads:20 ~ops
            ~seed:0 ~classes:[||] (fun _ tid ->
              let rng = Harness.Rng.create (tid + 17) in
              while not (Sched.stop_requested ()) do
                (if Harness.Rng.below rng 100 < 60 then
                   QSim.Optik3.enqueue q (Harness.Rng.below rng 1_000_000)
                 else ignore (QSim.Optik3.dequeue q : int option));
                Sched.tick ();
                Sched.work 64
              done)
        in
        let mops = m.Runner.mops in
        let uses = Sim.Sim_rt.Probe.count QSim.Optik3.victim_uses in
        (thr, mops, uses))
      thresholds
  in
  let notes =
    List.map
      (fun (thr, mops, uses) ->
        Printf.sprintf "threshold %7d: %.2f Mops/s, victim-path uses %d" thr
          mops uses)
      rows
  in
  ( [
      figure "A3"
        "Ablation: victim-queue threshold (20 threads, 60% enqueue, Xeon)"
        ~notes [];
    ],
    [] )

(* S1: stacks (text-only experiment in §5.5). *)
let stack_experiment mode =
  let ops = scaled mode 20_000 in
  let series =
    List.map
      (fun (module S : Harness.Registry.POOL_OPS) ->
        series ~prefix:"stack" S.name (mode.threads_of xeon) (fun n ->
            let t = S.create () in
            for i = 1 to 1024 do
              S.put t i
            done;
            let m =
              Runner.simulate ~name:S.name ~topology:xeon ~nthreads:n ~ops
                ~seed:0 ~classes:Runner.queue_class_names (fun _ tid ->
                  let rng = Harness.Rng.create (tid + 3) in
                  while not (Sched.stop_requested ()) do
                    (if Harness.Rng.below rng 2 = 0 then
                       S.put t (Harness.Rng.below rng 1_000_000)
                     else ignore (S.take t : int option));
                    Sched.tick ();
                    Sched.work 64
                  done)
            in
            let final_size = S.size t in
            { m with wall_s = 0.; final_size }))
      (List.map Harness.Registry.pool_ops (R.lineup "stack"))
  in
  let fig =
    figure "S1" "Stacks (§5.5): Treiber vs OPTIK redesign, 50/50 push/pop, Xeon"
      series
  in
  let r = ratio series "treiber" "optik" in
  ( [ fig ],
    [
      claim "S1" "the Treiber and OPTIK stacks behave similarly"
        ~expected:"similar throughput (paper §5.5)"
        ~measured:(Printf.sprintf "treiber/optik = %.2fx" r)
        (r > 0.6 && r < 1.7);
    ] )

(* A4: the §4.1 search-granularity ablation — re-reading the version
   right before the key match vs once per operation. The paper reports
   the fine-grained variant stresses the lock's cache line and loses. *)
module Map_eager = Dstruct.Maps.Optik_based (Sim.Sim_rt)

let map_eager_ops : (module Harness.Registry.SET_OPS) =
  (module Dstruct.Dstruct_intf.Mono_set (Map_eager)
            (struct
              let name = "optik-eager"
              let probe_prefix = Some "map-optik"

              let create ?capacity () =
                Map_eager.create ?capacity ~eager_search:true ()
            end))

let ablation_search_granularity mode =
  let w = map_workload 64 in
  let ops = scaled mode 30_000 in
  let series =
    [
      set_series mode ~topology:xeon ~ops ~workload:w R.map_optik;
      set_series mode ~topology:xeon ~ops ~workload:w map_eager_ops;
    ]
  in
  let fig =
    figure "A4"
        "Ablation (§4.1): map search version granularity — once per op vs          per key match, xeon"
      series
  in
  let hi t = t >= 10 in
  let r = ratio ~keep:hi series "optik" "optik-eager" in
  ( [ fig ],
    [
      claim "A4" "coarse search validation beats per-match version reads"
        ~expected:"the paper picked the Figure-6 design for this reason"
        ~measured:(Printf.sprintf "optik/optik-eager = %.2fx (>=10 thr)" r)
        (r > 0.95);
    ] )

(* Extension: the BST-TK-style external tree (§6) against a global-lock
   baseline. Not a paper figure; shows the pattern generalizing to a
   fourth structure family. *)
let bst_experiment mode =
  let w = Runner.uniform_workload ~init_size:1024 ~update_pct:40 () in
  let ops = scaled mode 20_000 in
  let series =
    List.map (set_series mode ~topology:xeon ~ops ~workload:w) (sets "bst")
  in
  let fig =
    figure "BST"
      "Extension: external BST (BST-TK style, 1024 keys, 20% eff upd), xeon"
      series
  in
  let hi t = t >= 10 && t <= 40 in
  let r = ratio ~keep:hi series "bst-optik" "bst-gl" in
  ( [ fig ],
    [
      claim "BST" "OPTIK generalizes to trees (the BST-TK connection of §6)"
        ~expected:"fine-grained OPTIK tree scales, global-lock tree does not"
        ~measured:(Printf.sprintf "bst-optik/bst-gl = %.1fx (10-40 thr)" r)
        (r > 2.);
    ] )

(* Methodological check: measured shapes must be insensitive to the
   simulator's read-slack fast-path window (reads may run up to [slack]
   cycles ahead of pending events; see lib/sim/sched.ml). *)
let sim_validation mode =
  let ops = scaled mode 20_000 in
  let measure slack =
    (* the runners always use the scheduler's default slack; run a
       bare guarded simulation for this experiment *)
    let (module S : Harness.Registry.SET_OPS) = R.ll_optik in
    let t = S.create () in
    let rng0 = Harness.Rng.create 7919 in
    let n = ref 0 in
    while !n < 512 do
      if S.insert t (1 + Harness.Rng.below rng0 1024) 1 then incr n
    done;
    let st, outcome =
      Runner.run_guarded ~topology:xeon ~nthreads:20 ~ops_target:ops
        ~read_slack:slack (fun tid ->
          let rng = Harness.Rng.create ((42 * 65_599) + tid) in
          while not (Sched.stop_requested ()) do
            let k = 1 + Harness.Rng.below rng 1024 in
            let p = Harness.Rng.below rng 100 in
            (if p < 20 then ignore (S.insert t k k : bool)
             else if p < 40 then ignore (S.delete t k : int option)
             else ignore (S.search t k : int option));
            Sched.tick ();
            Sched.work 64
          done)
    in
    (match outcome with
    | Runner.Complete -> ()
    | Runner.Aborted r -> failwith ("sim-validate: " ^ r.Sched.r_reason));
    Sched.mops xeon st
  in
  let rows =
    List.map (fun sl -> (sl, measure sl)) [ 0; 250; 1_000; 4_000 ]
  in
  let base = List.assoc 0 rows in
  let notes =
    List.map
      (fun (sl, m) ->
        Printf.sprintf "read-slack %5d cycles: %.2f Mops/s (%+.1f%% vs slack 0)"
          sl m
          (100. *. (m -. base) /. base))
      rows
  in
  let max_dev =
    List.fold_left
      (fun acc (_, m) -> Float.max acc (abs_float (m -. base) /. base))
      0. rows
  in
  ( [
      figure "V1"
        "Simulator validation: throughput insensitivity to the read-slack            window (optik list, 512 keys, 20 threads, xeon)"
        ~notes [];
    ],
    [
      claim "V1" "the read-slack fast path does not distort measurements"
        ~expected:"within a few percent across slack settings"
        ~measured:(Printf.sprintf "max deviation %.1f%%" (100. *. max_dev))
        (max_dev < 0.10);
    ] )

(* ------------------------------------------------------------------ *)
(* FAULT: fault injection vs the lock-free/blocking divide (§2 of the
   paper frames optimistic concurrency against blocking designs; this
   experiment makes the classic argument measurable: crash a thread
   inside its critical section and see who keeps going).

   For each structure family we pick one blocking and one lock-free
   representative and sweep two faults over each:
   - crash: thread 0 dies at a checkpoint and never runs again, locks
     still held. The lock-free rep must keep completing operations; the
     blocking rep must be flagged Starved by the liveness watchdog, with
     the dead lock holder named in the report.
   - stall: thread 0 disappears for a while (shorter than the starvation
     threshold) and resumes; both reps must complete.

   Everything is deterministic: same seed => same schedule, same fault
   times, same results. *)

type fault_row = {
  fr_family : string;
  fr_kind : string;  (** the rep's guarantee: ["blocking"] or ["lock-free"] *)
  fr_fault : string;  (** ["crash"] or ["stall"] *)
  fr_meas : Runner.measurement;
  fr_events : Sim.Fault.event list;
}

let fault_experiment mode =
  let seed = mode.seed in
  let nthreads = 10 in
  let watchdog = { Sched.check_events = 10_000; starve_cycles = 2_000_000 } in
  let max_events = 80_000_000 in
  let ops = max 200 (scaled mode 4_000) in
  let stall_cycles = 500_000 (* well under starve_cycles: must recover *) in
  let crash_plan point = Sim.Fault.plan ~seed [ Sim.Fault.crash ~tid:0 point ] in
  let stall_plan point =
    Sim.Fault.plan ~seed [ Sim.Fault.stall ~tid:0 stall_cycles point ]
  in
  (* Blocking reps take faults at [Critical_enter] — just after acquiring
     a lock, so a crash dies holding it. Lock-free reps take faults at
     [Before_cas] — mid-operation, the worst spot available to them. *)
  let row (e : Harness.Registry.entry) fault run =
    let kind = Harness.Registry.guarantee_name e.guarantee in
    let fr_meas = run () in
    (* The FAULT figure renders notes only (no series), so the sink is
       the sole route these measurements take into a run report. *)
    ignore
      (emit
         (Printf.sprintf "fault/%s/%s/%s/%s" e.family kind fault
            fr_meas.Runner.name)
         fr_meas);
    { fr_family = e.family; fr_kind = kind; fr_fault = fault; fr_meas;
      fr_events = Sim.Fault.events () }
  in
  (* Entry [e] under [faults]. A set runs [w]; a queue or a stack
     preloads [w.init_size] elements and adds in [w.update_pct] percent
     of its operations. *)
  let run_entry (w : Runner.set_workload) ~ops faults
      (e : Harness.Registry.entry) () =
    match e.structure with
    | Harness.Registry.Set s ->
        Runner.run_set_sim ~topology:xeon ~nthreads ~ops ~seed ~faults ~watchdog
          ~max_events s w
    | Harness.Registry.Pool p ->
        Runner.run_pool_sim ~topology:xeon ~nthreads ~ops ~seed
          ~init:w.init_size ~faults ~watchdog ~max_events ~add_pct:w.update_pct
          p
  in
  (* A structure family's four rows: a crash and a stall for its blocking
     rep [b] and its lock-free rep [l], each labelled by its guarantee. *)
  let family_rows b l w =
    let b = R.find b and l = R.find l and go = run_entry w in
    [
      (* ops_target 0: run until the watchdog calls the verdict *)
      row b "crash" (go ~ops:0 (crash_plan Rt.Rt_intf.Critical_enter) b);
      row l "crash" (go ~ops (crash_plan Rt.Rt_intf.Before_cas) l);
      row b "stall" (go ~ops (stall_plan Rt.Rt_intf.Critical_enter) b);
      row l "stall" (go ~ops (stall_plan Rt.Rt_intf.Before_cas) l);
    ]
  in
  let pool = Runner.uniform_workload ~init_size:1_024 ~update_pct:50 () in
  let rows =
    family_rows "list/optik-gl" "list/harris"
      (Runner.uniform_workload ~init_size:512 ~update_pct:50 ())
    @ family_rows "hashtable/optik-gl" "hashtable/harris-ht"
        (Runner.uniform_workload ~capacity:4 ~init_size:256 ~update_pct:50 ())
    @ family_rows "skiplist/herlihy" "skiplist/fraser"
        (Runner.skewed_workload ~init_size:128 ~update_pct:50 ())
    @ family_rows "queue/ms-lb" "queue/ms-lf" pool
    @ family_rows "stack/optik" "stack/treiber" pool
  in
  (* Operations completed by the survivors after the (first) crash. *)
  let ops_after_crash r =
    match r.fr_events with
    | e :: _ -> r.fr_meas.Runner.ops - e.Sim.Fault.e_ops
    | [] -> 0
  in
  let row_note r =
    let fired =
      match r.fr_events with
      | [] -> "fault never fired"
      | e :: _ ->
          Printf.sprintf "%s t%d at op %d"
            (Sim.Fault.action_name e.Sim.Fault.e_spec.Sim.Fault.f_action)
            e.Sim.Fault.e_tid e.Sim.Fault.e_ops
    in
    let outcome =
      match r.fr_meas.Runner.outcome with
      | Runner.Complete ->
          Printf.sprintf "completed %d ops (%d after the fault)"
            r.fr_meas.Runner.ops (ops_after_crash r)
      | Runner.Aborted rep ->
          Printf.sprintf "%s after %d ops%s"
            (Format.asprintf "%a" Sched.pp_verdict rep.Sched.r_verdict)
            r.fr_meas.Runner.ops
            (match rep.Sched.r_dead_holders with
            | [] -> ""
            | ts ->
                "; dead lock holder(s): "
                ^ String.concat ", "
                    (List.map (fun t -> Printf.sprintf "t%d" t) ts))
    in
    Printf.sprintf "%-9s %-9s %-10s %-6s  %s -> %s" r.fr_family r.fr_kind
      r.fr_meas.Runner.name r.fr_fault fired outcome
  in
  let crash_rows k = List.filter (fun r -> r.fr_fault = "crash" && r.fr_kind = k) rows in
  let stall_rows = List.filter (fun r -> r.fr_fault = "stall") rows in
  let lf_survive =
    List.for_all
      (fun r ->
        (not (Runner.aborted r.fr_meas))
        && r.fr_events <> [] && ops_after_crash r > 0)
      (crash_rows "lock-free")
  in
  let blocking_starve =
    List.for_all
      (fun r ->
        match r.fr_meas.Runner.outcome with
        | Runner.Aborted rep -> (
            List.mem 0 rep.Sched.r_dead_holders
            && match rep.Sched.r_verdict with
               | Sched.Starved _ -> true
               | Sched.Progress | Sched.Livelocked -> false)
        | Runner.Complete -> false)
      (crash_rows "blocking")
  in
  let stalls_recover =
    List.for_all
      (fun r -> (not (Runner.aborted r.fr_meas)) && r.fr_events <> [])
      stall_rows
  in
  let notes =
    Printf.sprintf
      "seed %d; %d threads; watchdog: check every %d events, starve after %d    cycles; stall = %d cycles"
      seed nthreads watchdog.Sched.check_events watchdog.Sched.starve_cycles
      stall_cycles
    :: List.map row_note rows
  in
  ( [
      figure "FAULT"
        "Fault injection: crash/stall inside critical sections vs lock-free            progress (xeon)"
        ~notes [];
    ],
    [
      claim "FAULT.a"
        "lock-free structures tolerate a thread crashing mid-operation"
        ~expected:"survivors keep completing ops after the crash"
        ~measured:
          (String.concat "; "
             (List.map
                (fun r ->
                  Printf.sprintf "%s +%d ops" r.fr_meas.Runner.name
                    (ops_after_crash r))
                (crash_rows "lock-free")))
        lf_survive;
      claim "FAULT.b"
        "blocking structures starve when a lock holder crashes, and the          watchdog names the culprit"
        ~expected:"every blocking rep reported Starved with t0 as dead holder"
        ~measured:
          (String.concat "; "
             (List.map
                (fun r ->
                  Printf.sprintf "%s %s" r.fr_meas.Runner.name
                    (match r.fr_meas.Runner.outcome with
                    | Runner.Complete -> "completed?!"
                    | Runner.Aborted rep ->
                        Format.asprintf "%a" Sched.pp_verdict
                          rep.Sched.r_verdict))
                (crash_rows "blocking")))
        blocking_starve;
      claim "FAULT.c"
        "a bounded stall (below the starvation threshold) is survivable          everywhere"
        ~expected:"all stall rows complete"
        ~measured:
          (Printf.sprintf "%d/%d completed"
             (List.length
                (List.filter (fun r -> not (Runner.aborted r.fr_meas)) stall_rows))
             (List.length stall_rows))
        stalls_recover;
    ] )

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("fig5", fig5);
    ("fig7", fig7);
    ("fig9", fig9);
    ("fig10", fig10);
    ("fig11", fig11);
    ("fig12", fig12);
    ("ablation-backend", ablation_backend);
    ("ablation-cache", ablation_cache);
    ("ablation-victim", ablation_victim);
    ("ablation-search", ablation_search_granularity);
    ("stack", stack_experiment);
    ("bst", bst_experiment);
    ("sim-validate", sim_validation);
    ("fault", fault_experiment);
  ]

let all_ids = List.map fst experiments

(* Raise [Invalid_argument] naming the first unknown id. *)
let check_ids ids =
  match List.find_opt (fun id -> not (List.mem id all_ids)) ids with
  | Some bad ->
      invalid_arg
        (Printf.sprintf "unknown experiment id %S; known ids: %s" bad
           (String.concat ", " all_ids))
  | None -> ()

let run_id mode id =
  check_ids [ id ];
  (List.assoc id experiments) mode

(* The quick or full sweep, at [seed]. *)
let mode_of ~full:dense ~seed = { (if dense then full else quick) with seed }

(* The figures driver: run [ids] in order, rendering each experiment's
   figures to [out] as it finishes and then every claim, and return the
   measurements they deposited, numbered for a run report. [around id f]
   wraps each experiment (callers time it there). Unknown ids are
   rejected before anything runs. *)
let run mode ?(around = fun _ f -> f ()) out ids =
  check_ids ids;
  let claims =
    List.concat_map
      (fun id ->
        around id (fun () ->
            let figs, claims = run_id mode id in
            List.iter (Render.figure out) figs;
            claims))
      ids
  in
  Render.claims out claims;
  drain_measurements ()
