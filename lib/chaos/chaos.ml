(** Chaos engine implementation. See the interface for the model; the
    determinism argument lives in DESIGN.md ("Chaos engine").

    Everything a trial's outcome depends on is either in the trial string
    (structure, topology, workload knobs, perturbation knobs, fault plan)
    or a pure function of it (per-thread workload rngs, the simulator's
    schedule, the fault hit counts). The only process-global state the
    simulator keeps — skip-list level rngs, the noise amplitude — is
    reset or save/restored around each trial. *)

module R = Harness.Registry
module Rng = Harness.Rng
module Fault = Sim.Fault
module Sched = Sim.Sched
module Qsbr = Mem.Qsbr.Make (Sim.Sim_rt)

type failure = { f_oracle : string; f_detail : string }

type result = {
  failures : failure list;
  detail : string;
  measurement : Harness.Runner.measurement;
}

module type TRIAL = sig
  type t

  val name : string
  val command : string
  val to_string : t -> string
  val of_string : string -> t
  val gen : Rng.t -> t
  val shrink_steps : t -> t list
  val shrink_budget : int
  val run : t -> result
end

(* ------------------------------------------------------------------ *)
(* The trial-string grammar every family shares                        *)

let parse_error fmt = Printf.ksprintf invalid_arg ("Chaos.of_string: " ^^ fmt)

let parse_int what s =
  match int_of_string_opt s with
  | Some n -> n
  | None -> parse_error "bad %s %S" what s

(* The machines a trial string names, in the order the generators draw
   them. *)
let topos =
  [|
    ("u2", Sim.Topology.uniform ~n:2 ());
    ("u4", Sim.Topology.uniform ~n:4 ());
    ("xeon", Sim.Topology.xeon);
    ("opteron", Sim.Topology.opteron);
  |]

let topology_of_name s =
  match Array.find_opt (fun (n, _) -> n = s) topos with
  | Some (_, t) -> t
  | None -> invalid_arg (Printf.sprintf "Chaos: unknown topology %S" s)

(* The way back goes by [Topology.t.name], because a uniform machine
   names itself uniform-N. *)
let topology_name (t : Sim.Topology.t) =
  match Array.find_opt (fun (_, u) -> u.Sim.Topology.name = t.name) topos with
  | Some (n, _) -> n
  | None ->
      invalid_arg (Printf.sprintf "Chaos: no trial name for topology %S" t.name)

(* [name@topo tok ...]: [head name topo] validates the head and gives the
   family's replay defaults, each token sets the knob it names in the
   family's table, and [check] judges the result as a whole. *)
let parse ~head ~knobs ~check s =
  match
    String.split_on_char ' ' (String.trim s) |> List.filter (fun t -> t <> "")
  with
  | [] -> parse_error "empty trial"
  | h :: toks ->
      let name, topo =
        match String.rindex_opt h '@' with
        | Some i ->
            (String.sub h 0 i, String.sub h (i + 1) (String.length h - i - 1))
        | None -> parse_error "missing @topology in %S" h
      in
      let tr =
        List.fold_left
          (fun tr tok ->
            let v = String.sub tok 1 (String.length tok - 1) in
            let knob =
              List.find_opt
                (fun (k : _ Harness.Knob.t) -> k.token = Some tok.[0])
                knobs
            in
            match (knob, v) with
            | Some { kind = Bool { set; _ }; _ }, "" -> set tr true
            | Some { name; kind = Int { set; _ }; _ }, _ when v <> "" ->
                set tr (parse_int name v)
            | Some { kind = Text { set; _ }; _ }, _ when v <> "" -> set tr v
            | _ -> parse_error "bad token %S" tok)
          (head name topo) toks
      in
      check tr;
      tr

(* The rep of a service family's [family/rep] head; [check] refuses a
   rep the service does not take. *)
let rep_of ~family ~check name =
  let p = family ^ "/" in
  if not (String.starts_with ~prefix:p name) then
    parse_error "%s trial must start with %s<rep>, got %S" family p name;
  let rep =
    String.sub name (String.length p) (String.length name - String.length p)
  in
  check rep;
  rep

(* The plan of a trial whose string names none. *)
let no_plan = { Fault.seed = 0; specs = [] }

(* The highest thread a plan names (-1 if none): shrinking a trial's
   threads past it would leave a string [Fault.check_targets] rejects. *)
let top_thread (plan : Fault.plan) =
  List.fold_left
    (fun top (sp : Fault.spec) ->
      let victims =
        match sp.f_action with Fault.Storm { victims; _ } -> victims | _ -> []
      in
      List.fold_left max top (Option.to_list sp.f_tid @ victims))
    (-1) plan.specs

let pick rng a = a.(Rng.below rng (Array.length a))

let points = Array.of_list (List.map fst Rt.Rt_intf.fault_points)

let replace_nth i x l = List.mapi (fun j y -> if j = i then x else y) l

(* Shrink steps on a fault plan, most aggressive first: drop each spec,
   then for each reduction in turn, each spec it can shrink. *)
let plan_steps (plan : Fault.plan) reductions =
  let specs = plan.Fault.specs in
  let with_specs specs = { plan with Fault.specs } in
  List.mapi (fun i _ -> with_specs (List.filteri (fun j _ -> j <> i) specs)) specs
  @ List.concat_map
      (fun reduce ->
        List.concat
          (List.mapi
             (fun i sp ->
               match reduce sp with
               | Some sp' -> [ with_specs (replace_nth i sp' specs) ]
               | None -> [])
             specs))
      reductions

(* No failure when [ok]; otherwise one [f_oracle] failure, described by
   [detail ()]. *)
let unless ok f_oracle detail =
  if ok then [] else [ { f_oracle; f_detail = detail () } ]

let liveness (m : Harness.Runner.measurement) =
  match m.Harness.Runner.outcome with
  | Harness.Runner.Complete -> []
  | Harness.Runner.Aborted r ->
      let detail = Format.asprintf "%a" Sched.pp_verdict r.Sched.r_verdict in
      [ { f_oracle = "liveness"; f_detail = detail ^ " — " ^ r.Sched.r_reason } ]

let run_failures (m : Harness.Runner.measurement) =
  liveness m
  @ unless m.Harness.Runner.valid "validate" (fun () -> "validation failed")

(* ------------------------------------------------------------------ *)
(* The driver: fuzz, shrink, replay                                    *)

let shrink (type a) (module T : TRIAL with type t = a) (tr0 : a) : a =
  let fails tr = (T.run tr).failures <> [] in
  (* Greedy: the first still-failing step wins and shrinking restarts
     from it, until no step fails or [shrink_budget] runs are spent. *)
  let rec try_steps runs cur = function
    | c :: rest when runs < T.shrink_budget ->
        if fails c then descend (runs + 1) c else try_steps (runs + 1) cur rest
    | _ -> cur
  and descend runs cur =
    if runs < T.shrink_budget then try_steps runs cur (T.shrink_steps cur)
    else cur
  in
  if fails tr0 then descend 1 tr0 else tr0

let report_failures ppf fs =
  List.iter
    (fun f ->
      Format.fprintf ppf "           oracle %-16s %s@." f.f_oracle f.f_detail)
    fs

(* Trials [offset .. offset+runs-1] of the seeded sequence, printed with
   their absolute indices and no summary, so ranges concatenate to one
   stream; also their measurements, in trial order. *)
let fuzz_range (module T : TRIAL) ~offset ~runs ~seed ppf =
  let failed = ref 0 in
  let ms = ref [] in
  for i = offset to offset + runs - 1 do
    let tr = T.gen (Rng.create (seed + (i * 1_000_003))) in
    let r = T.run tr in
    ms := r.measurement :: !ms;
    match r.failures with
    | [] -> Format.fprintf ppf "trial %4d ok   %s@." i (T.to_string tr)
    | fs ->
        incr failed;
        Format.fprintf ppf "trial %4d FAIL %s@." i (T.to_string tr);
        report_failures ppf fs;
        let small = T.to_string (shrink (module T) tr) in
        Format.fprintf ppf "           shrunk to %s@." small;
        Format.fprintf ppf "           repro: optik_bench %s --replay '%s'@."
          T.command small
  done;
  (!failed, List.rev !ms)

let fuzz ?jobs m ~runs ~seed =
  let module T = (val m : TRIAL) in
  let jobs = Option.value jobs ~default:(Harness.Fleet.default_jobs ()) in
  if jobs < 1 then invalid_arg "Chaos.fuzz: jobs must be >= 1";
  (* One task per contiguous range of trial indices, about four per
     worker so uneven trials still balance; each renders into its own
     buffer. Every trial starts from a pristine world, so, concatenated
     in task order, the buffers are one stream whatever the split. *)
  let range = max 1 ((runs + (4 * jobs) - 1) / (4 * jobs)) in
  let tasks =
    List.init
      ((runs + range - 1) / range)
      (fun b ->
        let offset = b * range in
        let runs = min range (runs - offset) in
        Harness.Fleet.task
          ~label:(Printf.sprintf "%s[%d..%d]" T.name offset (offset + runs - 1))
          (fun () ->
            let buf = Buffer.create 4096 in
            let ppf = Format.formatter_of_buffer buf in
            let failed, ms = fuzz_range m ~offset ~runs ~seed ppf in
            Format.pp_print_flush ppf ();
            (failed, Buffer.contents buf, ms)))
  in
  let results = Harness.Fleet.map ~jobs tasks in
  let failed = List.fold_left (fun a (f, _, _) -> a + f) 0 results in
  ( failed,
    String.concat "" (List.map (fun (_, out, _) -> out) results)
    ^ Printf.sprintf "%s: %d/%d trials failed (seed %d)\n" T.name failed runs
        seed,
    List.concat_map (fun (_, _, ms) -> ms) results )

let replay (module T : TRIAL) s ppf =
  let tr = T.of_string s in
  let { failures = fs; detail; _ } = T.run tr in
  Format.fprintf ppf "replay %s@." (T.to_string tr);
  Format.fprintf ppf "%s@." detail;
  (if fs = [] then Format.fprintf ppf "verdict: PASS@."
   else begin
     report_failures ppf fs;
     Format.fprintf ppf "verdict: FAIL (%d oracle failures)@." (List.length fs)
   end);
  List.length fs

(* ------------------------------------------------------------------ *)
(* Set, queue and stack trials                                         *)

(* One representative per family and figure, in the draw order the
   recorded trial streams depend on. [all_names] appends the rest of the
   registry after them, so it never moves a default draw. *)
let default_names =
  [
    "list/harris"; "list/optik"; "list/lazy"; "list/optik-gl";
    "hashtable/harris-ht"; "hashtable/optik"; "skiplist/fraser";
    "skiplist/herlihy"; "map/optik"; "bst/bst-optik"; "queue/ms-lf";
    "queue/ms-lb"; "queue/optik1"; "stack/treiber"; "stack/optik";
    "stack/elimination";
  ]

let quick_names =
  List.filter
    (fun n ->
      not
        (String.starts_with ~prefix:"skiplist/" n
        || String.starts_with ~prefix:"bst/" n))
    default_names

let all_names =
  default_names
  @ List.filter
      (fun n -> not (List.mem n default_names))
      (List.map R.id R.Sim_backend.entries)

let select names =
  List.iter (fun n -> ignore (R.Sim_backend.find n : R.entry)) names;
  List.map R.Sim_backend.find (List.filter (fun n -> List.mem n names) all_names)

type trial = {
  t_entry : R.entry;
  t_topo : string;
  t_threads : int;
  t_ops : int;
  t_keys : int;
  t_quantum : int;
  t_read_slack : int;
  t_noise_bits : int;
  t_wseed : int;
  t_plan : Fault.plan;
}

(* The largest key count a structure trial accepts. A trial prefills
   [keys / 2] keys one simulated operation at a time, so a sorted list's
   prefill grows with the square of [keys] (k20000 takes about half a
   second), and array maps and hash tables allocate [4 * keys + 16]
   slots up front. At 4096 a two-op trial still replays in well under a
   second (list/optik in 0.03 s, map/mcs, the slowest, in 0.4 s) and the
   largest table has about 16k slots, while the fuzzer draws at most 7
   keys and every pinned trial uses at most that. *)
let max_keys = 4096

let knobs =
  let module K = Harness.Knob in
  let module Rg = Harness.Range in
  [
    K.int ~tok:'t' "threads" Rg.threads
      (fun tr -> tr.t_threads) (fun tr v -> { tr with t_threads = v });
    K.int ~tok:'o' "ops" Rg.positive
      (fun tr -> tr.t_ops) (fun tr v -> { tr with t_ops = v });
    K.int ~tok:'k' "keys" (Rg.v 1 max_keys)
      (fun tr -> tr.t_keys) (fun tr v -> { tr with t_keys = v });
    K.int ~tok:'q' "quantum" Rg.positive
      (fun tr -> tr.t_quantum) (fun tr v -> { tr with t_quantum = v });
    K.int ~tok:'r' "read-slack" Rg.non_negative
      (fun tr -> tr.t_read_slack) (fun tr v -> { tr with t_read_slack = v });
    K.int ~tok:'n' "noise-bits" (Rg.v 0 62)
      (fun tr -> tr.t_noise_bits) (fun tr v -> { tr with t_noise_bits = v });
    K.int ~tok:'w' "workload seed" Rg.any
      (fun tr -> tr.t_wseed) (fun tr v -> { tr with t_wseed = v });
    K.text ~tok:'f' "plan"
      (fun tr -> Some (Fault.to_string tr.t_plan))
      (fun tr v -> { tr with t_plan = Fault.of_string v });
  ]

let to_string tr =
  R.id tr.t_entry ^ "@" ^ tr.t_topo ^ Harness.Knob.to_string knobs tr

let of_string =
  parse
    ~head:(fun name topo ->
      ignore (topology_of_name topo : Sim.Topology.t);
      {
        t_entry = R.Sim_backend.find name;
        t_topo = topo;
        t_threads = 2;
        t_ops = 1;
        t_keys = 2;
        t_quantum = Sched.default_quantum;
        t_read_slack = 0;
        t_noise_bits = 62;
        t_wseed = 0;
        t_plan = no_plan;
      })
    ~knobs
    ~check:(fun tr ->
      Harness.Knob.check "Chaos.of_string" knobs tr;
      Fault.check_targets ~threads:tr.t_threads ~stores:0 tr.t_plan)

(* Aggressive watchdog: chaos workloads are a handful of operations, so
   anything that spins a million cycles without completing one is stuck. *)
let watchdog = { Sched.check_events = 5_000; starve_cycles = 1_000_000 }
let trial_max_events = 2_000_000

(* A crashed lock holder can leave the sole surviving thread spinning in
   a pure-inline loop: with the event heap empty the simulator inlines
   every probe, so neither the watchdog nor the event budget ever runs.
   A modest inline-op budget turns that into a prompt Starved verdict. *)
let trial_max_inline_ops = 5_000_000

(* Which threads did the plan actually crash, and where? *)
let crash_events (m : Harness.Runner.measurement) =
  List.filter_map
    (fun (e : Fault.event) ->
      match e.e_spec.f_action with
      | Fault.Crash -> Some (e.e_tid, e.e_spec.f_point)
      | Fault.Stall _ | Fault.Storm _ | Fault.Shard_crash _
      | Fault.Shard_recover _ | Fault.Resync_crash _ ->
          None)
    m.fired

(* Oracle (b): liveness by family. Lock-free structures must survive any
   crash — the whole point of the family is that a dead thread cannot
   block the others. A blocking structure only promises progress under
   crash-free execution: a thread that dies anywhere inside an operation
   may sit mid-lock-protocol (holding a lock, or parked in an MCS wait
   queue without holding anything yet), and everyone queued behind it
   legitimately starves. A crash at an operation boundary is outside any
   lock protocol, so it keeps the warranty, as do stalls and storms —
   those runs must still terminate.

   The same split voids the state warranty: crashing a blocking
   structure inside an operation may leave locks held over a half-done
   update, so only liveness and QSBR accounting remain checkable.
   Lock-free structures promise crash-consistency everywhere. *)
let crash_mid_op crash_pts =
  List.exists (fun (_, p) -> p <> Rt.Rt_intf.Op_boundary) crash_pts

(* Oracle (c), QSBR half: after telling the reclaimer about crashed
   threads and flushing, nothing may be lost or double-counted. *)
let qsbr_failures q crashed =
  List.iter (fun t -> Qsbr.declare_dead q t) crashed;
  Qsbr.flush q;
  let s = Qsbr.stats q in
  unless (s.Qsbr.retired = s.Qsbr.freed + s.Qsbr.pending) "qsbr" (fun () ->
      Printf.sprintf "retired=%d <> freed=%d + pending=%d" s.Qsbr.retired
        s.Qsbr.freed s.Qsbr.pending)

(* What the one container runner needs from a structure: its sequential
   spec, how to build and prefill it, how a thread draws its next op
   (the draws are part of what a trial string means, so each adapter
   keeps its own order), how to apply an op — returning the value to
   retire, if any — and the op's size delta ([None]: the op is pending,
   so the delta it would have if it took effect). [setup] also returns
   the prefilled size. *)
module type CONTAINER = sig
  module Spec : Lincheck.SPEC

  type t

  val setup : trial -> t * Spec.state * int
  val draw : Rng.t -> keys:int -> v:int -> Spec.input
  val apply : t -> Spec.input -> Spec.output * int option
  val delta : Spec.input -> Spec.output option -> int
  val size : t -> int
  val validate : crashed:int -> t -> bool
end

module Set_container (S : R.SET_OPS) = struct
  module Spec = Lincheck.Set_spec

  type t = S.t

  let setup tr =
    (* Capacity far above the key range so array maps and hash tables
       never refuse an insert the sequential spec would accept. *)
    let t = S.create ~capacity:((4 * tr.t_keys) + 16) () in
    let init = ref Spec.M.empty in
    let rng = Rng.create (tr.t_wseed + 7919) in
    for _ = 1 to tr.t_keys / 2 do
      let k = 1 + Rng.below rng tr.t_keys in
      if S.insert t k (500 + k) then init := Spec.M.add k (500 + k) !init
    done;
    (t, !init, Spec.M.cardinal !init)

  let draw rng ~keys ~v =
    let k = 1 + Rng.below rng keys in
    match Rng.below rng 3 with
    | 0 -> Spec.Search k
    | 1 -> Spec.Insert (k, v)
    | _ -> Spec.Delete k

  let apply t = function
    | Spec.Search k ->
        ( (match S.search t k with Some v -> Spec.Found v | None -> Spec.Absent),
          None )
    | Spec.Insert (k, v) ->
        ((if S.insert t k v then Spec.Ok else Spec.Dup), None)
    | Spec.Delete k -> (
        match S.delete t k with
        | Some v -> (Spec.Found v, Some v)
        | None -> (Spec.Absent, None))

  let delta input output =
    match (input, output) with
    | Spec.Insert _, (None | Some Spec.Ok) -> 1
    | Spec.Delete _, (None | Some (Spec.Found _)) -> -1
    | _ -> 0

  let size = S.size
  let validate ~crashed t = S.validate ~crashed t
end

let prefill tr = List.init (tr.t_keys / 2) (fun j -> 901 + j)

(* A queue or a stack: the prefill is put in order, so the spec's
   initial state is that prefill put through the spec. *)
module Pool_container (P : R.POOL_OPS) = struct
  module Spec = Lincheck.Pool_spec (P)

  type t = P.t

  let setup tr =
    let p = P.create () in
    let pre = prefill tr in
    List.iter (P.put p) pre;
    let put st v = fst (Spec.apply st (Spec.Put v)) in
    (p, List.fold_left put Spec.init pre, List.length pre)

  let draw rng ~keys:_ ~v =
    if Rng.below rng 2 = 0 then Spec.Put v else Spec.Take

  let apply p = function
    | Spec.Put v ->
        P.put p v;
        (Spec.Unit, None)
    | Spec.Take -> (
        match P.take p with
        | Some v -> (Spec.Got v, Some v)
        | None -> (Spec.Empty, None))

  let delta input output =
    match (input, output) with
    | Spec.Put _, _ -> 1
    | Spec.Take, (None | Some (Spec.Got _)) -> -1
    | _ -> 0

  let size = P.size
  let validate ~crashed:_ _ = true
end

(* The one container runner: every thread draws and applies [t_ops] ops
   under QSBR, recording the history, in one run of the simulated-run
   envelope (no ops target: the run ends when every thread is done);
   then the oracles run — liveness, and unless a crash voided the state
   warranty, crash-aware linearizability, size accounting against the
   history and the structure's own validation; QSBR accounting always. *)
module Container (C : CONTAINER) = struct
  module H = Harness.History.Make (C.Spec)
  module L = H.L

  let run tr =
    let t, init, init_n = C.setup tr in
    let hist = H.create ~nthreads:tr.t_threads in
    let q = Qsbr.create ~batch_size:4 () in
    let m =
      Harness.Runner.simulate ~name:(R.id tr.t_entry)
        ~topology:(topology_of_name tr.t_topo)
        ~nthreads:tr.t_threads ~ops:0 ~seed:tr.t_wseed ~faults:tr.t_plan
        ~watchdog ~max_events:trial_max_events ~quantum:tr.t_quantum
        ~read_slack:tr.t_read_slack ~max_inline_ops:trial_max_inline_ops
        ~classes:[||]
        (fun _ tid ->
          let rng = Rng.create ((tr.t_wseed * 131) + tid) in
          for i = 1 to tr.t_ops do
            let input = C.draw rng ~keys:tr.t_keys ~v:(((tid + 1) * 1000) + i) in
            ignore
              (H.record hist input (fun () ->
                   Qsbr.op_begin q;
                   let out, retired = C.apply t input in
                   Option.iter (Qsbr.retire q) retired;
                   Qsbr.op_end q;
                   out)
                : C.Spec.output);
            Sched.tick ();
            Sched.work (32 + Rng.below rng 64)
          done)
    in
    let guarantee = tr.t_entry.R.guarantee in
    let crash_pts = crash_events m in
    let crashed = List.sort_uniq compare (List.map fst crash_pts) in
    let excused = guarantee = R.Blocking && crash_mid_op crash_pts in
    let live_fail = if excused then [] else liveness m in
    let state_fail, unchecked =
      if live_fail <> [] || excused then ([], None)
      else
        let completed = H.completed ~widen:tr.t_read_slack hist in
        let pending = H.pending ~widen:tr.t_read_slack hist in
        let nc = List.length completed and np = List.length pending in
        (* A history past the checker's capacity is not a failure, but
           the detail line says the oracle did not run. *)
        let result = L.check ~init ~pending completed in
        let lin =
          unless (result <> L.No_witness) "linearizability" (fun () ->
              Printf.sprintf "no linearization of %d completed + %d pending ops"
                nc np)
        and unchecked =
          if result = L.Too_large then
            Some
              (Printf.sprintf "linearizability unchecked (%d ops > %d)"
                 (nc + np) L.max_events)
          else None
        in
        let count d =
          List.fold_left
            (fun (plus, minus) x ->
              match d x with
              | 1 -> (plus + 1, minus)
              | -1 -> (plus, minus + 1)
              | _ -> (plus, minus))
            (0, 0)
        in
        let plus, minus =
          count (fun (e : L.event) -> C.delta e.input (Some e.output)) completed
        in
        let p_plus, p_minus =
          count (fun (p : L.pending) -> C.delta p.p_input None) pending
        in
        let base = init_n + plus - minus in
        let final = C.size t in
        let size =
          unless (final >= base - p_minus && final <= base + p_plus) "size"
            (fun () ->
              Printf.sprintf
                "final size %d outside [%d,%d] (init %d, +%d, -%d, pending \
                 +%d/-%d)"
                final (base - p_minus) (base + p_plus) init_n plus minus p_plus
                p_minus)
        in
        ( lin @ size
          @ unless (C.validate ~crashed:(List.length crashed) t) "validate"
              (fun () -> "validation failed"),
          unchecked )
    in
    let qsbr_fail = qsbr_failures q crashed in
    {
      failures = live_fail @ state_fail @ qsbr_fail;
      detail =
        Printf.sprintf "run %s; crashed threads [%s]%s"
          (if Harness.Runner.aborted m then "aborted" else "completed")
          (String.concat ";" (List.map string_of_int crashed))
          (match unchecked with None -> "" | Some note -> "; " ^ note);
      measurement = m;
    }
end

let run_trial tr =
  (* A pristine world, so outcomes depend only on the trial itself
     (determinism, and order-independence across the trials of one
     fuzzing session). *)
  Harness.World.reset ();
  let saved_noise = Sched.noise_bits () in
  Fun.protect ~finally:(fun () -> Sched.set_noise_bits saved_noise)
  @@ fun () ->
  Sched.set_noise_bits tr.t_noise_bits;
  match tr.t_entry.R.structure with
  | R.Set (module S) ->
      let module C = Container (Set_container (S)) in
      C.run tr
  | R.Pool (module P) ->
      let module C = Container (Pool_container (P)) in
      C.run tr

let gen_spec rng nthreads =
  let f_point = pick rng points in
  let f_tid =
    if Rng.below rng 10 < 6 then Some (Rng.below rng nthreads) else None
  in
  (* Bias toward explicit small hit counts: tiny workloads reach few
     checkpoints, and the seed-derived default (1..48) often overshoots
     them, making the spec a no-op. *)
  let f_hits = if Rng.below rng 10 < 7 then 1 + Rng.below rng 6 else 0 in
  let f_action =
    let r = Rng.below rng 10 in
    if r < 4 then Fault.Crash
    else if r < 7 then Fault.Stall (500 + Rng.below rng 50_000)
    else
      let victims =
        if Rng.below rng 10 < 7 then [] else [ Rng.below rng nthreads ]
      in
      Fault.Storm { victims; duration = 500 + Rng.below rng 50_000 }
  in
  { Fault.f_tid; f_point; f_hits; f_action }

let gen_trial entries rng =
  let e = List.nth entries (Rng.below rng (List.length entries)) in
  let t_topo = fst (pick rng topos) in
  let t_threads = 2 + Rng.below rng 4 in
  let t_ops = 1 + Rng.below rng 5 in
  let t_keys = 2 + Rng.below rng 6 in
  let t_quantum = pick rng [| 2_000; 20_000; 200_000; 1_000_000 |] in
  let t_read_slack = pick rng [| 0; 0; 0; 200; 1_000 |] in
  let t_noise_bits = pick rng [| 62; 62; 16; 8; 0 |] in
  let t_wseed = Rng.below rng 1_000_000 in
  let seed = Rng.below rng 1_000_000 in
  let nspecs = 1 + Rng.below rng 3 in
  let specs = ref [] in
  for _ = 1 to nspecs do
    specs := gen_spec rng t_threads :: !specs
  done;
  {
    t_entry = e;
    t_topo;
    t_threads;
    t_ops;
    t_keys;
    t_quantum;
    t_read_slack;
    t_noise_bits;
    t_wseed;
    t_plan = { Fault.seed; specs = List.rev !specs };
  }

(* Most aggressive first: losing a whole spec beats halving a duration
   beats halving a hit count beats shaving a workload dimension. *)
let shrink_steps tr =
  let halve_duration (sp : Fault.spec) =
    match sp.f_action with
    | Fault.Stall n when n > 1_000 ->
        Some { sp with f_action = Fault.Stall (n / 2) }
    | Fault.Storm { victims; duration } when duration > 1_000 ->
        Some
          { sp with f_action = Fault.Storm { victims; duration = duration / 2 } }
    | _ -> None
  in
  let halve_hits (sp : Fault.spec) =
    if sp.f_hits > 1 then Some { sp with f_hits = sp.f_hits / 2 } else None
  in
  List.map
    (fun p -> { tr with t_plan = p })
    (plan_steps tr.t_plan [ halve_duration; halve_hits ])
  @ (if tr.t_threads > 2 && top_thread tr.t_plan < tr.t_threads - 1 then
       [ { tr with t_threads = tr.t_threads - 1 } ]
     else [])
  @ (if tr.t_ops > 1 then [ { tr with t_ops = tr.t_ops - 1 } ] else [])
  @ if tr.t_keys > 2 then [ { tr with t_keys = tr.t_keys - 1 } ] else []

let sets entries : (module TRIAL with type t = trial) =
  (module struct
    type t = trial

    let name = "chaos"
    let command = "chaos"
    let to_string = to_string
    let of_string = of_string
    let gen = gen_trial entries
    let shrink_steps = shrink_steps
    let shrink_budget = 300
    let run = run_trial
  end)

(* ------------------------------------------------------------------ *)
(* KV service trials                                                   *)

(* Trials over the sharded KV service: the structure-level oracles above
   do not apply (the service retries, fails over and sheds on purpose);
   the oracles here are the service's own — the run terminates, the
   stores stay valid, and no acknowledged write is lost or duplicated.

   The warranty the oracle judges against is re-armable: each completed
   resync restores a pair's f = 1 budget, so the generator may schedule
   many sequential crashes per pair (spaced by a guessed resync window),
   plus deliberate double-crash-during-resync schedules via
   [resynccrash]. Crash schedules the service could not absorb void the
   pair and the oracle excuses their losses ([warranted_ok]), so every
   plan is legal; what it must never see is:
   - an acked write lost or duplicated in a pair still under warranty;
   - a pair that took a crash mid-resync yet claims its warranty back
     (a fired [Resync_crash] must leave that pair Voided — anything
     else is a forged re-arm);
   - client crashes only at op-boundary (between requests, outside any
     structure lock protocol), so an abort is never excusable;
   - stall/storm durations far below the watchdog's starvation horizon.
   Any failure a fuzz run finds is therefore a real robustness bug, not
   an out-of-warranty plan. *)
module Kv_trial = struct
  type t = Kv.config

  let name = "chaos-kv"
  let command = "kv"

  (* A config without a plan prints no [f] token. *)
  let to_string (c : t) =
    "kv/" ^ c.rep ^ "@" ^ topology_name c.topo
    ^ Harness.Knob.to_string Kv.knobs c

  (* What a trial string leaves out: the replay head's own defaults, not
     the CLI's, so that no string changes meaning. *)
  let defaults =
    {
      Kv.default_config with
      nshards = 1;
      threads = 2;
      ops = 100;
      seed = 0;
      workload = { Kv.default_workload with keys = 64; read_pct = 50 };
      plan = Some no_plan;
    }

  let of_string =
    parse
      ~head:(fun name topo ->
        let rep =
          rep_of ~family:"kv"
            ~check:(fun r -> ignore (Kv.rep_ops r : (module R.SET_OPS)))
            name
        in
        { defaults with rep; topo = topology_of_name topo })
      ~knobs:Kv.knobs ~check:Kv.check

  let judge (c : t) ((m, r) : Harness.Runner.measurement * Kv.result) =
    let o = r.Kv.res_oracle in
    let acked =
      unless o.Kv.warranted_ok "acked-write" (fun () ->
          Printf.sprintf "%d lost in warranty, %d duplicated (of %d acked)"
            (List.length o.Kv.lost_unwarranted)
            (List.length o.Kv.duplicated)
            o.Kv.acked_writes)
    in
    (* Must-drop: a crash that fired mid-resync (a [Resync_crash] only
       counts hits while its pair is copying) is the pair's second crash
       before catch-up, and later successful resyncs must not re-arm it.
       A final warranty other than Voided is a forged re-arm. *)
    let voided =
      List.concat_map
        (fun (e : Fault.event) ->
          match e.e_spec.f_action with
          | Fault.Resync_crash { shard; _ } ->
              let w = r.Kv.res_warranty.(shard mod c.nshards) in
              unless (w = Kv.Voided) "warranty" (fun () ->
                  Printf.sprintf
                    "crash fired mid-resync on pair %d yet warranty is %s \
                     (must drop to voided)"
                    (shard mod c.nshards) (Kv.warranty_name w))
          | _ -> [])
        m.fired
    in
    run_failures m @ acked @ voided

  let run (c : t) =
    let ((m, r) as run) = Kv.run c in
    {
      failures = judge c run;
      detail = Format.asprintf "%a" Kv.pp_oracle r.Kv.res_oracle;
      measurement = m;
    }

  let reps =
    [| "hashtable/optik"; "list/optik"; "list/harris"; "skiplist/optik2" |]

  let gen rng =
    let rep = pick rng reps in
    let topo = snd (pick rng topos) in
    let nshards = 1 + Rng.below rng 4 in
    let threads = 2 + Rng.below rng 5 in
    let ops = 200 + Rng.below rng 1_000 in
    let keys = 64 + Rng.below rng 448 in
    let read_pct = Rng.below rng 90 in
    let scan_pct = Rng.below rng (91 - read_pct) in
    let wseed = Rng.below rng 1_000_000 in
    let degraded_cycles = 2_000 + Rng.below rng 60_000 in
    let resync_batch = 8 lsl Rng.below rng 5 (* 8..128 *) in
    let seed = Rng.below rng 1_000_000 in
    let specs = ref [] in
    (* Shard faults: per pair, a short sequence of crashes. The re-armable
       warranty makes any schedule legal — crashes the resync absorbs are
       judged strictly, crashes that land before catch-up void the pair
       and the oracle excuses it — so the generator need not ration the
       f = 1 budget; it spaces crashes by a guessed resync window to give
       re-arms a chance, and sometimes aims a [resynccrash] at the
       recovery window on purpose (the double-crash-during-resync
       family). *)
    for i = 0 to nshards - 1 do
      let ncrashes = Rng.below rng 3 in
      let hits = ref 0 in
      for c = 0 to ncrashes - 1 do
        let store = if Rng.below rng 2 = 0 then i else nshards + i in
        let point = pick rng points in
        hits := !hits + 1 + Rng.below rng (min 200 ops);
        let r = Rng.below rng 3 in
        let down_for = if r = 0 then 0 else 2_000 + Rng.below rng 100_000 in
        specs := Fault.shard_crash ~hits:!hits ~down_for store point :: !specs;
        if r = 0 && Rng.below rng 2 = 0 then
          specs :=
            Fault.shard_recover ~hits:(!hits + 1 + Rng.below rng 50) store
              Rt.Rt_intf.Op_boundary
            :: !specs;
        (* Double-crash-during-resync: crash the pair's other store a few
           hits into the repair the crash above provokes ([resynccrash]
           hits only count while the pair is mid-copy, so placement needs
           no timing knowledge). *)
        if c = ncrashes - 1 && Rng.below rng 3 = 0 then begin
          let other = if store < nshards then nshards + i else i in
          specs :=
            Fault.resync_crash
              ~hits:(1 + Rng.below rng 8)
              ~down_for:(2_000 + Rng.below rng 50_000)
              other Rt.Rt_intf.Op_boundary
            :: !specs
        end
      done
    done;
    (* Client faults: crashes only between requests (op-boundary — outside
       any lock protocol, so aborts are never excusable), stalls and storms
       anywhere, all far below the watchdog horizon. *)
    let nclient = Rng.below rng 3 in
    let ncrashes = ref 0 in
    for _ = 1 to nclient do
      let r = Rng.below rng 10 in
      if r < 3 && !ncrashes < threads - 1 then begin
        incr ncrashes;
        specs :=
          Fault.crash
            ~tid:(Rng.below rng threads)
            ~hits:(1 + Rng.below rng (min 100 ops))
            Rt.Rt_intf.Op_boundary
          :: !specs
      end
      else
        let point = pick rng points in
        let hits = 1 + Rng.below rng 50 in
        if r < 7 then
          specs := Fault.stall ~hits (500 + Rng.below rng 50_000) point :: !specs
        else
          specs := Fault.storm ~hits (500 + Rng.below rng 50_000) point :: !specs
    done;
    {
      Kv.rep;
      nshards;
      threads;
      ops;
      seed = wseed;
      topo;
      workload = { Kv.default_workload with keys; read_pct; scan_pct };
      policy = { Kv.default_policy with degraded_cycles; resync_batch };
      plan = Some { Fault.seed; specs = List.rev !specs };
    }

  (* Drop fault specs, shorten crash windows, shave client threads and
     ops. Shard count stays put — replica store indices are [nshards + i],
     so changing it would re-address the plan. *)
  let shrink_steps (c : t) =
    let halve_window (sp : Fault.spec) =
      match sp.f_action with
      | Fault.Shard_crash { shard; down_for } when down_for > 4_000 ->
          let down_for = down_for / 2 in
          Some { sp with f_action = Fault.Shard_crash { shard; down_for } }
      | Fault.Resync_crash { shard; down_for } when down_for > 4_000 ->
          let down_for = down_for / 2 in
          Some { sp with f_action = Fault.Resync_crash { shard; down_for } }
      | _ -> None
    in
    let plan = Option.value c.Kv.plan ~default:no_plan in
    let w = c.workload and p = c.policy in
    List.map
      (fun plan -> { c with plan = Some plan })
      (plan_steps plan [ halve_window ])
    @ (if c.threads > 2 && top_thread plan < c.threads - 1 then
         [ { c with threads = c.threads - 1 } ]
       else [])
    @ (if c.ops > 100 then [ { c with ops = c.ops / 2 } ] else [])
    @ (if w.keys > 64 then [ { c with workload = { w with keys = w.keys / 2 } } ]
       else [])
    @ (if p.degraded_cycles > 2_000 then
         [ { c with policy = { p with degraded_cycles = p.degraded_cycles / 2 } } ]
       else [])
    @
    if p.resync_batch > 8 then
      [ { c with policy = { p with resync_batch = p.resync_batch / 2 } } ]
    else []

  let shrink_budget = 60
end

(* ------------------------------------------------------------------ *)
(* Transaction trials                                                  *)

module Txn_trial = struct
  module W = Txn.Workload

  type t = W.config

  let name = "chaos-txn"
  let command = "txn"

  let to_string (c : t) =
    "txn/" ^ c.W.rep ^ "@" ^ topology_name c.topo
    ^ Harness.Knob.to_string W.knobs c

  (* The replay head's own defaults, as for kv. *)
  let defaults =
    {
      W.default_config with
      objects = 2;
      accounts = 8;
      threads = 2;
      ops = 200;
      seed = 0;
    }

  let of_string =
    parse
      ~head:(fun name topo ->
        let rep =
          rep_of ~family:"txn" ~check:(fun r -> ignore (W.rep r)) name
        in
        { defaults with W.rep; topo = topology_of_name topo })
      ~knobs:W.knobs ~check:W.check

  (* The transaction oracle: liveness and structure validity, then
     strict serializability of the committed history
     ({!Txn.Workload.check_serializable} — replay in ticket order plus
     snapshot positioning). *)
  let judge (_ : t) ((m, r) : Harness.Runner.measurement * W.result) =
    let o = r.Txn.Workload.res_oracle in
    let serial =
      unless o.Txn.Workload.ok "serializability" (fun () ->
          Printf.sprintf "%d violations (%d transfers, %d audits)%s"
            (List.length o.Txn.Workload.violations)
            o.Txn.Workload.transfers o.Txn.Workload.audits
            (match o.Txn.Workload.violations with v :: _ -> ": " ^ v | [] -> ""))
    in
    run_failures m @ serial

  let run (c : t) =
    let ((m, r) as run) = W.run c in
    {
      failures = judge c run;
      detail = Format.asprintf "%a" W.pp_oracle r.W.res_oracle;
      measurement = m;
    }

  let reps =
    [|
      "list/optik"; "map/optik"; "hashtable/optik"; "skiplist/optik2";
      "bst/bst-optik"; "list/lazy";
    |]

  (* The recorded trial streams draw the fields from last to first, the
     order the compiler once evaluated this record's literal in. *)
  let gen rng =
    let seed = Rng.below rng 1_000_000 in
    let transfer_pct = 30 + Rng.below rng 71 in
    let ops = 200 + Rng.below rng 1_500 in
    let threads = 2 + Rng.below rng 6 in
    let accounts = 2 + Rng.below rng 30 in
    let objects = 1 + Rng.below rng 4 in
    let topo = snd (pick rng topos) in
    let rep = pick rng reps in
    {
      W.rep;
      topo;
      objects;
      accounts;
      threads;
      ops;
      transfer_pct;
      seed;
      broken = false;
    }

  let shrink_steps (c : t) =
    (if c.W.threads > 2 then [ { c with threads = c.threads - 1 } ] else [])
    @ (if c.ops > 100 then [ { c with ops = c.ops / 2 } ] else [])
    @ (if c.accounts > 2 then [ { c with accounts = c.accounts / 2 } ] else [])
    @
    if c.objects > 1 && (c.objects - 1) * c.accounts >= 2 then
      [ { c with objects = c.objects - 1 } ]
    else []

  let shrink_budget = 60
end
