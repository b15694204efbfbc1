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

module type TRIAL = sig
  type t

  val name : string
  val command : string
  val to_string : t -> string
  val of_string : string -> t
  val gen : Rng.t -> t
  val shrink_steps : t -> t list
  val shrink_budget : int
  val run : t -> failure list * string
end

(* ------------------------------------------------------------------ *)
(* The trial-string grammar every family shares                        *)

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let parse_error fmt = Printf.ksprintf invalid_arg ("Chaos.of_string: " ^^ fmt)

let parse_int what s =
  match int_of_string_opt s with
  | Some n -> n
  | None -> parse_error "bad %s %S" what s

let topo_names = [| "u2"; "u4"; "xeon"; "opteron" |]

let topology_of_name = function
  | "u2" -> Sim.Topology.uniform ~n:2 ()
  | "u4" -> Sim.Topology.uniform ~n:4 ()
  | "xeon" -> Sim.Topology.xeon
  | "opteron" -> Sim.Topology.opteron
  | s -> invalid_arg (Printf.sprintf "Chaos: unknown topology %S" s)

(* One entry of a family's field table, keyed by the token's first
   character. *)
type 'a field =
  | Int of string * ('a -> int -> 'a)  (* [cN]; the string names it in errors *)
  | Text of ('a -> string -> 'a)  (* [cTEXT], e.g. a fault plan *)
  | Flag of ('a -> 'a)  (* the bare one-character token [c] *)

(* [name@topo tok ...]: [head name topo] validates the head and builds the
   family's defaults, each token then sets one field, and [check] judges
   the result as a whole. *)
let parse ~head ~fields ~check s =
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
            match (List.assoc_opt tok.[0] fields, v) with
            | Some (Flag f), "" -> f tr
            | Some (Int (what, f)), _ when v <> "" -> f tr (parse_int what v)
            | Some (Text f), _ when v <> "" -> f tr v
            | _ -> parse_error "bad token %S" tok)
          (head name topo) toks
      in
      check tr;
      tr

(* The [family/rep] head of the service families; [check] refuses a rep
   the service does not take. *)
let rep_of ~family ~check name topo =
  let p = family ^ "/" in
  if not (has_prefix p name) then
    parse_error "%s trial must start with %s<rep>, got %S" family p name;
  let rep =
    String.sub name (String.length p) (String.length name - String.length p)
  in
  check rep;
  ignore (topology_of_name topo : Sim.Topology.t);
  rep

let check_pct what v =
  if v < 0 || v > 100 then parse_error "%s must be in [0,100], got %d" what v

let check_positive what v =
  if v < 1 then parse_error "%s must be positive, got %d" what v

(* Every grammar's thread count: the structures' QSBR domains have room
   for [Mem.Qsbr.default_max_threads] thread ids, so a larger run would
   simulate until its first reclamation and then die. *)
let check_threads v =
  check_positive "threads" v;
  if v > Mem.Qsbr.default_max_threads then
    parse_error "threads must be at most %d (QSBR's thread cap), got %d"
      Mem.Qsbr.default_max_threads v

(* A fault plan aims only at what the trial has: each spec's [t] and
   storm victims at one of its [threads], each shard fault at one of its
   [stores] (a kv trial's primaries and replicas; a structure trial has
   none). *)
let check_targets ~threads ~stores (plan : Fault.plan) =
  List.iter
    (fun (sp : Fault.spec) ->
      let aim what v n unit =
        if v < 0 || v >= n then
          parse_error "fault spec %S targets %s %d, but the trial has %d %s"
            (Fault.spec_to_string sp) what v n unit
      in
      Option.iter (fun t -> aim "thread" t threads "threads") sp.f_tid;
      match sp.f_action with
      | Fault.Storm { victims; _ } ->
          List.iter (fun v -> aim "victim thread" v threads "threads") victims
      | Fault.Shard_crash { shard; _ }
      | Fault.Shard_recover shard
      | Fault.Resync_crash { shard; _ } ->
          aim "store" shard stores "stores"
      | Fault.Crash | Fault.Stall _ -> ())
    plan.specs

(* The highest thread a plan names (-1 if none): shrinking a trial's
   threads past it would leave a string [check_targets] rejects. *)
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

let service_liveness what (m : Harness.Runner.measurement) =
  match m.Harness.Runner.outcome with
  | Harness.Runner.Complete -> []
  | Harness.Runner.Aborted rep ->
      let detail = Format.asprintf "%a" Sched.pp_verdict rep.Sched.r_verdict in
      [ { f_oracle = "liveness"; f_detail = what ^ " aborted: " ^ detail } ]

(* ------------------------------------------------------------------ *)
(* The driver: fuzz, shrink, replay                                    *)

let shrink (type a) (module T : TRIAL with type t = a) (tr0 : a) : a =
  let fails tr = fst (T.run tr) <> [] in
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
   stream. *)
let fuzz_range (module T : TRIAL) ~offset ~runs ~seed ppf =
  let failed = ref 0 in
  for i = offset to offset + runs - 1 do
    let tr = T.gen (Rng.create (seed + (i * 1_000_003))) in
    match fst (T.run tr) with
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
  !failed

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
            let failed = fuzz_range m ~offset ~runs ~seed ppf in
            Format.pp_print_flush ppf ();
            (failed, Buffer.contents buf)))
  in
  let results = Harness.Fleet.map ~jobs tasks in
  let failed = List.fold_left (fun a (f, _) -> a + f) 0 results in
  ( failed,
    String.concat "" (List.map snd results)
    ^ Printf.sprintf "%s: %d/%d trials failed (seed %d)\n" T.name failed runs
        seed )

let replay (module T : TRIAL) s ppf =
  let tr = T.of_string s in
  let fs, detail = T.run tr in
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
    (fun n -> not (has_prefix "skiplist/" n || has_prefix "bst/" n))
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

let to_string tr =
  Printf.sprintf "%s@%s t%d o%d k%d q%d r%d n%d w%d f%s" (R.id tr.t_entry)
    tr.t_topo tr.t_threads tr.t_ops tr.t_keys tr.t_quantum tr.t_read_slack
    tr.t_noise_bits tr.t_wseed
    (Fault.to_string tr.t_plan)

(* The largest key count a structure trial accepts. A trial prefills
   [keys / 2] keys one simulated operation at a time, so a sorted list's
   prefill grows with the square of [keys] (k20000 takes about half a
   second), and array maps and hash tables allocate [4 * keys + 16]
   slots up front. At 4096 a two-op trial still replays in well under a
   second (list/optik in 0.03 s, map/mcs, the slowest, in 0.4 s) and the
   largest table has about 16k slots, while the fuzzer draws at most 7
   keys and every pinned trial uses at most that. *)
let max_keys = 4096

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
        t_plan = { Fault.seed = 0; specs = [] };
      })
    ~fields:
      [
        ('t', Int ("threads", fun tr v -> { tr with t_threads = v }));
        ('o', Int ("ops", fun tr v -> { tr with t_ops = v }));
        ('k', Int ("keys", fun tr v -> { tr with t_keys = v }));
        ('q', Int ("quantum", fun tr v -> { tr with t_quantum = v }));
        ('r', Int ("read-slack", fun tr v -> { tr with t_read_slack = v }));
        ('n', Int ("noise-bits", fun tr v -> { tr with t_noise_bits = v }));
        ('w', Int ("workload seed", fun tr v -> { tr with t_wseed = v }));
        ('f', Text (fun tr v -> { tr with t_plan = Fault.of_string v }));
      ]
    ~check:(fun tr ->
      check_threads tr.t_threads;
      check_positive "ops" tr.t_ops;
      check_positive "keys" tr.t_keys;
      if tr.t_keys > max_keys then
        parse_error "keys must be at most %d, got %d" max_keys tr.t_keys;
      if tr.t_quantum < 1 then
        parse_error "quantum must be positive, got %d" tr.t_quantum;
      if tr.t_read_slack < 0 then
        parse_error "read-slack must be >= 0, got %d" tr.t_read_slack;
      if tr.t_noise_bits < 0 || tr.t_noise_bits > 62 then
        parse_error "noise-bits must be in [0,62], got %d" tr.t_noise_bits;
      check_targets ~threads:tr.t_threads ~stores:0 tr.t_plan)

type outcome = {
  o_completed : bool;
  o_crashed : int list;
  o_failures : failure list;
}

(* Aggressive watchdog: chaos workloads are a handful of operations, so
   anything that spins a million cycles without completing one is stuck. *)
let watchdog = { Sched.check_events = 5_000; starve_cycles = 1_000_000 }
let trial_max_events = 2_000_000

(* A crashed lock holder can leave the sole surviving thread spinning in
   a pure-inline loop: with the event heap empty the simulator inlines
   every probe, so neither the watchdog nor the event budget ever runs.
   A modest inline-op budget turns that into a prompt Starved verdict. *)
let trial_max_inline_ops = 5_000_000

(* Which threads did the plan actually crash, and where? Read from the
   fault log after the run (it survives plan removal). *)
let crash_events () =
  List.filter_map
    (fun (e : Fault.event) ->
      match e.e_spec.f_action with
      | Fault.Crash -> Some (e.e_tid, e.e_spec.f_point)
      | Fault.Stall _ | Fault.Storm _ | Fault.Shard_crash _
      | Fault.Shard_recover _ | Fault.Resync_crash _ ->
          None)
    (Fault.events ())

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

let liveness_failures guarantee outcome crash_pts =
  match outcome with
  | Harness.Runner.Complete -> []
  | Harness.Runner.Aborted _
    when guarantee = R.Blocking && crash_mid_op crash_pts ->
      []
  | Harness.Runner.Aborted r ->
      let detail = Format.asprintf "%a" Sched.pp_verdict r.Sched.r_verdict in
      [ { f_oracle = "liveness"; f_detail = detail ^ " — " ^ r.Sched.r_reason } ]

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

module Queue_container (Q : R.QUEUE_OPS) = struct
  module Spec = Lincheck.Queue_spec

  type t = Q.t

  let setup tr =
    let q = Q.create () in
    let pre = prefill tr in
    List.iter (Q.enqueue q) pre;
    (q, pre, List.length pre)

  let draw rng ~keys:_ ~v =
    if Rng.below rng 2 = 0 then Spec.Enqueue v else Spec.Dequeue

  let apply q = function
    | Spec.Enqueue v ->
        Q.enqueue q v;
        (Spec.Unit, None)
    | Spec.Dequeue -> (
        match Q.dequeue q with
        | Some v -> (Spec.Got v, Some v)
        | None -> (Spec.Empty, None))

  let delta input output =
    match (input, output) with
    | Spec.Enqueue _, _ -> 1
    | Spec.Dequeue, (None | Some (Spec.Got _)) -> -1
    | _ -> 0

  let size = Q.size
  let validate ~crashed:_ _ = true
end

module Stack_container (St : R.STACK_OPS) = struct
  module Spec = Lincheck.Stack_spec

  type t = St.t

  let setup tr =
    let s = St.create () in
    let pre = prefill tr in
    List.iter (St.push s) pre;
    (s, List.rev pre, List.length pre)

  let draw rng ~keys:_ ~v = if Rng.below rng 2 = 0 then Spec.Push v else Spec.Pop

  let apply s = function
    | Spec.Push v ->
        St.push s v;
        (Spec.Unit, None)
    | Spec.Pop -> (
        match St.pop s with
        | Some v -> (Spec.Got v, Some v)
        | None -> (Spec.Empty, None))

  let delta input output =
    match (input, output) with
    | Spec.Push _, _ -> 1
    | Spec.Pop, (None | Some (Spec.Got _)) -> -1
    | _ -> 0

  let size = St.size
  let validate ~crashed:_ _ = true
end

(* The one container runner: every thread draws and applies [t_ops] ops
   under QSBR, recording the history; then the oracles run — liveness,
   and unless a crash voided the state warranty, crash-aware
   linearizability, size accounting against the history and the
   structure's own validation; QSBR accounting always. *)
module Container (C : CONTAINER) = struct
  module H = Harness.History.Make (C.Spec)
  module L = H.L

  let run tr =
    let t, init, init_n = C.setup tr in
    let hist = H.create ~nthreads:tr.t_threads in
    let q = Qsbr.create ~batch_size:4 () in
    let _stats, outcome =
      Harness.Runner.run_guarded ~faults:tr.t_plan ~watchdog
        ~max_events:trial_max_events ~max_inline_ops:trial_max_inline_ops
        ~quantum:tr.t_quantum ~read_slack:tr.t_read_slack
        ~topology:(topology_of_name tr.t_topo)
        ~nthreads:tr.t_threads ~ops_target:0
        (fun tid ->
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
    let crash_pts = crash_events () in
    let crashed = List.sort_uniq compare (List.map fst crash_pts) in
    let live_fail = liveness_failures guarantee outcome crash_pts in
    let state_fail =
      if live_fail <> [] || (guarantee = R.Blocking && crash_mid_op crash_pts)
      then []
      else
        let completed = H.completed ~widen:tr.t_read_slack hist in
        let pending = H.pending ~widen:tr.t_read_slack hist in
        let lin =
          unless (L.check ~init ~pending completed <> L.No_witness)
            "linearizability" (fun () ->
              Printf.sprintf "no linearization of %d completed + %d pending ops"
                (List.length completed) (List.length pending))
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
        lin @ size
        @ unless (C.validate ~crashed:(List.length crashed) t) "validate" (fun () -> "validation failed")
    in
    let qsbr_fail = qsbr_failures q crashed in
    ( (match outcome with Harness.Runner.Complete -> true | _ -> false),
      crashed,
      live_fail @ state_fail @ qsbr_fail )
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
  let completed, crashed, failures =
    match tr.t_entry.R.structure with
    | R.Set (module S) ->
        let module C = Container (Set_container (S)) in
        C.run tr
    | R.Queue (module Q) ->
        let module C = Container (Queue_container (Q)) in
        C.run tr
    | R.Stack (module S) ->
        let module C = Container (Stack_container (S)) in
        C.run tr
  in
  { o_completed = completed; o_crashed = crashed; o_failures = failures }

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
  let t_topo = pick rng topo_names in
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

    let run tr =
      let o = run_trial tr in
      ( o.o_failures,
        Printf.sprintf "run %s; crashed threads [%s]"
          (if o.o_completed then "completed" else "aborted")
          (String.concat ";" (List.map string_of_int o.o_crashed)) )
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
  type t = {
    kv_rep : string;
    kv_topo : string;
    kv_shards : int;
    kv_threads : int;
    kv_ops : int;
    kv_keys : int;
    kv_read : int;
    kv_scan : int;
    kv_wseed : int;
    kv_degraded : int;
    kv_batch : int;
    kv_plan : Fault.plan;
  }

  let name = "chaos-kv"
  let command = "kv"

  let to_string tr =
    Printf.sprintf "kv/%s@%s s%d t%d o%d k%d R%d C%d w%d D%d B%d f%s" tr.kv_rep
      tr.kv_topo tr.kv_shards tr.kv_threads tr.kv_ops tr.kv_keys tr.kv_read
      tr.kv_scan tr.kv_wseed tr.kv_degraded tr.kv_batch
      (Fault.to_string tr.kv_plan)

  let of_string =
    parse
      ~head:(fun name topo ->
        {
          kv_rep =
            rep_of ~family:"kv"
              ~check:(fun r -> ignore (Kv.rep_ops r : (module R.SET_OPS)))
              name topo;
          kv_topo = topo;
          kv_shards = 1;
          kv_threads = 2;
          kv_ops = 100;
          kv_keys = 64;
          kv_read = 50;
          kv_scan = 10;
          kv_wseed = 0;
          kv_degraded = Kv.default_policy.Kv.degraded_cycles;
          kv_batch = Kv.default_policy.Kv.resync_batch;
          kv_plan = { Fault.seed = 0; specs = [] };
        })
      ~fields:
        [
          ('s', Int ("shards", fun tr v -> { tr with kv_shards = v }));
          ('t', Int ("threads", fun tr v -> { tr with kv_threads = v }));
          ('o', Int ("ops", fun tr v -> { tr with kv_ops = v }));
          ('k', Int ("keys", fun tr v -> { tr with kv_keys = v }));
          ('R', Int ("read pct", fun tr v -> { tr with kv_read = v }));
          ('C', Int ("scan pct", fun tr v -> { tr with kv_scan = v }));
          ('w', Int ("workload seed", fun tr v -> { tr with kv_wseed = v }));
          ('D', Int ("degraded", fun tr v -> { tr with kv_degraded = v }));
          ('B', Int ("batch", fun tr v -> { tr with kv_batch = v }));
          ('f', Text (fun tr v -> { tr with kv_plan = Fault.of_string v }));
        ]
      ~check:(fun tr ->
        check_positive "shards" tr.kv_shards;
        check_threads tr.kv_threads;
        check_positive "ops" tr.kv_ops;
        check_positive "keys" tr.kv_keys;
        if tr.kv_degraded < 0 then
          parse_error "degraded must be >= 0, got %d" tr.kv_degraded;
        check_positive "batch" tr.kv_batch;
        check_pct "read pct" tr.kv_read;
        check_pct "scan pct" tr.kv_scan;
        check_pct "read + scan pct" (tr.kv_read + tr.kv_scan);
        check_targets ~threads:tr.kv_threads ~stores:(2 * tr.kv_shards)
          tr.kv_plan)

  let config tr : Kv.config =
    {
      Kv.rep = tr.kv_rep;
      nshards = tr.kv_shards;
      threads = tr.kv_threads;
      ops = tr.kv_ops;
      seed = tr.kv_wseed;
      topo = topology_of_name tr.kv_topo;
      workload =
        {
          Kv.default_workload with
          Kv.keys = tr.kv_keys;
          read_pct = tr.kv_read;
          scan_pct = tr.kv_scan;
        };
      policy =
        {
          Kv.default_policy with
          Kv.degraded_cycles = tr.kv_degraded;
          resync_batch = tr.kv_batch;
        };
      plan = Some tr.kv_plan;
    }

  let run tr =
    let m, r = Kv.run (config tr) in
    let o = r.Kv.res_oracle in
    let valid =
      unless m.Harness.Runner.valid "validate" (fun () ->
          "a shard store is invalid")
    in
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
              let w = r.Kv.res_warranty.(shard mod tr.kv_shards) in
              unless (w = Kv.Voided) "warranty" (fun () ->
                  Printf.sprintf
                    "crash fired mid-resync on pair %d yet warranty is %s \
                     (must drop to voided)"
                    (shard mod tr.kv_shards) (Kv.warranty_name w))
          | _ -> [])
        (Fault.events ())
    in
    ( service_liveness "service" m @ valid @ acked @ voided,
      Format.asprintf "%a" Kv.pp_oracle o )

  let reps =
    [| "hashtable/optik"; "list/optik"; "list/harris"; "skiplist/optik2" |]

  let gen rng =
    let kv_rep = pick rng reps in
    let kv_topo = pick rng topo_names in
    let kv_shards = 1 + Rng.below rng 4 in
    let kv_threads = 2 + Rng.below rng 5 in
    let kv_ops = 200 + Rng.below rng 1_000 in
    let kv_keys = 64 + Rng.below rng 448 in
    let kv_read = Rng.below rng 90 in
    let kv_scan = Rng.below rng (91 - kv_read) in
    let kv_wseed = Rng.below rng 1_000_000 in
    let kv_degraded = 2_000 + Rng.below rng 60_000 in
    let kv_batch = 8 lsl Rng.below rng 5 (* 8..128 *) in
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
    for i = 0 to kv_shards - 1 do
      let ncrashes = Rng.below rng 3 in
      let hits = ref 0 in
      for c = 0 to ncrashes - 1 do
        let store = if Rng.below rng 2 = 0 then i else kv_shards + i in
        let point = pick rng points in
        hits := !hits + 1 + Rng.below rng (min 200 kv_ops);
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
          let other = if store < kv_shards then kv_shards + i else i in
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
      if r < 3 && !ncrashes < kv_threads - 1 then begin
        incr ncrashes;
        specs :=
          Fault.crash
            ~tid:(Rng.below rng kv_threads)
            ~hits:(1 + Rng.below rng (min 100 kv_ops))
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
      kv_rep;
      kv_topo;
      kv_shards;
      kv_threads;
      kv_ops;
      kv_keys;
      kv_read;
      kv_scan;
      kv_wseed;
      kv_degraded;
      kv_batch;
      kv_plan = { Fault.seed; specs = List.rev !specs };
    }

  (* Drop fault specs, shorten crash windows, shave client threads and
     ops. Shard count stays put — replica store indices are [nshards + i],
     so changing it would re-address the plan. *)
  let shrink_steps tr =
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
    List.map
      (fun p -> { tr with kv_plan = p })
      (plan_steps tr.kv_plan [ halve_window ])
    @ (if tr.kv_threads > 2 && top_thread tr.kv_plan < tr.kv_threads - 1 then
         [ { tr with kv_threads = tr.kv_threads - 1 } ]
       else [])
    @ (if tr.kv_ops > 100 then [ { tr with kv_ops = tr.kv_ops / 2 } ] else [])
    @ (if tr.kv_keys > 64 then [ { tr with kv_keys = tr.kv_keys / 2 } ] else [])
    @ (if tr.kv_degraded > 2_000 then
         [ { tr with kv_degraded = tr.kv_degraded / 2 } ]
       else [])
    @ if tr.kv_batch > 8 then [ { tr with kv_batch = tr.kv_batch / 2 } ] else []

  let shrink_budget = 60
end

(* ------------------------------------------------------------------ *)
(* Transaction trials                                                  *)

module Txn_trial = struct
  type t = {
    x_rep : string;
    x_topo : string;
    x_objects : int;
    x_accounts : int;
    x_threads : int;
    x_ops : int;
    x_transfer : int;
    x_wseed : int;
    x_broken : bool;
  }

  let name = "chaos-txn"
  let command = "txn"

  let to_string tr =
    Printf.sprintf "txn/%s@%s b%d a%d t%d o%d X%d w%d%s" tr.x_rep tr.x_topo
      tr.x_objects tr.x_accounts tr.x_threads tr.x_ops tr.x_transfer tr.x_wseed
      (if tr.x_broken then " !" else "")

  let of_string =
    parse
      ~head:(fun name topo ->
        {
          x_rep =
            rep_of ~family:"txn"
              ~check:(fun r -> ignore (Txn.Workload.rep r))
              name topo;
          x_topo = topo;
          x_objects = 2;
          x_accounts = 8;
          x_threads = 2;
          x_ops = 200;
          x_transfer = 70;
          x_wseed = 0;
          x_broken = false;
        })
      ~fields:
        [
          ('b', Int ("objects", fun tr v -> { tr with x_objects = v }));
          ('a', Int ("accounts", fun tr v -> { tr with x_accounts = v }));
          ('t', Int ("threads", fun tr v -> { tr with x_threads = v }));
          ('o', Int ("ops", fun tr v -> { tr with x_ops = v }));
          ('X', Int ("transfer pct", fun tr v -> { tr with x_transfer = v }));
          ('w', Int ("workload seed", fun tr v -> { tr with x_wseed = v }));
          ('!', Flag (fun tr -> { tr with x_broken = true }));
        ]
      ~check:(fun tr ->
        check_positive "objects" tr.x_objects;
        check_threads tr.x_threads;
        check_positive "ops" tr.x_ops;
        if tr.x_objects * tr.x_accounts < 2 then
          parse_error "need at least two account slots";
        check_pct "transfer pct" tr.x_transfer)

  let config tr : Txn.Workload.config =
    {
      Txn.Workload.rep = tr.x_rep;
      objects = tr.x_objects;
      accounts = tr.x_accounts;
      threads = tr.x_threads;
      ops = tr.x_ops;
      transfer_pct = tr.x_transfer;
      seed = tr.x_wseed;
      topo = topology_of_name tr.x_topo;
      broken = tr.x_broken;
    }

  (* The transaction oracle: strict serializability of the committed
     history ({!Txn.Workload.check_serializable} — replay in ticket order
     plus snapshot positioning), structure validity, and liveness. *)
  let run tr =
    let m, r = Txn.Workload.run (config tr) in
    let o = r.Txn.Workload.res_oracle in
    let valid =
      unless m.Harness.Runner.valid "validate" (fun () -> "an object is invalid")
    in
    let serial =
      unless o.Txn.Workload.ok "serializability" (fun () ->
          Printf.sprintf "%d violations (%d transfers, %d audits)%s"
            (List.length o.Txn.Workload.violations)
            o.Txn.Workload.transfers o.Txn.Workload.audits
            (match o.Txn.Workload.violations with v :: _ -> ": " ^ v | [] -> ""))
    in
    ( service_liveness "workload" m @ valid @ serial,
      Format.asprintf "%a" Txn.Workload.pp_oracle o )

  let reps =
    [|
      "list/optik"; "map/optik"; "hashtable/optik"; "skiplist/optik2";
      "bst/bst-optik"; "list/lazy";
    |]

  (* The fields' draw order is the compiler's record evaluation order;
     the recorded trial streams depend on it, so keep this one literal. *)
  let gen rng =
    {
      x_rep = pick rng reps;
      x_topo = pick rng topo_names;
      x_objects = 1 + Rng.below rng 4;
      x_accounts = 2 + Rng.below rng 30;
      x_threads = 2 + Rng.below rng 6;
      x_ops = 200 + Rng.below rng 1_500;
      x_transfer = 30 + Rng.below rng 71;
      x_wseed = Rng.below rng 1_000_000;
      x_broken = false;
    }

  let shrink_steps tr =
    (if tr.x_threads > 2 then [ { tr with x_threads = tr.x_threads - 1 } ]
     else [])
    @ (if tr.x_ops > 100 then [ { tr with x_ops = tr.x_ops / 2 } ] else [])
    @ (if tr.x_accounts > 2 then [ { tr with x_accounts = tr.x_accounts / 2 } ]
       else [])
    @
    if tr.x_objects > 1 && (tr.x_objects - 1) * tr.x_accounts >= 2 then
      [ { tr with x_objects = tr.x_objects - 1 } ]
    else []

  let shrink_budget = 60
end
