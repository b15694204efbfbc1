(* Shared machinery for the test suites: generic drivers that exercise any
   SET_OPS / QUEUE_OPS / STACK_OPS implementation
   - sequentially against a model,
   - concurrently on the simulator with invariant checks,
   - concurrently on the simulator with full linearizability checking,
   - concurrently on real domains. *)

module R = Harness.Registry
module Runner = Harness.Runner
module Rng = Harness.Rng

let uniform4 = Sim.Topology.uniform ~n:4 ()

(* The directory that holds [test/ledger.txt] and [BENCH_sim.json]: the
   working directory under [dune exec test/<suite>.exe] from the
   repository root, its parent under [dune runtest], which runs in dune's
   copy of [test/]. *)
let root () =
  match
    List.find_opt
      (fun d -> Sys.file_exists (Filename.concat d "test/ledger.txt"))
      [ Filename.current_dir_name; Filename.parent_dir_name ]
  with
  | Some d -> d
  | None ->
      failwith
        "no test/ledger.txt here or in the parent directory; run the test \
         from the repository root"

(* A synthetic measurement of [ops] operations on [threads] threads at
   [mops], with the given counters and nothing else. *)
let measurement ?(ops = 1000) ?(counters = []) ~threads ~mops () =
  {
    Runner.name = "x";
    topo_name = "xeon";
    seed = 0;
    threads;
    mops;
    ops;
    wall_s = 0.1;
    eff_update_pct = 20.;
    reads = 0;
    writes = 0;
    cas = 0;
    cas_failed = 0;
    faa = 0;
    events = 0;
    host_s = 0.1;
    lat = Array.map (fun _ -> Harness.Pstats.empty_summary) Runner.class_names;
    lat_classes = Runner.class_names;
    counters;
    final_size = 0;
    valid = true;
    outcome = Runner.Complete;
    obs = None;
  }

(* ------------------------------------------------------------------ *)
(* Sequential model checking                                           *)

module IntMap = Map.Make (Int)

(* Apply [nops] random operations to both the implementation and a model
   map; fail on the first divergence. Returns final model for extra
   checks. *)
let seq_against_model (module S : R.SET_OPS) ~capacity ~key_range ~nops ~seed
    =
  let t = S.create ~capacity () in
  let model = ref IntMap.empty in
  let rng = Rng.create seed in
  for i = 1 to nops do
    let k = 1 + Rng.below rng key_range in
    match Rng.below rng 3 with
    | 0 ->
        let got = S.search t k in
        let want = IntMap.find_opt k !model in
        if got <> want then
          Alcotest.failf "%s: op %d: search %d = %s, model says %s" S.name i k
            (match got with Some v -> string_of_int v | None -> "None")
            (match want with Some v -> string_of_int v | None -> "None")
    | 1 ->
        let got = S.insert t k i in
        let want = not (IntMap.mem k !model) in
        (* A full array map may refuse a feasible insert; tolerate it by
           checking one-way: insert true => model says feasible. *)
        if got && not want then
          Alcotest.failf "%s: op %d: insert %d succeeded but key present"
            S.name i k;
        if got then model := IntMap.add k i !model
        else if want && not (S.name = "mcs" || S.name = "optik") then
          (* non-map structures must accept feasible inserts *)
          Alcotest.failf "%s: op %d: insert %d refused" S.name i k
        else if (not got) && want then
          (* array map full: verify it really is out of capacity *)
          if IntMap.cardinal !model < capacity then
            Alcotest.failf "%s: op %d: insert %d refused with spare capacity"
              S.name i k
    | _ -> (
        let got = S.delete t k in
        let want = IntMap.find_opt k !model in
        (match (got, want) with
        | Some g, Some w when g <> w ->
            Alcotest.failf "%s: op %d: delete %d = %d, model says %d" S.name i
              k g w
        | Some _, None ->
            Alcotest.failf "%s: op %d: delete %d found phantom key" S.name i k
        | None, Some _ ->
            Alcotest.failf "%s: op %d: delete %d missed present key" S.name i
              k
        | _ -> ());
        model := IntMap.remove k !model)
  done;
  Alcotest.(check bool) (S.name ^ ": validate") true (S.validate t);
  Alcotest.(check int) (S.name ^ ": size") (IntMap.cardinal !model) (S.size t);
  !model

(* ------------------------------------------------------------------ *)
(* Concurrent runs on the simulator with conservation checks           *)

let concurrent_sim (module S : R.SET_OPS) ~capacity ~init_size ~key_range
    ~nthreads ~ops_per_thread ~seed ~topology () =
  Dstruct.Sl_common.reset_states ();
  let t = S.create ~capacity () in
  (* deterministic prefill *)
  let rng0 = Rng.create (seed + 1) in
  let n = ref 0 in
  while !n < init_size do
    let k = 1 + Rng.below rng0 key_range in
    if S.insert t k k then incr n
  done;
  let ins = Array.make nthreads 0 and del = Array.make nthreads 0 in
  let _st =
    Sim.Sched.run ~topology ~nthreads (fun tid ->
        let rng = Rng.create ((seed * 97) + tid) in
        for i = 1 to ops_per_thread do
          let k = 1 + Rng.below rng key_range in
          match Rng.below rng 4 with
          | 0 -> if S.insert t k ((tid * 1_000_000) + i) then ins.(tid) <- ins.(tid) + 1
          | 1 -> ( match S.delete t k with Some _ -> del.(tid) <- del.(tid) + 1 | None -> ())
          | _ -> ignore (S.search t k : int option)
        done)
  in
  let tins = Array.fold_left ( + ) 0 ins and tdel = Array.fold_left ( + ) 0 del in
  Alcotest.(check bool) (S.name ^ ": validate after run") true (S.validate t);
  Alcotest.(check int)
    (S.name ^ ": size conservation")
    (init_size + tins - tdel)
    (S.size t)

(* Same but on real domains. *)
let concurrent_native (module S : R.SET_OPS) ~capacity ~init_size ~key_range
    ~nthreads ~ops_per_thread ~seed () =
  let t = S.create ~capacity () in
  let rng0 = Rng.create (seed + 1) in
  let n = ref 0 in
  while !n < init_size do
    let k = 1 + Rng.below rng0 key_range in
    if S.insert t k k then incr n
  done;
  let ins = Array.make nthreads 0 and del = Array.make nthreads 0 in
  Rt.Native_rt.set_nthreads nthreads;
  let body tid () =
    Rt.Native_rt.set_tid tid;
    let rng = Rng.create ((seed * 97) + tid) in
    for i = 1 to ops_per_thread do
      let k = 1 + Rng.below rng key_range in
      match Rng.below rng 4 with
      | 0 -> if S.insert t k ((tid * 1_000_000) + i) then ins.(tid) <- ins.(tid) + 1
      | 1 -> ( match S.delete t k with Some _ -> del.(tid) <- del.(tid) + 1 | None -> ())
      | _ -> ignore (S.search t k : int option)
    done
  in
  let doms = List.init (nthreads - 1) (fun i -> Domain.spawn (body (i + 1))) in
  body 0 ();
  List.iter Domain.join doms;
  Rt.Native_rt.set_nthreads 1;
  let tins = Array.fold_left ( + ) 0 ins and tdel = Array.fold_left ( + ) 0 del in
  Alcotest.(check bool) (S.name ^ ": native validate") true (S.validate t);
  Alcotest.(check int)
    (S.name ^ ": native size conservation")
    (init_size + tins - tdel)
    (S.size t)

(* ------------------------------------------------------------------ *)
(* Linearizability checking over simulator histories                   *)

module HSet = Harness.History.Make (Lincheck.Set_spec)

(* Run a small adversarial schedule and check the recorded history for
   linearizability. Uses read_slack:0 so timestamps are strict. *)
let lincheck_set (module S : R.SET_OPS) ~nthreads ~ops_per_thread ~key_range
    ~seed () =
  Dstruct.Sl_common.reset_states ();
  let t = S.create ~capacity:64 () in
  (* initial contents become the spec's initial state *)
  let rng0 = Rng.create (seed + 5) in
  let init = ref Lincheck.Set_spec.M.empty in
  for _ = 1 to key_range / 2 do
    let k = 1 + Rng.below rng0 key_range in
    if S.insert t k k then init := Lincheck.Set_spec.M.add k k !init
  done;
  let h = HSet.create ~nthreads in
  let _st =
    Sim.Sched.run ~topology:uniform4 ~nthreads ~read_slack:0 (fun tid ->
        let rng = Rng.create ((seed * 131) + tid) in
        for _ = 1 to ops_per_thread do
          let k = 1 + Rng.below rng key_range in
          let found = function
            | Some v -> Lincheck.Set_spec.Found v
            | None -> Lincheck.Set_spec.Absent
          in
          ignore
            (match Rng.below rng 3 with
            | 0 ->
                HSet.record h (Lincheck.Set_spec.Search k) (fun () ->
                    found (S.search t k))
            | 1 ->
                HSet.record h
                  (Lincheck.Set_spec.Insert (k, k * 7))
                  (fun () ->
                    if S.insert t k (k * 7) then Lincheck.Set_spec.Ok
                    else Lincheck.Set_spec.Dup)
            | _ ->
                HSet.record h (Lincheck.Set_spec.Delete k) (fun () ->
                    found (S.delete t k)))
        done)
  in
  let events = HSet.completed h in
  match HSet.L.check ~init:!init events with
  | HSet.L.Witness _ -> ()
  | HSet.L.Too_large ->
      Alcotest.failf "%s: history too large to check (seed %d)" S.name seed
  | HSet.L.No_witness ->
      Alcotest.failf "%s: non-linearizable history (seed %d):@.%a" S.name seed
        HSet.L.pp_history events

module HQueue = Harness.History.Make (Lincheck.Queue_spec)

let lincheck_queue (module Q : R.QUEUE_OPS) ~nthreads ~ops_per_thread ~seed ()
    =
  let t = Q.create () in
  let rng0 = Rng.create (seed + 5) in
  let init = ref [] in
  for _ = 1 to 3 do
    let v = Rng.below rng0 100 in
    Q.enqueue t v;
    init := v :: !init
  done;
  let init_state = List.rev !init in
  let h = HQueue.create ~nthreads in
  let _st =
    Sim.Sched.run ~topology:uniform4 ~nthreads ~read_slack:0 (fun tid ->
        let rng = Rng.create ((seed * 131) + tid) in
        for i = 1 to ops_per_thread do
          ignore
            (if Rng.below rng 2 = 0 then
               let v = (tid * 1000) + i in
               HQueue.record h (Lincheck.Queue_spec.Enqueue v) (fun () ->
                   Q.enqueue t v;
                   Lincheck.Queue_spec.Unit)
             else
               HQueue.record h Lincheck.Queue_spec.Dequeue (fun () ->
                   match Q.dequeue t with
                   | Some v -> Lincheck.Queue_spec.Got v
                   | None -> Lincheck.Queue_spec.Empty))
        done)
  in
  let events = HQueue.completed h in
  match HQueue.L.check ~init:init_state events with
  | HQueue.L.Witness _ -> ()
  | HQueue.L.Too_large ->
      Alcotest.failf "%s: history too large to check (seed %d)" Q.name seed
  | HQueue.L.No_witness ->
      Alcotest.failf "%s: non-linearizable history (seed %d):@.%a" Q.name seed
        HQueue.L.pp_history events

(* ------------------------------------------------------------------ *)

(* Every qcheck case draws from the same written seed, so two runs draw
   identical cases; QCHECK_SEED overrides it to explore others. A
   failure names the seed it drew from. *)
let qcheck_seed () =
  Option.value ~default:42
    (Option.bind (Sys.getenv_opt "QCHECK_SEED") int_of_string_opt)

let qcheck_case ?(count = 50) ?print name gen prop =
  let seed = qcheck_seed () in
  let name, speed, run =
    QCheck_alcotest.to_alcotest
      ~rand:(Random.State.make [| seed |])
      (QCheck2.Test.make ~count ?print ~name gen prop)
  in
  ( name,
    speed,
    fun () ->
      try run ()
      with e ->
        Alcotest.failf "%s\nqcheck seed %d (rerun with QCHECK_SEED=%d)"
          (Printexc.to_string e) seed seed )
