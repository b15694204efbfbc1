(* Shared machinery for the test suites: generic drivers that exercise any
   SET_OPS / POOL_OPS implementation
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

(* ------------------------------------------------------------------ *)
(* Queues and stacks: one driver for a pool family's lineup            *)

let order_name (module P : R.POOL_OPS) = if P.lifo then "LIFO" else "FIFO"

(* Random ops against the family's spec: [x < 60] puts [x], any other
   [x] takes; every output and every size must be the spec's. *)
let pool_matches_spec (module P : R.POOL_OPS) ops =
  let module Spec = Lincheck.Pool_spec (P) in
  let t = P.create () in
  let model = ref Spec.init in
  List.for_all
    (fun x ->
      let input = if x < 60 then Spec.Put x else Spec.Take in
      let st, want = Spec.apply !model input in
      model := st;
      let got =
        match input with
        | Put v ->
            P.put t v;
            Spec.Unit
        | Take -> ( match P.take t with Some v -> Got v | None -> Empty)
      in
      got = want && P.size t = List.length st)
    ops

(* Take order: 1..100 come back in the family's order, then a short
   interleaving stays in it. *)
let pool_sequential (module P : R.POOL_OPS) () =
  let t = P.create () in
  let expect label want = Alcotest.(check (option int)) label want (P.take t) in
  expect "empty" None;
  for i = 1 to 100 do
    P.put t i
  done;
  Alcotest.(check int) "size" 100 (P.size t);
  for j = 1 to 100 do
    let i = if P.lifo then 101 - j else j in
    expect (Printf.sprintf "%s %d" (order_name (module P)) i) (Some i)
  done;
  expect "drained" None;
  Alcotest.(check int) "size 0" 0 (P.size t);
  P.put t 1;
  P.put t 2;
  expect "first" (Some (if P.lifo then 2 else 1));
  P.put t 3;
  expect "second" (Some (if P.lifo then 3 else 2));
  expect "third" (Some (if P.lifo then 1 else 3))

(* Concurrent conservation: put - taken = final size; every taken value
   was put exactly once (multiset check). *)
let pool_conservation (module P : R.POOL_OPS) ~nthreads ~ops ~topology () =
  let t = P.create () in
  (* prefill values live in their own range so duplicate detection can
     tell them apart from per-thread values *)
  for i = 1 to 64 do
    P.put t (900_000_000 + i)
  done;
  let put = Array.make nthreads 0 in
  let taken = Array.make nthreads [] in
  ignore
    (Sim.Sched.run ~topology ~nthreads (fun tid ->
         let rng = Rng.create (tid + 31) in
         for i = 1 to ops do
           if Rng.below rng 2 = 0 then (
             P.put t ((tid * 1_000_000) + i);
             put.(tid) <- put.(tid) + 1)
           else
             match P.take t with
             | Some v -> taken.(tid) <- v :: taken.(tid)
             | None -> ()
         done));
  let total_put = 64 + Array.fold_left ( + ) 0 put in
  let total_taken =
    Array.fold_left (fun acc l -> List.length l + acc) 0 taken
  in
  Alcotest.(check int)
    (P.name ^ " conservation")
    (total_put - total_taken) (P.size t);
  let seen = Hashtbl.create 64 in
  Array.iter
    (List.iter (fun v ->
         if Hashtbl.mem seen v then
           Alcotest.failf "%s: value %d taken twice" P.name v;
         Hashtbl.add seen v ()))
    taken

(* Three threads of four ops each over three prefilled values, checked
   against the family's spec. *)
let lincheck_pool (module P : R.POOL_OPS) ~seed () =
  let module Spec = Lincheck.Pool_spec (P) in
  let module H = Harness.History.Make (Spec) in
  let t = P.create () in
  let rng0 = Rng.create (seed + 5) in
  let init = ref Spec.init in
  for _ = 1 to 3 do
    let v = Rng.below rng0 100 in
    P.put t v;
    init := fst (Spec.apply !init (Put v))
  done;
  let h = H.create ~nthreads:3 in
  let _st =
    Sim.Sched.run ~topology:uniform4 ~nthreads:3 ~read_slack:0 (fun tid ->
        let rng = Rng.create ((seed * 131) + tid) in
        for i = 1 to 4 do
          ignore
            (if Rng.below rng 2 = 0 then
               let v = (tid * 1000) + i in
               H.record h (Spec.Put v) (fun () ->
                   P.put t v;
                   Spec.Unit)
             else
               H.record h Spec.Take (fun () ->
                   match P.take t with
                   | Some v -> Spec.Got v
                   | None -> Spec.Empty))
        done)
  in
  let events = H.completed h in
  match H.L.check ~init:!init events with
  | H.L.Witness _ -> ()
  | H.L.Too_large ->
      Alcotest.failf "%s: history too large to check (seed %d)" P.name seed
  | H.L.No_witness ->
      Alcotest.failf "%s: non-linearizable history (seed %d):@.%a" P.name seed
        H.L.pp_history events

(* Four threads on real domains, half puts and half takes. *)
let pool_native (module P : R.POOL_OPS) () =
  let t = P.create () in
  let nthreads = 4 and ops = 3_000 in
  Rt.Native_rt.set_nthreads nthreads;
  let put = Array.make nthreads 0 and taken = Array.make nthreads 0 in
  let body tid () =
    Rt.Native_rt.set_tid tid;
    let rng = Rng.create (tid + 3) in
    for i = 1 to ops do
      if Rng.below rng 2 = 0 then (
        P.put t ((tid * 1_000_000) + i);
        put.(tid) <- put.(tid) + 1)
      else
        match P.take t with
        | Some _ -> taken.(tid) <- taken.(tid) + 1
        | None -> ()
    done
  in
  let doms = List.init (nthreads - 1) (fun i -> Domain.spawn (body (i + 1))) in
  body 0 ();
  List.iter Domain.join doms;
  Rt.Native_rt.set_nthreads 1;
  let tp = Array.fold_left ( + ) 0 put and tt = Array.fold_left ( + ) 0 taken in
  Alcotest.(check int) (P.name ^ " native conservation") (tp - tt) (P.size t)

(* The suites every queue and every stack of [family]'s lineup runs:
   sequential order, conservation on three simulated machines,
   linearizability at eight seeds, native stress and random op sequences
   against the spec. *)
let pool_suites family =
  let sim = List.map R.pool_ops (R.Sim_backend.lineup family)
  and native = List.map R.pool_ops (R.Native.lineup family) in
  let each l f = List.concat_map f l in
  [
    ( "sequential " ^ order_name (List.hd native),
      each native (fun ((module P : R.POOL_OPS) as p) ->
          [
            Alcotest.test_case
              (P.name ^ " " ^ order_name p ^ " order")
              `Quick (pool_sequential p);
          ]) );
    ( "concurrent (sim)",
      each sim (fun ((module P : R.POOL_OPS) as p) ->
          [
            Alcotest.test_case (P.name ^ " conservation sim") `Quick
              (pool_conservation p ~nthreads:6 ~ops:400 ~topology:uniform4);
            Alcotest.test_case (P.name ^ " conservation oversubscribed") `Quick
              (pool_conservation p ~nthreads:8 ~ops:200
                 ~topology:(Sim.Topology.uniform ~n:2 ()));
            Alcotest.test_case (P.name ^ " conservation xeon") `Quick
              (pool_conservation p ~nthreads:12 ~ops:300
                 ~topology:Sim.Topology.xeon);
          ]) );
    ( "linearizability",
      each sim (fun ((module P : R.POOL_OPS) as p) ->
          List.map
            (fun seed ->
              Alcotest.test_case
                (Printf.sprintf "%s linearizable (seed %d)" P.name seed)
                `Quick (lincheck_pool p ~seed))
            [ 1; 2; 3; 4; 5; 6; 7; 8 ]) );
    ( "property",
      each native (fun (module P : R.POOL_OPS) ->
          [
            qcheck_case ~count:50
              (P.name ^ " random ops vs model")
              QCheck2.Gen.(list_size (int_range 0 200) (int_range 0 99))
              (pool_matches_spec (module P));
          ]) );
    ( "concurrent (native)",
      each native (fun ((module P : R.POOL_OPS) as p) ->
          [
            Alcotest.test_case
              (P.name
              ^
              if P.lifo then " native stress"
              else " native producers/consumers")
              `Slow (pool_native p);
          ]) );
  ]
