(* Tests for the QSBR memory-reclamation substrate (the ssmem
   substitute): protocol invariants, reclamation timing, misuse
   detection, and multi-threaded behaviour on the simulator. *)

module Q = Mem.Qsbr.Make (Rt.Native_rt)
module QS = Mem.Qsbr.Make (Sim.Sim_rt)

let test_basic_lifecycle () =
  let freed = ref [] in
  let q = Q.create ~batch_size:4 ~free:(fun x -> freed := x :: !freed) () in
  Q.op_begin q;
  Q.retire q 1;
  Q.retire q 2;
  Q.op_end q;
  Alcotest.(check (list int)) "nothing freed before batch seals" [] !freed;
  Q.op_begin q;
  Q.retire q 3;
  Q.retire q 4;
  (* batch of 4 seals here; snapshot sees our own op in progress *)
  Q.op_end q;
  Q.op_begin q;
  Q.retire q 5;
  Q.op_end q;
  Q.flush q;
  (* all quiescent: everything reclaimable *)
  Alcotest.(check int) "all 5 freed" 5 (List.length !freed)

let test_stats () =
  let q = Q.create ~batch_size:2 () in
  Q.op_begin q;
  Q.retire q 1;
  Q.retire q 2;
  Q.retire q 3;
  Q.op_end q;
  let st = Q.stats q in
  Alcotest.(check int) "retired" 3 st.Q.retired;
  Alcotest.(check bool) "freed + pending = retired" true
    (st.Q.freed + st.Q.pending = 3);
  Q.flush q;
  let st = Q.stats q in
  Alcotest.(check int) "all reclaimed after flush" 0 st.Q.pending

let test_misuse_detected () =
  let q = Q.create () in
  Q.op_begin q;
  (match Q.op_begin q with
  | _ -> Alcotest.fail "nested op_begin must fail"
  | exception Invalid_argument _ -> ());
  Q.op_end q;
  (match Q.op_end q with
  | _ -> Alcotest.fail "op_end outside op must fail"
  | exception Invalid_argument _ -> ());
  (match
     Q.op_begin q;
     Q.quiescent q
   with
  | _ -> Alcotest.fail "quiescent inside op must fail"
  | exception Invalid_argument _ -> Q.op_end q)

(* The core safety property, on the simulator: an object retired while a
   reader is inside an operation that started before the retirement is
   not reclaimed until that reader passes a quiescent point. *)
let test_grace_period_sim () =
  let freed = Sim.Sched.loc [] in
  let q =
    QS.create ~batch_size:1
      ~free:(fun x -> Sim.Sched.write freed (x :: Sim.Sched.read freed))
      ()
  in
  let reader_saw_free_inside_op = Sim.Sched.loc false in
  ignore
    (Sim.Sched.run ~topology:Tutil.uniform4 ~nthreads:2 (fun tid ->
         if tid = 1 then (
           (* reader: long op straddling the retirement *)
           QS.op_begin q;
           Sim.Sched.work 5_000;
           if List.mem 42 (Sim.Sched.read freed) then
             Sim.Sched.write reader_saw_free_inside_op true;
           QS.op_end q;
           QS.quiescent q)
         else (
           Sim.Sched.work 500;
           (* writer (tid 0) retires object 42 while the reader is inside
              its op *)
           QS.op_begin q;
           QS.retire q 42;
           QS.op_end q;
           (* try hard to reclaim while the reader still straddles *)
           for _ = 1 to 10 do
             QS.op_begin q;
             QS.retire q 0;
             QS.op_end q;
             QS.flush q
           done)));
  Alcotest.(check bool) "no reclamation inside straddling op" false
    (Sim.Sched.read reader_saw_free_inside_op);
  (* After the run everyone is quiescent. Outside a simulation the
     current tid is 0 = the writer's slot: a final flush frees 42. *)
  QS.flush q;
  Alcotest.(check bool) "42 eventually freed" true
    (List.mem 42 (Sim.Sched.read freed))

let test_batching () =
  let frees = ref 0 in
  let q = Q.create ~batch_size:8 ~free:(fun _ -> incr frees) () in
  for i = 1 to 7 do
    Q.op_begin q;
    Q.retire q i;
    Q.op_end q
  done;
  Alcotest.(check int) "under batch size: nothing sealed" 0 !frees;
  Q.op_begin q;
  Q.retire q 8;
  Q.op_end q;
  Q.op_begin q;
  Q.op_end q;
  Q.op_begin q;
  Q.retire q 9;
  Q.op_end q;
  Q.flush q;
  Alcotest.(check int) "all reclaimed" 9 !frees

(* A thread that enters an operation and never quiesces (crashed, or
   descheduled forever) blocks the reclamation frontier: pending grows
   without bound, the invariant still holds, and [stalled] points at the
   culprit. *)
let never_quiescing_run q =
  ignore
    (Sim.Sched.run ~topology:Tutil.uniform4 ~nthreads:2 (fun tid ->
         if tid = 1 then QS.op_begin q
           (* enters an op and never finishes it *)
         else (
           (* let the reader get inside first *)
           Sim.Sched.work 1_000;
           for i = 1 to 50 do
             QS.op_begin q;
             QS.retire q i;
             QS.op_end q;
             QS.flush q
           done)))

let test_never_quiescing_blocks_reclamation () =
  let q = QS.create ~batch_size:1 () in
  never_quiescing_run q;
  let st = QS.stats q in
  Alcotest.(check int) "all retires recorded" 50 st.QS.retired;
  Alcotest.(check bool) "pending grows behind the stuck reader" true
    (st.QS.pending >= 49);
  Alcotest.(check bool) "retired = freed + pending" true
    (st.QS.freed + st.QS.pending = st.QS.retired);
  Alcotest.(check (list int)) "the stuck reader is reported" [ 1 ]
    (QS.stalled q)

let test_stall_obs_bounds_damage () =
  let q = QS.create ~batch_size:1 ~stall_obs:5 () in
  never_quiescing_run q;
  QS.flush q;
  let st = QS.stats q in
  Alcotest.(check bool) "invariant holds including forced frees" true
    (st.QS.freed + st.QS.pending = st.QS.retired);
  Alcotest.(check bool) "pending bounded once the reader is declared dead"
    true
    (st.QS.pending < 20);
  Alcotest.(check bool) "dead reader reported" true
    (List.mem 1 (QS.stalled q))

let test_declare_dead_manual () =
  let q = QS.create ~batch_size:1 () in
  never_quiescing_run q;
  Alcotest.(check bool) "blocked before the declaration" true
    ((QS.stats q).QS.pending > 0);
  (* e.g. the watchdog just reported t1 as a dead lock holder *)
  QS.declare_dead q 1;
  QS.flush q;
  let st = QS.stats q in
  Alcotest.(check int) "drained after declare_dead" 0 st.QS.pending;
  Alcotest.(check bool) "invariant holds" true
    (st.QS.freed + st.QS.pending = st.QS.retired)

(* ---- Per-thread state built on first use ---- *)

let test_unused_instance () =
  let q = QS.create () in
  let st = QS.stats q in
  Alcotest.(check (list int)) "nothing retired, freed or pending" [ 0; 0; 0 ]
    [ st.QS.retired; st.QS.freed; st.QS.pending ];
  Alcotest.(check (list int)) "nobody stalled" [] (QS.stalled q);
  QS.flush q;
  QS.declare_dead q 3;
  Alcotest.(check (list int)) "declared thread reported" [ 3 ] (QS.stalled q);
  match QS.declare_dead q 128 with
  | () -> Alcotest.fail "declare_dead 128 must fail at max_threads = 128"
  | exception Invalid_argument msg ->
      Alcotest.(check string) "names the id and the bound"
        "Qsbr.declare_dead: thread id 128 is out of range (max_threads = 128)" msg

(* Only tid 2 of four ever touches the instance: its own batches seal
   against the untouched stamps of the other three and drain. *)
let test_single_toucher () =
  let q = QS.create ~batch_size:2 () in
  ignore
    (Sim.Sched.run ~topology:Tutil.uniform4 ~nthreads:4 (fun tid ->
         Sim.Sched.work (100 * tid);
         if tid = 2 then (
           for i = 1 to 9 do
             QS.op_begin q;
             QS.retire q i;
             QS.op_end q
           done;
           QS.flush q)));
  let st = QS.stats q in
  Alcotest.(check (list int)) "all nine freed by their retirer" [ 9; 9; 0 ]
    [ st.QS.retired; st.QS.freed; st.QS.pending ];
  Alcotest.(check (list int)) "nobody stalled" [] (QS.stalled q)

(* A thread id at or past [max_threads] gets a named error. *)
let test_tid_bound () =
  let q = Q.create ~max_threads:4 () in
  Rt.Native_rt.set_tid 4;
  let res = try Ok (Q.op_begin q) with Invalid_argument msg -> Error msg in
  Rt.Native_rt.set_tid 0;
  Alcotest.(check (result unit string)) "op_begin from tid 4"
    (Error "Qsbr: thread id 4 is out of range (max_threads = 4)") res

(* Two domains create their retire slots and race to install the stall
   state on their first seals; accounting stays exact. *)
let test_two_domains_native () =
  let q = Q.create ~batch_size:4 () in
  let n = 2_000 in
  let body tid () =
    Rt.Native_rt.set_tid tid;
    for i = 1 to n do
      Q.op_begin q;
      Q.retire q ((tid * n) + i);
      Q.op_end q
    done;
    Q.flush q
  in
  let d = Domain.spawn (body 1) in
  body 0 ();
  Domain.join d;
  let st = Q.stats q in
  Alcotest.(check int) "every retire counted" (2 * n) st.Q.retired;
  Alcotest.(check int) "retired = freed + pending" st.Q.retired
    (st.Q.freed + st.Q.pending)

(* Retire-heavy and seeded: every seal snapshots all 128 stamps, most of
   them never touched by any thread. Building them on first use must
   price those reads exactly as eager allocation did; the expected
   figures were recorded from the eager implementation. *)
let test_lazy_stamps_priced_as_eager () =
  let q = QS.create ~batch_size:3 ~stall_obs:4 () in
  let st =
    Sim.Sched.run ~topology:Tutil.uniform4 ~nthreads:3 (fun tid ->
        let rng = Harness.Rng.create (7 + tid) in
        for i = 1 to 60 do
          QS.op_begin q;
          Sim.Sched.work (Harness.Rng.below rng 300);
          if Harness.Rng.below rng 3 > 0 then QS.retire q ((100 * tid) + i);
          QS.op_end q;
          Sim.Sched.tick ()
        done;
        QS.flush q)
  in
  Alcotest.(check (list int)) "cycles, reads, writes, events"
    [ 12427; 6155; 360; 163 ]
    [ st.Sim.Sched.wall_cycles; st.Sim.Sched.reads; st.Sim.Sched.writes; st.Sim.Sched.events ]

(* Reserving a block takes the same line ids eager creation did, so
   every location created after it keeps its id, and a line built late
   still carries the site that was active at reservation — also when a
   block's cells are touched out of order, high index first, so that its
   lazily sized array grows past the touched index at once. *)
let test_cells_keep_line_ids () =
  let site s f = Sim.Sim_rt.Probe.with_site s f in
  let before = site "test.before" (fun () -> Sim.Sched.loc 0) in
  let q : int QS.t = site "test.qsbr" (fun () -> QS.create ()) in
  let after = site "test.after" (fun () -> Sim.Sched.loc 0) in
  let n = 40 in
  let c = site "test.cells" (fun () -> Sim.Sched.cells n 0) in
  Obs.Journal.start ();
  ignore
    (Sim.Sched.run ~topology:Tutil.uniform4 ~nthreads:2 (fun tid ->
         ignore (Sim.Sched.read before);
         ignore (Sim.Sched.read after);
         if tid = 0 then (
           Sim.Sched.write (Sim.Sched.cell c (n - 1)) 1;
           Sim.Sched.write (Sim.Sched.cell c 3) 1);
         if tid = 1 then (
           QS.op_begin q;
           QS.op_end q)));
  let lines =
    (Obs.Journal.stop ()).Obs.Journal.lines
    |> List.map (fun (l : Obs.Journal.line_stat) -> (l.ls_id, l.ls_site))
  in
  match lines with
  | [ (b, _); _; _; _; _ ] ->
      let cells = b + 1 + 128 in
      Alcotest.(check (list (pair int (option string))))
        "ids and sites as eager allocation gives them"
        [
          (b, Some "test.before");
          (b + 2, Some "test.qsbr");
          (b + 1 + 128, Some "test.after");
          (cells + 3 + 1, Some "test.cells");
          (cells + n, Some "test.cells");
        ]
        lines
  | _ -> Alcotest.failf "expected 5 touched lines, got %d" (List.length lines)

(* A cell index outside the block gets a named error, not the stdlib's
   bare "index out of bounds". *)
let test_cell_range_named () =
  let c = Sim.Sched.cells 16 0 in
  List.iter
    (fun i ->
      match Sim.Sched.cell c i with
      | _ -> Alcotest.failf "cell %d of 16 must fail" i
      | exception Invalid_argument msg ->
          Alcotest.(check string) "names the index and the count"
            (Printf.sprintf "Sched.cell: index %d is out of range (n = 16)" i)
            msg)
    [ 16; -1; 1_000 ];
  Alcotest.(check int) "cell 15 of 16 holds its value" 0
    (Sim.Sched.read (Sim.Sched.cell c 15))

(* A high thread id is the first to use a fresh instance: its retire
   slot grows the slot array past it at once, a lower id then slots in
   below it, and [flush] from a thread with no slot does nothing. *)
let test_high_tid_first () =
  let q = Q.create ~batch_size:2 () in
  let as_tid tid f =
    Rt.Native_rt.set_tid tid;
    Fun.protect ~finally:(fun () -> Rt.Native_rt.set_tid 0) f
  in
  let stats () =
    let st = Q.stats q in
    [ st.Q.retired; st.Q.freed; st.Q.pending ]
  in
  as_tid 7 (fun () -> Q.flush q);
  Alcotest.(check (list int)) "flush with no slot is a no-op" [ 0; 0; 0 ]
    (stats ());
  let retire_three base =
    Q.op_begin q;
    List.iter (fun i -> Q.retire q (base + i)) [ 1; 2; 3 ];
    Q.op_end q;
    Q.flush q
  in
  as_tid 100 (fun () -> retire_three 100);
  Alcotest.(check (list int)) "tid 100 retires, flushes, drains" [ 3; 3; 0 ]
    (stats ());
  as_tid 3 (fun () -> retire_three 3);
  Alcotest.(check (list int)) "tid 3 joins below it" [ 6; 6; 0 ] (stats ());
  as_tid 7 (fun () -> Q.flush q);
  Alcotest.(check (list int)) "still a no-op for tid 7" [ 6; 6; 0 ] (stats ())

let qcheck_retire_counts =
  Tutil.qcheck_case ~count:100 "retired = freed + pending"
    QCheck2.Gen.(list_size (int_range 0 100) (int_range 0 2))
    (fun ops ->
      let q = Q.create ~batch_size:4 () in
      let retired = ref 0 in
      let in_op = ref false in
      List.iter
        (fun op ->
          match op with
          | 0 ->
              if not !in_op then (
                Q.op_begin q;
                in_op := true)
          | 1 ->
              if !in_op then (
                Q.retire q !retired;
                incr retired)
          | _ ->
              if !in_op then (
                Q.op_end q;
                in_op := false))
        ops;
      if !in_op then Q.op_end q;
      let st = Q.stats q in
      st.Q.retired = !retired && st.Q.freed + st.Q.pending = !retired)

let () =
  Alcotest.run "qsbr"
    [
      ( "protocol",
        [
          Alcotest.test_case "lifecycle" `Quick test_basic_lifecycle;
          Alcotest.test_case "stats" `Quick test_stats;
          Alcotest.test_case "misuse detected" `Quick test_misuse_detected;
          Alcotest.test_case "batching" `Quick test_batching;
          qcheck_retire_counts;
        ] );
      ( "lazy per-thread state",
        [
          Alcotest.test_case "unused instance" `Quick test_unused_instance;
          Alcotest.test_case "one thread touches it" `Quick test_single_toucher;
          Alcotest.test_case "named tid bound" `Quick test_tid_bound;
          Alcotest.test_case "two native domains" `Quick test_two_domains_native;
          Alcotest.test_case "untouched stamps priced as eager" `Quick
            test_lazy_stamps_priced_as_eager;
          Alcotest.test_case "line ids and sites kept" `Quick
            test_cells_keep_line_ids;
          Alcotest.test_case "cell range named" `Quick test_cell_range_named;
          Alcotest.test_case "high tid first" `Quick test_high_tid_first;
        ] );
      ( "grace periods",
        [ Alcotest.test_case "straddling reader" `Quick test_grace_period_sim ]
      );
      ( "stalled readers",
        [
          Alcotest.test_case "never-quiescing reader blocks reclamation"
            `Quick test_never_quiescing_blocks_reclamation;
          Alcotest.test_case "stall_obs bounds the damage" `Quick
            test_stall_obs_bounds_damage;
          Alcotest.test_case "declare_dead drains" `Quick
            test_declare_dead_manual;
        ] );
    ]
