(* Tests for the chaos engine: trial-string round-trips, deterministic
   fuzzing, the oracles on a known-bad configuration, and shrinking. *)

module F = Sim.Fault
module Fp = Rt.Rt_intf

(* ------------------------------------------------------------------ *)
(* Trial strings round-trip. Trials embed first-class modules, so
   compare via the canonical string form, not structural equality. *)

module R = Harness.Registry
module S = (val Chaos.sets (Chaos.select Chaos.default_names))

let trial_roundtrip =
  Tutil.qcheck_case ~count:200 "trial to_string/of_string round-trip"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Harness.Rng.create seed in
      let tr = S.gen rng in
      let s = S.to_string tr in
      let tr' = S.of_string s in
      String.equal s (S.to_string tr')
      && tr.Chaos.t_entry == tr'.Chaos.t_entry)

let test_trial_string_errors () =
  let bad s =
    match S.of_string s with
    | (_ : Chaos.trial) -> Alcotest.failf "expected parse error for %S" s
    | exception Invalid_argument _ -> ()
  in
  bad "";
  bad "list/harris";
  (* missing @topology *)
  bad "no/such@u4 t2 o1 k2 q1000 r0 n62 w0 f1";
  bad "list/harris@moon t2 o1 k2 q1000 r0 n62 w0 f1";
  bad "list/harris@u4 t2 o1 k2 q1000 r0 n62 w0 f1;crash@nowhere";
  bad "list/harris@u4 t0";
  bad "list/harris@u4 t";
  bad "list/harris@u4 !";
  (* Out-of-range fields are rejected by the grammar, naming the field,
     instead of running (or failing deep inside the simulator). *)
  let rejects of_string field s =
    match of_string s with
    | () -> Alcotest.failf "expected parse error for %S" s
    | exception Invalid_argument msg ->
        if not (Obs.Report.contains ~sub:field msg) then
          Alcotest.failf "error for %S does not name %s: %s" s field msg
  in
  let named = rejects (fun s -> ignore (S.of_string s : Chaos.trial)) in
  let kv_named =
    rejects (fun s -> ignore (Chaos.Kv_trial.of_string s : Chaos.Kv_trial.t))
  in
  let t = "stack/treiber@opteron t2 o4 k2 q20000 r0 n0 w552286 f712261" in
  named "targets thread 9" (t ^ ";crash@lock-wait,t9,h1");
  named "targets thread 2" (t ^ ";stall(500)@op-boundary,t2");
  named "targets thread -1" (t ^ ";crash@op-boundary,t-1");
  named "targets victim thread 9" (t ^ ";storm(5000:v9)@lock-wait,h1");
  named "targets victim thread 2" (t ^ ";storm(5000:v0.2)@lock-wait,h1");
  named "targets store 0, but the trial has 0 stores"
    (t ^ ";shardcrash(0)@op-boundary,h1");
  (* A kv trial has [threads] clients and a primary and a replica store
     per shard: stores 0 .. 2 * shards - 1. *)
  let kv = "kv/hashtable/optik@u4 s1 t2 o100 k64 R50 C10 w1 D50000 B64 f7" in
  kv_named "targets thread 9" (kv ^ ";crash@op-boundary,t9,h1");
  kv_named "targets victim thread 9" (kv ^ ";storm(5000:v9)@op-boundary,h1");
  kv_named "targets store 9, but the trial has 2 stores"
    (kv ^ ";shardcrash(9)@op-boundary,h5");
  kv_named "targets store 2" (kv ^ ";shardrecover(2)@op-boundary,h5");
  kv_named "targets store 2" (kv ^ ";resynccrash(2)@op-boundary,h5");
  kv_named "targets store -1" (kv ^ ";shardcrash(-1)@op-boundary,h5");
  (* Each positivity check names its one field; the grammar judges a kv
     trial with [Kv.check], the rules [Kv.run] applies. *)
  kv_named "keys must be positive" "kv/hashtable/optik@u4 s1 t2 o100 k0";
  kv_named "shards must be positive" "kv/hashtable/optik@u4 s0 t2 o100";
  kv_named "threads must be positive" "kv/hashtable/optik@u4 s1 t0 o100";
  kv_named "ops must be positive" "kv/hashtable/optik@u4 s1 t2 o0";
  kv_named "degraded must be >= 0" "kv/hashtable/optik@u4 s1 t2 o100 D-1";
  kv_named "batch must be positive" "kv/hashtable/optik@u4 s1 t2 o100 B0";
  let txn_named =
    rejects (fun s -> ignore (Chaos.Txn_trial.of_string s : Chaos.Txn_trial.t))
  in
  txn_named "objects must be positive" "txn/list/optik@u2 b0 a2 t1 o1";
  txn_named "threads must be positive" "txn/list/optik@u2 b1 a2 t0 o1";
  txn_named "ops must be positive" "txn/list/optik@u2 b1 a2 t1 o0";
  (* All three grammars share the QSBR thread cap: past it a kv or txn
     trial would simulate and then die at the first reclamation. *)
  kv_named "threads must be at most 128" "kv/hashtable/optik@u4 s1 t129 o200";
  txn_named "threads must be at most 128"
    "txn/list/optik@u2 b1 a4 t129 o300 X50 w1";
  named "keys must be positive"
    "stack/treiber@opteron t2 o4 k0 q20000 r0 n0 w1 f1";
  ignore
    (Chaos.Kv_trial.of_string
       (kv
      ^ ";shardcrash(1)@op-boundary,h5;storm(5000:v1)@op-boundary,h1;\
         crash@op-boundary,t1,h1")
      : Chaos.Kv_trial.t);
  named "read-slack" "stack/treiber@opteron t2 o4 k2 q20000 r-1 n0 w1 f1";
  named "quantum" "stack/treiber@opteron t2 o4 k2 q-1 r0 n0 w1 f1";
  named "quantum" "stack/treiber@opteron t2 o4 k2 q0 r0 n0 w1 f1";
  named "noise-bits" "stack/treiber@opteron t2 o4 k2 q20000 r0 n-5 w1 f1";
  named "noise-bits" "stack/treiber@opteron t2 o4 k2 q20000 r0 n63 w1 f1";
  named "threads must be at most 128"
    "stack/treiber@opteron t200 o4 k2 q20000 r0 n0 w1 f1";
  named "hit count" (t ^ ";stall(45181)@lock-wait,h-3");
  (* The bounds themselves parse. *)
  ignore (S.of_string (t ^ ";crash@lock-wait,t1,h1") : Chaos.trial);
  ignore
    (S.of_string "stack/treiber@opteron t2 o4 k4096 q20000 r0 n0 w1 f1"
      : Chaos.trial);
  ignore
    (S.of_string
       "stack/treiber@opteron t128 o4 k2 q1 r0 n62 w1 f1;crash@op-boundary,t127"
      : Chaos.trial);
  ignore
    (Chaos.Kv_trial.of_string "kv/hashtable/optik@u4 s1 t128 o200" : Chaos.Kv_trial.t);
  ignore
    (Chaos.Txn_trial.of_string "txn/list/optik@u2 b1 a4 t128 o300 X50 w1"
      : Chaos.Txn_trial.t)

(* ------------------------------------------------------------------ *)
(* A service has one [check], reached from both entry points: the trial
   grammar (what --replay reads) and the service's [run] (what the CLI
   flags reach). Each row takes a valid trial's config out of range in
   one field; both must refuse it with the same message, naming it. *)

let agree (type c) (module T : Chaos.TRIAL with type t = c) ~run base rows =
  let refusal what f =
    match f () with
    | () -> Alcotest.failf "%s accepted a config out of range" what
    | exception Invalid_argument msg -> msg
  in
  List.iter
    (fun (field, mutate) ->
      let cfg = mutate (T.of_string base) in
      let grammar =
        refusal "the grammar" (fun () -> ignore (T.of_string (T.to_string cfg)))
      in
      let service = refusal "run" (fun () -> run cfg) in
      Alcotest.(check string) (field ^ ": same message") grammar service;
      if not (Obs.Report.contains ~sub:field service) then
        Alcotest.failf "refusal does not name %s: %s" field service)
    rows

let test_kv_one_check () =
  let workload f (c : Kv.config) = { c with Kv.workload = f c.Kv.workload } in
  let policy f (c : Kv.config) = { c with Kv.policy = f c.Kv.policy } in
  agree
    (module Chaos.Kv_trial)
    ~run:(fun c -> ignore (Kv.run c))
    "kv/hashtable/optik@u4 s1 t2 o100 k64 R50 C10 w1 D50000 B64 f7"
    [
      ("shards must be positive", fun c -> { c with Kv.nshards = 0 });
      ("threads must be at most 128", fun c -> { c with Kv.threads = 129 });
      ("ops must be positive", fun c -> { c with Kv.ops = 0 });
      ("keys must be positive", workload (fun w -> { w with Kv.keys = 0 }));
      ( "degraded must be >= 0",
        policy (fun p -> { p with Kv.degraded_cycles = -1 }) );
      ( "batch must be positive",
        policy (fun p -> { p with Kv.resync_batch = 0 }) );
      ("read pct", workload (fun w -> { w with Kv.read_pct = 101 }));
      ("scan pct", workload (fun w -> { w with Kv.scan_pct = -1 }));
      ( "read + scan pct",
        workload (fun w -> { w with Kv.read_pct = 60; scan_pct = 50 }) );
      ( "targets store 2, but the trial has 2 stores",
        fun c ->
          { c with Kv.plan = Some (F.of_string "7;shardcrash(2)@op-boundary") }
      );
      ( "targets thread 9",
        fun c ->
          { c with Kv.plan = Some (F.of_string "7;crash@op-boundary,t9,h1") } );
    ]

let test_txn_one_check () =
  let module W = Txn.Workload in
  agree
    (module Chaos.Txn_trial)
    ~run:(fun c -> ignore (W.run c))
    "txn/list/optik@u2 b2 a8 t2 o200 X70 w1"
    [
      ("objects must be positive", fun c -> { c with W.objects = 0 });
      ("threads must be positive", fun c -> { c with W.threads = 0 });
      ("threads must be at most 128", fun c -> { c with W.threads = 129 });
      ("ops must be positive", fun c -> { c with W.ops = 0 });
      ( "need at least two account slots",
        fun c -> { c with W.objects = 1; accounts = 1 } );
      ("transfer pct", fun c -> { c with W.transfer_pct = 101 });
    ]

(* ------------------------------------------------------------------ *)
(* Fuzzing is byte-deterministic: same seed, same entries, same output. *)

let fuzz_to_string ~runs ~seed =
  Chaos.fuzz
    (Chaos.sets (Chaos.select Chaos.quick_names) :> (module Chaos.TRIAL))
    ~runs ~seed

let test_fuzz_deterministic () =
  let f1, s1 = fuzz_to_string ~runs:4 ~seed:11 in
  let f2, s2 = fuzz_to_string ~runs:4 ~seed:11 in
  Alcotest.(check int) "same failure count" f1 f2;
  Alcotest.(check string) "byte-identical output" s1 s2

(* ------------------------------------------------------------------ *)
(* Oracle and shrinker regression on a known-bad configuration: a
   blocking structure (optik-gl list) deliberately mislabeled lock-free,
   under a critical-section crash plus two irrelevant stall specs. The
   liveness oracle must flag the starvation, and the shrinker must strip
   the padding while keeping the trial failing. *)

let fake_lf =
  {
    R.family = "list";
    name = "gl-as-lf";
    guarantee = R.Lock_free;
    structure = (R.Sim_backend.find "list/optik-gl").structure;
    in_place = None;
  }

let failing_trial =
  {
    Chaos.t_entry = fake_lf;
    t_topo = "u4";
    t_threads = 4;
    t_ops = 6;
    t_keys = 4;
    t_quantum = 20_000;
    t_read_slack = 0;
    t_noise_bits = 62;
    t_wseed = 5;
    t_plan =
      {
        F.seed = 1;
        specs =
          [
            F.crash ~hits:1 Fp.Critical_enter;
            F.stall ~hits:2 20_000 Fp.Op_boundary;
            F.stall ~hits:3 30_000 Fp.Restart;
          ];
      };
  }

let test_liveness_oracle_fires () =
  let o = Chaos.run_trial failing_trial in
  Alcotest.(check bool) "run aborted" false o.Chaos.o_completed;
  match o.Chaos.o_failures with
  | [ f ] -> Alcotest.(check string) "oracle" "liveness" f.Chaos.f_oracle
  | fs -> Alcotest.failf "expected exactly one failure, got %d" (List.length fs)

let test_run_trial_deterministic () =
  let o1 = Chaos.run_trial failing_trial in
  let o2 = Chaos.run_trial failing_trial in
  Alcotest.(check bool) "same completion" o1.Chaos.o_completed
    o2.Chaos.o_completed;
  Alcotest.(check (list int)) "same crashed threads" o1.Chaos.o_crashed
    o2.Chaos.o_crashed;
  Alcotest.(check (list (pair string string)))
    "same failures"
    (List.map (fun f -> (f.Chaos.f_oracle, f.Chaos.f_detail)) o1.Chaos.o_failures)
    (List.map (fun f -> (f.Chaos.f_oracle, f.Chaos.f_detail)) o2.Chaos.o_failures)

(* The family that can also resolve the mislabeled entry, which the
   registry does not know. *)
let with_fake : (module Chaos.TRIAL with type t = Chaos.trial) =
  (module struct
    include S

    let of_string s =
      let fake = R.id fake_lf ^ "@" in
      if String.starts_with ~prefix:fake s then
        let n = String.length fake in
        let rest = String.sub s n (String.length s - n) in
        let real = S.of_string ("list/optik-gl@" ^ rest) in
        { real with Chaos.t_entry = fake_lf }
      else S.of_string s
  end)

let test_shrinker_reduces () =
  let small = Chaos.shrink with_fake failing_trial in
  let n_before = List.length failing_trial.Chaos.t_plan.F.specs in
  let n_after = List.length small.Chaos.t_plan.F.specs in
  Alcotest.(check bool)
    (Printf.sprintf "fewer specs (%d < %d)" n_after n_before)
    true (n_after < n_before);
  Alcotest.(check bool) "shrunk trial still fails" true
    ((Chaos.run_trial small).Chaos.o_failures <> [])

(* Every shrink step is a trial the grammar accepts: a spec aimed at the
   last thread, as its [t] or as a storm victim, keeps the thread count
   from shrinking past it. *)
let steps_parse (type a) (module T : Chaos.TRIAL with type t = a) (tr : a) =
  let steps = T.shrink_steps tr in
  Alcotest.(check bool) "some steps" true (steps <> []);
  List.iter
    (fun st ->
      let s = T.to_string st in
      match T.of_string s with
      | (_ : a) -> ()
      | exception Invalid_argument msg ->
          Alcotest.failf "shrink step %S does not parse: %s" s msg)
    steps

let test_shrink_steps_parse () =
  let three specs =
    { failing_trial with Chaos.t_threads = 3; t_plan = { F.seed = 1; specs } }
  in
  steps_parse with_fake (three [ F.crash ~tid:2 ~hits:1 Fp.Critical_enter ]);
  steps_parse with_fake
    (three [ F.storm ~hits:1 ~victims:[ 2 ] 5_000 Fp.Lock_wait ])

let test_kv_shrink_steps_parse () =
  let kv specs =
    {
      (Chaos.Kv_trial.of_string
         "kv/hashtable/optik@u4 s1 t3 o200 k128 R50 C10 w1 D4000 B16 f7")
      with
      Kv.plan = Some { F.seed = 7; specs };
    }
  in
  steps_parse
    (module Chaos.Kv_trial)
    (kv [ F.crash ~tid:2 ~hits:1 Fp.Op_boundary ]);
  steps_parse
    (module Chaos.Kv_trial)
    (kv [ F.storm ~hits:1 ~victims:[ 2 ] 5_000 Fp.Op_boundary ])

(* A passing trial shrinks to itself. *)
let test_shrink_passing_identity () =
  let tr = { failing_trial with Chaos.t_plan = { F.seed = 1; specs = [] } } in
  let o = Chaos.run_trial tr in
  Alcotest.(check (list string)) "no failures" []
    (List.map (fun f -> f.Chaos.f_oracle) o.Chaos.o_failures);
  let s = Chaos.shrink with_fake tr in
  Alcotest.(check string) "unchanged" (S.to_string tr) (S.to_string s)

(* ------------------------------------------------------------------ *)
(* Golden replay: the frozen repro string of the shrunk counterexample
   above replays to the identical verdict, byte-for-byte, twice. *)

let replay_to_string s =
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  let n = Chaos.replay (with_fake :> (module Chaos.TRIAL)) s ppf in
  Format.pp_print_flush ppf ();
  (n, Buffer.contents buf)

let test_golden_replay () =
  let repro = S.to_string (Chaos.shrink with_fake failing_trial) in
  let n1, out1 = replay_to_string repro in
  let n2, out2 = replay_to_string repro in
  Alcotest.(check int) "replay fails" 1 n1;
  Alcotest.(check int) "same failure count on re-replay" n1 n2;
  Alcotest.(check string) "byte-identical replay output" out1 out2;
  Alcotest.(check bool) "verdict line present" true
    (Obs.Report.contains ~sub:"verdict: FAIL" out1)

(* A history past the checker's 62 ops is not checked, and the replay
   says so on its detail line; a 25-op history, the most a generated
   trial has, is checked and carries no note. *)
let test_unchecked_note () =
  let replay s =
    let buf = Buffer.create 256 in
    let ppf = Format.formatter_of_buffer buf in
    let n = Chaos.replay (module S : Chaos.TRIAL) s ppf in
    Format.pp_print_flush ppf ();
    Alcotest.(check int) (s ^ " passes") 0 n;
    Buffer.contents buf
  in
  let note = "linearizability unchecked" in
  Alcotest.(check bool) "65 ops: noted" true
    (Obs.Report.contains ~sub:(note ^ " (65 ops > 62)")
       (replay "list/optik@u4 t5 o13 k7 q20000 r0 n62 w1 f1"));
  Alcotest.(check bool) "25 ops: checked" false
    (Obs.Report.contains ~sub:note
       (replay "list/optik@u4 t5 o5 k7 q20000 r0 n62 w1 f1"))

(* ------------------------------------------------------------------ *)
(* Harris crash residue. A thread that crashes between its mark CAS and
   its unlink CAS leaves a marked node linked; in a hash bucket no later
   operation may walk past it to help unlink it. This trial does exactly
   that (it used to fail the validate oracle): [validate] must accept
   one such node per crashed thread and nothing else. *)

let harris_crash_trial =
  "hashtable/harris-ht@u2 t2 o1 k2 q1000000 r0 n62 w51809 \
   f277664;crash@after-cas,t1,h1"

let test_harris_crash_replay () =
  let o = Chaos.run_trial (S.of_string harris_crash_trial) in
  Alcotest.(check (list int)) "thread 1 crashed" [ 1 ] o.Chaos.o_crashed;
  Alcotest.(check (list string)) "every oracle passes" []
    (List.map (fun f -> f.Chaos.f_oracle) o.Chaos.o_failures)

(* ------------------------------------------------------------------ *)
(* Every registered structure is fuzzable, and replays that once failed
   or hung are pinned as PASS rows. *)

let test_all_names_cover_registry () =
  Alcotest.(check (list string))
    "all_names lists every registry entry once"
    (List.sort compare (List.map R.id R.Sim_backend.entries))
    (List.sort compare Chaos.all_names);
  Alcotest.(check (list string)) "select keeps all_names order"
    Chaos.all_names
    (List.map R.id (Chaos.select (List.rev Chaos.all_names)))

let pinned_passes =
  [
    (* Lincheck used to search these queue histories without end: it
       tried thread 0's enqueues first, and the two-list queue state gave
       one abstract queue many memo keys. *)
    "queue/optik1@xeon t5 o5 k5 q20000 r200 n62 w533314 \
     f587540;storm(47543)@before-cas,t3,h5";
    "queue/optik0@xeon t5 o5 k5 q20000 r200 n62 w533314 \
     f587540;storm(47543)@before-cas,t3,h5;stall(35837)@critical-enter,t1";
    (* Sl_optik.search re-read level 0 after its walk had stopped, so an
       insert of 4 between 2 and 5 made [search 5] answer absent. *)
    "skiplist/optik2@xeon t5 o2 k5 q200000 r0 n62 w556653 \
     f903285;storm(659)@restart,h3";
  ]

(* A key count above the grammar's bound is rejected by name: unbounded,
   the list trial's quadratic prefill ran for seconds on end and the map
   trial died allocating its slot array. *)
let huge_keys_case s =
  let structure = List.hd (String.split_on_char '@' s) in
  Alcotest.test_case (structure ^ " rejects a huge key count") `Quick (fun () ->
      match S.of_string s with
      | (_ : Chaos.trial) -> Alcotest.failf "expected parse error for %S" s
      | exception Invalid_argument msg ->
          Alcotest.(check string) "error"
            "Chaos.of_string: keys must be at most 4096, got 999999999999" msg)

let pinned_pass_case s =
  let structure = List.hd (String.split_on_char '@' s) in
  Alcotest.test_case ("pinned " ^ structure ^ " replay passes") `Quick (fun () ->
      let o = Chaos.run_trial (S.of_string s) in
      Alcotest.(check (list string)) "every oracle passes" []
        (List.map (fun f -> f.Chaos.f_oracle) o.Chaos.o_failures))

module H = Dstruct.Ll_harris.Make (Rt.Native_rt)

(* [1; 2; 3; 4] with the nodes of [marked] marked in place, and a node
   of key [stray] spliced in after key 1 if given. *)
let harris_list ?stray marked =
  let t = H.create () in
  List.iter (fun k -> ignore (H.insert t k k : bool)) [ 1; 2; 3; 4 ];
  let rec node n k = if n.H.key = k then n else node (link n).H.dest k
  and link n = Option.get (Rt.Native_rt.get n.H.next) in
  List.iter
    (fun k ->
      let n = node t.H.head k in
      Rt.Native_rt.set n.H.next (Some { (link n) with H.marked = true }))
    marked;
  Option.iter
    (fun k ->
      let one = node t.H.head 1 in
      let stray = H.mk_node k k (Some (link one)) in
      Rt.Native_rt.set one.H.next (Some { H.dest = stray; marked = false }))
    stray;
  t

let test_harris_validate_residue () =
  let check what want t crashed =
    Alcotest.(check bool) what want (H.validate ~crashed t)
  in
  check "clean list" true (harris_list []) 0;
  check "marked node, no crash" false (harris_list [ 3 ]) 0;
  check "marked node, one crash" true (harris_list [ 3 ]) 1;
  check "two marked nodes, one crash" false (harris_list [ 2; 3 ]) 1;
  (* negative control: ordering stays strict whatever crashed *)
  check "out-of-order node, one crash" false (harris_list ~stray:9 []) 1;
  check "out-of-order node, many crashes" false (harris_list ~stray:9 [ 3 ]) 8

let () =
  Alcotest.run "chaos"
    [
      ( "trial strings",
        [
          trial_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_trial_string_errors;
          Alcotest.test_case "kv: grammar and run refuse alike" `Quick
            test_kv_one_check;
          Alcotest.test_case "txn: grammar and run refuse alike" `Quick
            test_txn_one_check;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "fuzz byte-deterministic" `Quick
            test_fuzz_deterministic;
          Alcotest.test_case "run_trial deterministic" `Quick
            test_run_trial_deterministic;
        ] );
      ( "oracles and shrinking",
        [
          Alcotest.test_case "liveness oracle fires" `Quick
            test_liveness_oracle_fires;
          Alcotest.test_case "shrinker reduces the plan" `Quick
            test_shrinker_reduces;
          Alcotest.test_case "passing trial shrinks to itself" `Quick
            test_shrink_passing_identity;
          Alcotest.test_case "shrink steps parse" `Quick
            test_shrink_steps_parse;
          Alcotest.test_case "kv shrink steps parse" `Quick
            test_kv_shrink_steps_parse;
          Alcotest.test_case "golden replay" `Quick test_golden_replay;
          Alcotest.test_case "oversized history noted unchecked" `Quick
            test_unchecked_note;
        ] );
      ( "all structures",
        Alcotest.test_case "all_names covers the registry" `Quick
          test_all_names_cover_registry
        :: List.map pinned_pass_case pinned_passes
        @ List.map huge_keys_case
            [
              "list/optik@u4 t2 o2 k999999999999 q20000 r0 n62 w1 f1";
              "map/mcs@u4 t2 o2 k999999999999 q20000 r0 n62 w1 f1";
            ] );
      ( "harris crash residue",
        [
          Alcotest.test_case "pinned hashtable/harris-ht replay passes" `Quick
            test_harris_crash_replay;
          Alcotest.test_case "validate accepts one per crash" `Quick
            test_harris_validate_residue;
        ] );
    ]
