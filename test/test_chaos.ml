(* Tests for the chaos engine: trial-string round-trips, deterministic
   fuzzing, the oracles on a known-bad configuration, and shrinking. *)

module F = Sim.Fault
module Fp = Rt.Rt_intf

(* ------------------------------------------------------------------ *)
(* Trial strings round-trip. Trials embed first-class modules, so
   compare via the canonical string form, not structural equality. *)

module S = (val Chaos.sets Chaos.default_entries)

let trial_roundtrip =
  Tutil.qcheck_case ~count:200 "trial to_string/of_string round-trip"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Harness.Rng.create seed in
      let tr = S.gen rng in
      let s = S.to_string tr in
      let tr' = S.of_string s in
      String.equal s (S.to_string tr')
      && String.equal tr.Chaos.t_entry.Chaos.e_name
           tr'.Chaos.t_entry.Chaos.e_name)

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
        let lf = String.length field and lm = String.length msg in
        let rec at i =
          i + lf <= lm && (String.sub msg i lf = field || at (i + 1))
        in
        if not (at 0) then
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
  let kv = "kv/ht-optik@u4 s1 t2 o100 k64 R50 C10 w1 D50000 B64 f7" in
  kv_named "targets thread 9" (kv ^ ";crash@op-boundary,t9,h1");
  kv_named "targets victim thread 9" (kv ^ ";storm(5000:v9)@op-boundary,h1");
  kv_named "targets store 9, but the trial has 2 stores"
    (kv ^ ";shardcrash(9)@op-boundary,h5");
  kv_named "targets store 2" (kv ^ ";shardrecover(2)@op-boundary,h5");
  kv_named "targets store 2" (kv ^ ";resynccrash(2)@op-boundary,h5");
  kv_named "targets store -1" (kv ^ ";shardcrash(-1)@op-boundary,h5");
  (* Each positivity check names its one field; a zero key count is a
     grammar error, not a failure inside [Kv.run]. *)
  kv_named "keys must be positive" "kv/ht-optik@u4 s1 t2 o100 k0";
  kv_named "shards must be positive" "kv/ht-optik@u4 s0 t2 o100";
  kv_named "threads must be positive" "kv/ht-optik@u4 s1 t0 o100";
  kv_named "ops must be positive" "kv/ht-optik@u4 s1 t2 o0";
  kv_named "degraded must be >= 0" "kv/ht-optik@u4 s1 t2 o100 D-1";
  kv_named "batch must be positive" "kv/ht-optik@u4 s1 t2 o100 B0";
  let txn_named =
    rejects (fun s -> ignore (Chaos.Txn_trial.of_string s : Chaos.Txn_trial.t))
  in
  txn_named "objects must be positive" "txn/ll-optik@u2 b0 a2 t1 o1";
  txn_named "threads must be positive" "txn/ll-optik@u2 b1 a2 t0 o1";
  txn_named "ops must be positive" "txn/ll-optik@u2 b1 a2 t1 o0";
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
    (S.of_string
       "stack/treiber@opteron t128 o4 k2 q1 r0 n62 w1 f1;crash@op-boundary,t127"
      : Chaos.trial)

(* ------------------------------------------------------------------ *)
(* Fuzzing is byte-deterministic: same seed, same entries, same output. *)

let fuzz_to_string ~runs ~seed =
  Chaos.fuzz (Chaos.sets Chaos.quick_entries :> (module Chaos.TRIAL)) ~runs ~seed

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
    Chaos.e_name = "list/gl-as-lf";
    e_kind = Chaos.Lock_free;
    e_target = Chaos.Set Harness.Registry.Sim_backend.ll_optik_gl;
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

(* The family that can resolve the mislabeled entry. *)
let with_fake = Chaos.sets (fake_lf :: Chaos.default_entries)

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
         "kv/ht-optik@u4 s1 t3 o200 k128 R50 C10 w1 D4000 B16 f7")
      with
      Chaos.Kv_trial.kv_plan = { F.seed = 7; specs };
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
    (let rec contains i =
       i + 13 <= String.length out1
       && (String.sub out1 i 13 = "verdict: FAIL" || contains (i + 1))
     in
     contains 0)

(* ------------------------------------------------------------------ *)
(* Harris crash residue. A thread that crashes between its mark CAS and
   its unlink CAS leaves a marked node linked; in a hash bucket no later
   operation may walk past it to help unlink it. This trial does exactly
   that (it used to fail the validate oracle): [validate] must accept
   one such node per crashed thread and nothing else. *)

let harris_crash_trial =
  "ht/harris@u2 t2 o1 k2 q1000000 r0 n62 w51809 f277664;crash@after-cas,t1,h1"

let test_harris_crash_replay () =
  let o = Chaos.run_trial (S.of_string harris_crash_trial) in
  Alcotest.(check (list int)) "thread 1 crashed" [ 1 ] o.Chaos.o_crashed;
  Alcotest.(check (list string)) "every oracle passes" []
    (List.map (fun f -> f.Chaos.f_oracle) o.Chaos.o_failures)

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
        ] );
      ( "harris crash residue",
        [
          Alcotest.test_case "pinned ht/harris replay passes" `Quick
            test_harris_crash_replay;
          Alcotest.test_case "validate accepts one per crash" `Quick
            test_harris_validate_residue;
        ] );
    ]
