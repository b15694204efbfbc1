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
  bad "list/harris@u4 !"

(* ------------------------------------------------------------------ *)
(* Fuzzing is byte-deterministic: same seed, same entries, same output. *)

let fuzz_to_string ~runs ~seed =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  let failures =
    Chaos.fuzz
      (Chaos.sets Chaos.quick_entries :> (module Chaos.TRIAL))
      ~runs ~seed ppf
  in
  Format.pp_print_flush ppf ();
  (failures, Buffer.contents buf)

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
          Alcotest.test_case "golden replay" `Quick test_golden_replay;
        ] );
    ]
