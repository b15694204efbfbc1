(* Tests for the figure-rendering helpers and the experiment engine's
   claim arithmetic (lib/figures). The full experiments run in bench/;
   here we check the machinery with synthetic data plus one real but
   tiny end-to-end experiment. *)

let series label pts =
  {
    Figures.Render.label;
    points =
      List.map (fun (t, m) -> (t, Tutil.measurement ~threads:t ~mops:m ())) pts;
  }

let capture f =
  let buf = Buffer.create 256 in
  f (fun line ->
      Buffer.add_string buf line;
      Buffer.add_char buf '\n');
  Buffer.contents buf

let test_mops_table () =
  let fig =
    {
      Figures.Render.id = "T";
      title = "test";
      series = [ series "alpha" [ (1, 1.5); (4, 3.25) ] ];
      latency_at = None;
      latency_classes = [||];
      notes = [ "a note" ];
    }
  in
  let out = capture (fun o -> Figures.Render.figure o fig) in
  List.iter
    (fun frag ->
      if not (Obs.Report.contains ~sub:frag out) then
        Alcotest.failf "missing %S in rendered figure:\n%s" frag out)
    [ "alpha"; "1.50"; "3.25"; "threads"; "note: a note"; "peak 3.25" ]

let test_sparkline_scaling () =
  (* the peak point must use the densest glyph, zeros the sparsest *)
  let fig =
    {
      Figures.Render.id = "T";
      title = "t";
      series = [ series "s" [ (1, 0.0); (2, 10.0) ] ];
      latency_at = None;
      latency_classes = [||];
      notes = [];
    }
  in
  let out = capture (fun o -> Figures.Render.sparklines o fig) in
  Alcotest.(check bool) "peak glyph present" true (String.contains out '@');
  Alcotest.(check bool) "peak value shown" true
    (Obs.Report.contains ~sub:"peak 10.00" out)

let test_claims_render () =
  let cs =
    [
      {
        Figures.Render.claim_id = "X1";
        description = "desc";
        expected = "paper says";
        measured = "we say";
        holds = true;
      };
      {
        Figures.Render.claim_id = "X2";
        description = "bad";
        expected = "e";
        measured = "m";
        holds = false;
      };
    ]
  in
  let out = capture (fun o -> Figures.Render.claims o cs) in
  let has sub = Obs.Report.contains ~sub out in
  Alcotest.(check bool) "PASS shown" true (has "[PASS] X1");
  Alcotest.(check bool) "DIVERGES shown" true (has "[DIVERGES] X2")

let test_avg_ratio () =
  let a = series "a" [ (1, 2.0); (4, 4.0); (8, 8.0) ] in
  let b = series "b" [ (1, 1.0); (4, 2.0); (8, 2.0) ] in
  Alcotest.(check (float 0.001)) "avg ratio" (8. /. 3.)
    (Figures.Experiments.avg_ratio a b);
  Alcotest.(check (float 0.001)) "filtered" 4.0
    (Figures.Experiments.avg_ratio ~keep:(fun t -> t = 8) a b)

let test_find () =
  let (module S : Harness.Registry.SET_OPS) =
    Harness.Registry.(set_ops (Sim_backend.find "list/optik-cache"))
  in
  Alcotest.(check string) "found by name" "optik-cache" S.name;
  match Harness.Registry.Sim_backend.find "list/no-such" with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let tiny =
  {
    Figures.Experiments.threads_of = (fun _ -> [ 2 ]);
    ops_scale = 0.02;
    seed = 42;
  }

(* a real but tiny experiment end-to-end: one workload point per series *)
let test_tiny_experiment_runs () =
  let figs, claims = Figures.Experiments.run_id tiny "stack" in
  Alcotest.(check bool) "figures produced" true (figs <> []);
  Alcotest.(check bool) "claims produced" true (claims <> []);
  List.iter
    (fun f ->
      List.iter
        (fun s ->
          List.iter
            (fun (_, m) ->
              Alcotest.(check bool)
                (s.Figures.Render.label ^ " throughput positive")
                true
                (m.Harness.Runner.mops > 0.))
            s.Figures.Render.points)
        f.Figures.Render.series)
    figs

(* A report lists only the runs of its own [run]: the measurements an
   earlier [run_id] left behind are not carried into it. *)
let test_run_starts_empty () =
  ignore (Figures.Experiments.run_id tiny "stack");
  let runs = Figures.Experiments.run tiny ignore [ "bst" ] in
  Alcotest.(check (list string)) "the bst runs only"
    [ "r000:xeon/bst-gl@t2"; "r001:xeon/bst-optik@t2" ]
    (List.map fst runs)

let () =
  Alcotest.run "figures"
    [
      ( "render",
        [
          Alcotest.test_case "mops table" `Quick test_mops_table;
          Alcotest.test_case "sparkline scaling" `Quick test_sparkline_scaling;
          Alcotest.test_case "claims" `Quick test_claims_render;
        ] );
      ( "engine",
        [
          Alcotest.test_case "avg_ratio" `Quick test_avg_ratio;
          Alcotest.test_case "find" `Quick test_find;
          Alcotest.test_case "tiny experiment end-to-end" `Quick
            test_tiny_experiment_runs;
          Alcotest.test_case "run reports only its own runs" `Quick
            test_run_starts_empty;
        ] );
    ]
