(* Benchmark driver: regenerates every figure of the paper on the
   simulated multicore, checks the paper's claims, and runs Bechamel
   microbenchmarks (real time, native backend) — one Test per
   table/figure family.

   Usage:
     dune exec bench/main.exe                 # all experiments, quick mode
     dune exec bench/main.exe -- fig9 fig12   # a subset
     dune exec bench/main.exe -- --full       # denser sweeps
     dune exec bench/main.exe -- bechamel     # only the microbenchmarks

   (The cmdliner front-end in bin/ exposes the same engine with nicer
   flags.) *)

let out = print_endline

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks: native single-thread op cost per family.  *)

let bech_tests () =
  let open Bechamel in
  let module N = Harness.Registry.Native in
  let mk_set name (module S : Harness.Registry.SET_OPS) ~capacity ~prefill =
    Test.make ~name
      (Staged.stage (fun () ->
           let t = S.create ~capacity () in
           for i = 1 to prefill do
             ignore (S.insert t ((i * 7919 mod 65_521) + 1) i : bool)
           done;
           (* a mixed burst at the paper's 20% effective update mix *)
           for i = 1 to 64 do
             let k = ((i * 31) mod (2 * prefill)) + 1 in
             if i mod 5 = 0 then ignore (S.insert t k i : bool)
             else if i mod 5 = 1 then ignore (S.delete t k : int option)
             else ignore (S.search t k : int option)
           done))
  in
  let mk_queue name (module Q : Harness.Registry.QUEUE_OPS) =
    Test.make ~name
      (Staged.stage (fun () ->
           let t = Q.create () in
           for i = 1 to 256 do
             Q.enqueue t i
           done;
           for _ = 1 to 256 do
             ignore (Q.dequeue t : int option)
           done))
  in
  [
    (* one per table/figure family *)
    mk_set "fig7.map-optik" N.map_optik ~capacity:128 ~prefill:64;
    mk_set "fig7.map-mcs" N.map_mcs ~capacity:128 ~prefill:64;
    mk_set "fig9.ll-optik" N.ll_optik ~capacity:0 ~prefill:128;
    mk_set "fig9.ll-lazy" N.ll_lazy_ ~capacity:0 ~prefill:128;
    mk_set "fig9.ll-harris" N.ll_harris ~capacity:0 ~prefill:128;
    mk_set "fig10.ht-optik-gl" N.ht_optik_gl ~capacity:128 ~prefill:128;
    mk_set "fig10.ht-java" N.ht_java ~capacity:128 ~prefill:128;
    mk_set "fig11.sl-optik2" N.sl_optik2 ~capacity:0 ~prefill:256;
    mk_set "fig11.sl-fraser" N.sl_fraser ~capacity:0 ~prefill:256;
    mk_queue "fig12.q-ms-lf" N.q_ms_lf;
    mk_queue "fig12.q-optik2" N.q_optik2;
  ]

let run_bechamel () =
  let open Bechamel in
  let open Toolkit in
  out "";
  out (String.make 78 '-');
  out "Bechamel microbenchmarks (native backend, single thread, real time)";
  out (String.make 78 '-');
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 100) ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg instances test in
      let results = Analyze.all ols Instance.monotonic_clock raw in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Printf.printf "%-28s %12.0f ns/run\n%!" name est
          | _ -> Printf.printf "%-28s (no estimate)\n%!" name)
        results)
    (bech_tests ())

(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let fullmode = List.mem "--full" args in
  (* [--quick] is accepted (and is the default) so CI invocations can be
     explicit about the mode they expect. *)
  let args = List.filter (fun a -> a <> "--full" && a <> "--quick") args in
  let mode = Figures.Experiments.mode_of ~full:fullmode ~seed:42 in
  let bech_only = args = [ "bechamel" ] in
  let ids =
    match List.filter (fun a -> a <> "bechamel") args with
    | [] -> Figures.Experiments.all_ids
    | l -> l
  in
  (try Figures.Experiments.check_ids ids
   with Invalid_argument msg ->
     prerr_endline msg;
     exit 2);
  let t0 = Unix.gettimeofday () in
  if not bech_only then (
    out
      (Printf.sprintf
         "OPTIK reproduction benchmarks — %s mode — experiments: %s"
         (if fullmode then "full" else "quick")
         (String.concat " " ids));
    out
      "Simulated machines: xeon (2x10x2 @2.8GHz), opteron (8x6 @2.1GHz); \
       deterministic multicore simulator (see DESIGN.md).";
    ignore
      (Figures.Experiments.run mode
         ~around:(fun id f ->
           let t1 = Unix.gettimeofday () in
           let claims = f () in
           Printf.printf "[%s done in %.1fs]\n%!" id (Unix.gettimeofday () -. t1);
           claims)
         out ids));
  if bech_only || args = [] then run_bechamel ();
  Printf.printf "\ntotal bench time: %.1fs\n" (Unix.gettimeofday () -. t0)
