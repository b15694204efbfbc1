(* The bench/perf command: one workload per process.

     perf.exe --workload W [--seed N] [--seconds S] [--trace 0|1]
              [--out FILE] [--smoke]

   Steps: untraced runs (end-to-end metrics), traced runs (per-layer
   metrics), the correctness gates, then one
   "<workload> <metric> <value> <unit> n=<samples>" line per metric and,
   last, a one-line JSON result. Without --trace every step runs;
   --trace 0 runs only the untraced step and --trace 1 only the traced
   one, for runners that take the two metric sets from separate
   processes. --seconds sets how many untraced runs the first step makes
   (see Suite.repeats); the count never depends on the host's speed.
   Exit codes: 0 measured and correct, 1 a gate failed (no metrics
   printed), 2 malformed input. *)

open Perf_suite

let usage =
  Printf.sprintf "perf.exe --workload {%s} [--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--smoke]"
    (String.concat "|" Suite.workload_names)

let fail2 fmt = Printf.ksprintf (fun s -> prerr_endline ("perf: " ^ s); exit 2) fmt

let () =
  let workload = ref "" and seed = ref 7 and seconds = ref Suite.default_seconds and trace = ref (-1) in
  let out = ref "" and smoke = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "W  one of " ^ String.concat ", " Suite.workload_names);
      ("--seed", Arg.Set_int seed, "N  workload seed (default 7)");
      ( "--seconds",
        Arg.Set_int seconds,
        Printf.sprintf "S  host seconds the untraced step is sized to fill (default %d)" Suite.default_seconds );
      ("--trace", Arg.Set_int trace, "0|1  only the untraced (0) or only the traced (1) step");
      ("--out", Arg.Set_string out, "FILE  also write the run report (Obs.Report JSON)");
      ("--smoke", Arg.Set smoke, " 1/20 length, one run per step");
      ( "--skew-lens",
        Arg.Set Lens.skew,
        " negative control: make the lens perturb the simulation, which the exactness gate must refuse" );
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !workload = "" then fail2 "--workload is required (%s)" (String.concat ", " Suite.workload_names);
  let w =
    match Suite.find_workload !workload with
    | Some w -> w
    | None ->
        fail2 "unknown workload %S (known: %s)" !workload
          (String.concat ", " Suite.workload_names)
  in
  if !seconds < 1 then fail2 "--seconds must be at least 1";
  if not (List.mem !trace [ -1; 0; 1 ]) then fail2 "--trace must be 0 or 1";
  (if !out <> "" then
     try close_out (open_out_gen [ Open_wronly; Open_creat ] 0o644 !out)
     with Sys_error e -> fail2 "cannot write --out: %s" e);
  let o = { Suite.seed = !seed; seconds = float_of_int !seconds; smoke = !smoke } in
  let t0 = Suite.now_ns () in
  let steps =
    (if !trace <> 1 then [ Suite.end_to_end_step o w ] else [])
    @ if !trace <> 0 then [ Suite.per_layer_step o w ] else []
  in
  (match Suite.all_ok (List.map (fun (s : Suite.outcome) -> s.verdict) steps) with
  | Ok () -> ()
  | Error e ->
      prerr_endline ("perf: " ^ w.name ^ ": correctness gate failed: " ^ e);
      exit 1);
  let values = List.concat_map (fun (s : Suite.outcome) -> s.values) steps in
  List.iter (fun v -> print_endline (Suite.line w.name v)) values;
  let attempted = List.fold_left (fun a (s : Suite.outcome) -> a + s.attempted) 0 steps in
  let failed = List.fold_left (fun a (s : Suite.outcome) -> a + s.failed) 0 steps in
  if !out <> "" then
    Obs.Report.write_file !out
      (Suite.report ~workload:w.name ~seed:!seed
         ~params:
           [
             ("workload", Obs.Report.Str w.name);
             ("seconds", Obs.Report.Int !seconds);
             ("trace", Obs.Report.Int !trace);
             ("smoke", Obs.Report.Bool !smoke);
             ("host_s", Obs.Report.Float (Suite.since t0));
           ]
         values);
  print_endline (Suite.result_line ~attempted ~failed values)
