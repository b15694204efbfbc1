(* Randomized soak test: hammers every structure with randomized
   workloads, topologies, thread counts and seeds, checking conservation
   and structural invariants after every run. Not part of `dune runtest`
   (unbounded); run manually:

     dune exec test/soak.exe -- [minutes] [base-seed]

   Defaults: 2 minutes, seed from CHAOS_SEED/SOAK_SEED in the environment
   (so a CI failure is reproducible locally by exporting the seed the job
   printed), else from the clock. Runs are drawn by [Harness.Soak] at its
   wide shape. Every failure prints the exact (structure, topology,
   threads, size, updates, skew, ops, seed) tuple — simulator runs are
   deterministic, so any failure is replayable. Malformed arguments exit
   2 with a usage line. *)

let usage msg =
  prerr_endline ("soak: " ^ msg ^ "\nusage: soak.exe [minutes] [base-seed]");
  exit 2

let arg i parse what =
  if Array.length Sys.argv <= i then None
  else
    match parse Sys.argv.(i) with
    | Some v -> Some v
    | None -> usage (Printf.sprintf "%s must be a number, got %S" what Sys.argv.(i))

let minutes = Option.value (arg 1 float_of_string_opt "minutes") ~default:2.

let env_seed () =
  match (Sys.getenv_opt "CHAOS_SEED", Sys.getenv_opt "SOAK_SEED") with
  | Some s, _ | None, Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n -> Some n
      | None -> usage ("non-integer seed in environment: " ^ s))
  | None, None -> None

let base_seed =
  match arg 2 int_of_string_opt "base-seed" with
  | Some n -> n
  | None -> (
      match env_seed () with
      | Some n -> n
      | None -> int_of_float (Unix.gettimeofday ()) land 0xFFFFFF)

let () =
  Printf.printf "soak: %.1f minutes, base seed %d\n%!" minutes base_seed;
  let rng = Harness.Rng.create base_seed in
  let deadline = Unix.gettimeofday () +. (minutes *. 60.) in
  let runs = ref 0 and failures = ref 0 in
  while Unix.gettimeofday () < deadline do
    incr runs;
    let c = Harness.Soak.sample Harness.Soak.wide rng in
    (try
       match Chaos.run_failures (Harness.Soak.run c) with
       | [] -> ()
       | fs ->
           incr failures;
           Printf.printf "FAIL %s\n" (Harness.Soak.describe c);
           Chaos.report_failures Format.std_formatter fs
     with e ->
       incr failures;
       Printf.printf "EXCEPTION %s: %s\n%!" (Printexc.to_string e)
         (Harness.Soak.describe c));
    if !runs mod 25 = 0 then
      Printf.printf "  ... %d runs, %d failures\n%!" !runs !failures
  done;
  Printf.printf "soak finished: %d runs, %d failures\n" !runs !failures;
  exit (if !failures > 0 then 1 else 0)
