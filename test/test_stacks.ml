(* Tests for the stacks of §5.5: Treiber and the OPTIK redesign. *)

module R = Harness.Registry

let sim_stacks = Harness.Registry.Sim_backend.stacks
let native_stacks = Harness.Registry.Native.stacks

module HStack = Harness.History.Make (Lincheck.Stack_spec)

let seq_cases =
  List.map
    (fun (module S : R.STACK_OPS) ->
      Alcotest.test_case (S.name ^ " LIFO order") `Quick (fun () ->
          let t = S.create () in
          Alcotest.(check (option int)) "empty" None (S.pop t);
          for i = 1 to 50 do
            S.push t i
          done;
          Alcotest.(check int) "size" 50 (S.size t);
          for i = 50 downto 1 do
            Alcotest.(check (option int))
              (Printf.sprintf "lifo %d" i)
              (Some i) (S.pop t)
          done;
          Alcotest.(check (option int)) "drained" None (S.pop t)))
    native_stacks

let conservation (module S : R.STACK_OPS) ~nthreads ~ops () =
  let t = S.create () in
  for i = 1 to 32 do
    S.push t (900_000_000 + i)
  done;
  let pushed = Array.make nthreads 0 in
  let popped = Array.make nthreads [] in
  ignore
    (Sim.Sched.run ~topology:Tutil.uniform4 ~nthreads (fun tid ->
         let rng = Harness.Rng.create (tid + 101) in
         for i = 1 to ops do
           if Harness.Rng.below rng 2 = 0 then (
             S.push t ((tid * 1_000_000) + i);
             pushed.(tid) <- pushed.(tid) + 1)
           else
             match S.pop t with
             | Some v -> popped.(tid) <- v :: popped.(tid)
             | None -> ()
         done));
  let tp = 32 + Array.fold_left ( + ) 0 pushed in
  let td = Array.fold_left (fun a l -> a + List.length l) 0 popped in
  Alcotest.(check int) (S.name ^ " conservation") (tp - td) (S.size t);
  let seen = Hashtbl.create 64 in
  Array.iter
    (List.iter (fun v ->
         if Hashtbl.mem seen v then
           Alcotest.failf "%s: value %d popped twice" S.name v;
         Hashtbl.add seen v ()))
    popped

let concurrent_cases =
  List.map
    (fun (module S : R.STACK_OPS) ->
      Alcotest.test_case (S.name ^ " conservation sim") `Quick
        (conservation (module S) ~nthreads:6 ~ops:400))
    sim_stacks

let lincheck_stack (module S : R.STACK_OPS) ~seed () =
  let t = S.create () in
  let init = [ 3; 2; 1 ] in
  List.iter (fun v -> S.push t v) (List.rev init);
  let h = HStack.create ~nthreads:3 in
  ignore
    (Sim.Sched.run ~topology:Tutil.uniform4 ~nthreads:3 ~read_slack:0
       (fun tid ->
         let rng = Harness.Rng.create ((seed * 131) + tid) in
         for i = 1 to 4 do
           ignore
             (if Harness.Rng.below rng 2 = 0 then
                let v = (tid * 1000) + i in
                HStack.record h (Lincheck.Stack_spec.Push v) (fun () ->
                    S.push t v;
                    Lincheck.Stack_spec.Unit)
              else
                HStack.record h Lincheck.Stack_spec.Pop (fun () ->
                    match S.pop t with
                    | Some v -> Lincheck.Stack_spec.Got v
                    | None -> Lincheck.Stack_spec.Empty))
         done));
  let events = HStack.completed h in
  match HStack.L.check ~init events with
  | HStack.L.Witness _ -> ()
  | HStack.L.Too_large ->
      Alcotest.failf "%s: history too large to check (seed %d)" S.name seed
  | HStack.L.No_witness ->
      Alcotest.failf "%s: non-linearizable stack history (seed %d):@.%a"
        S.name seed HStack.L.pp_history events

let lincheck_cases =
  List.concat_map
    (fun (module S : R.STACK_OPS) ->
      List.map
        (fun seed ->
          Alcotest.test_case
            (Printf.sprintf "%s linearizable (seed %d)" S.name seed)
            `Quick
            (lincheck_stack (module S) ~seed))
        [ 1; 2; 3; 4; 5; 6; 7; 8 ])
    sim_stacks

let native_cases =
  List.map
    (fun (module S : R.STACK_OPS) ->
      Alcotest.test_case (S.name ^ " native stress") `Slow (fun () ->
          let t = S.create () in
          let nthreads = 4 and ops = 3_000 in
          Rt.Native_rt.set_nthreads nthreads;
          let pushed = Array.make nthreads 0 and popped = Array.make nthreads 0 in
          let body tid () =
            Rt.Native_rt.set_tid tid;
            let rng = Harness.Rng.create (tid + 5) in
            for i = 1 to ops do
              if Harness.Rng.below rng 2 = 0 then (
                S.push t ((tid * 1_000_000) + i);
                pushed.(tid) <- pushed.(tid) + 1)
              else
                match S.pop t with
                | Some _ -> popped.(tid) <- popped.(tid) + 1
                | None -> ()
            done
          in
          let doms =
            List.init (nthreads - 1) (fun i -> Domain.spawn (body (i + 1)))
          in
          body 0 ();
          List.iter Domain.join doms;
          Rt.Native_rt.set_nthreads 1;
          let tp = Array.fold_left ( + ) 0 pushed
          and td = Array.fold_left ( + ) 0 popped in
          Alcotest.(check int) (S.name ^ " native conservation") (tp - td)
            (S.size t)))
    native_stacks

(* Property: random op sequences match a list model. *)
let qcheck_seq_cases =
  List.map
    (fun (module S : R.STACK_OPS) ->
      Tutil.qcheck_case ~count:50
        (S.name ^ " random ops vs model")
        QCheck2.Gen.(list_size (int_range 0 200) (int_range 0 99))
        (fun ops ->
          let t = S.create () in
          let model = ref [] in
          List.for_all
            (fun x ->
              if x < 60 then (
                S.push t x;
                model := x :: !model;
                true)
              else
                let got = S.pop t in
                match !model with
                | [] -> got = None
                | m :: rest ->
                    model := rest;
                    got = Some m)
            ops
          && S.size t = List.length !model))
    native_stacks

(* Elimination specifics: under a CAS storm on the simulated xeon,
   opposite operations should actually meet in the array. *)
let test_elimination_happens () =
  Sim.Sim_rt.Probe.reset_all ();
  let module St = Dstruct.Stacks.Make (Sim.Sim_rt) in
  let t = St.Elimination.create ~slots:2 () in
  for i = 1 to 64 do
    St.Elimination.push t i
  done;
  let pushed = Sim.Sched.loc 0 and popped = Sim.Sched.loc 0 in
  ignore
    (Sim.Sched.run ~topology:Sim.Topology.xeon ~nthreads:16 (fun tid ->
         let rng = Harness.Rng.create (tid + 71) in
         for i = 1 to 300 do
           if Harness.Rng.below rng 2 = 0 then (
             St.Elimination.push t ((tid * 1000) + i);
             ignore (Sim.Sched.faa pushed 1 : int))
           else
             match St.Elimination.pop t with
             | Some _ -> ignore (Sim.Sched.faa popped 1 : int)
             | None -> ()
         done));
  Alcotest.(check int) "conservation"
    (64 + Sim.Sched.read pushed - Sim.Sched.read popped)
    (St.Elimination.size t);
  Alcotest.(check bool) "eliminations happened" true
    (Sim.Sim_rt.Probe.count St.Elimination.eliminated > 0)

let () =
  Alcotest.run "stacks"
    [
      ("sequential LIFO", seq_cases);
      ("concurrent (sim)", concurrent_cases);
      ("linearizability", lincheck_cases);
      ("property", qcheck_seq_cases);
      ("concurrent (native)", native_cases);
      ( "elimination",
        [
          Alcotest.test_case "pairs eliminate under contention" `Quick
            test_elimination_happens;
        ] );
    ]
