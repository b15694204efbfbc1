(* Tests for the stacks of §5.5: Treiber, the OPTIK redesign and the
   elimination stack. The pool driver ({!Tutil.pool_suites}) checks LIFO
   order, conservation under concurrency, linearizability and the spec
   model; here, the elimination array's own mechanics. *)

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
    (Tutil.pool_suites "stack"
    @ [
        ( "elimination",
          [
            Alcotest.test_case "pairs eliminate under contention" `Quick
              test_elimination_happens;
          ] );
      ])
