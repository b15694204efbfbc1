(* The one structure table: every selector of the program names a
   structure [family/name] and resolves it through
   [Harness.Registry.Sim_backend.find]. One case per registered entry
   checks that each selector that takes the entry yields the physically
   same module and that the others refuse it; one case checks that
   retired and unknown spellings get the registry's one message from
   every selector. *)

module R = Harness.Registry
module B = R.Sim_backend
module W = Txn.Workload
module Sets = (val Chaos.sets [])

(* [optik_bench run --structure S] runs [R.set_ops (B.find S)]. *)
let run_selector spelling = R.set_ops (B.find spelling)

let structure_of_trial spelling =
  (Sets.of_string (spelling ^ "@u2 t2 o1 k2")).Chaos.t_entry.R.structure

let same what (a : R.structure) (b : R.structure) =
  Alcotest.(check bool) (what ^ " yields the same module") true
    (match (a, b) with
    | R.Set x, R.Set y -> x == y
    | R.Queue x, R.Queue y -> x == y
    | R.Stack x, R.Stack y -> x == y
    | _ -> false)

let refused what f =
  match f () with
  | _ -> Alcotest.failf "%s accepted a structure it does not take" what
  | exception Invalid_argument _ -> ()

let entry_case (e : R.entry) =
  let id = R.id e in
  Alcotest.test_case id `Quick (fun () ->
      Alcotest.(check bool) "find returns the entry" true (B.find id == e);
      (match Chaos.select [ id ] with
      | [ e' ] -> same "Chaos.select" e.structure e'.R.structure
      | l -> Alcotest.failf "Chaos.select gave %d entries" (List.length l));
      same "chaos replay" e.structure (structure_of_trial id);
      let kv () = Kv.rep_ops id
      and kv_trial () =
        (Chaos.Kv_trial.of_string ("kv/" ^ id ^ "@u4")).Chaos.Kv_trial.kv_rep
      and txn () = fst (W.rep id)
      and txn_trial () =
        (Chaos.Txn_trial.of_string ("txn/" ^ id ^ "@u2")).Chaos.Txn_trial.x_rep
      in
      let takes what yes m f trial =
        if yes then begin
          Alcotest.(check bool) (what ^ " yields the same module") true (f () == m);
          Alcotest.(check string) (what ^ " trial") id (trial ())
        end
        else (refused what f; refused (what ^ " trial") trial)
      in
      match e.structure with
      | R.Set s ->
          Alcotest.(check bool) "run's selector yields the same module" true
            (run_selector id == s);
          takes "kv" (List.mem id Kv.rep_names) s kv kv_trial;
          takes "txn" (List.mem_assoc id W.reps) s txn txn_trial
      | R.Queue _ | R.Stack _ ->
          refused "run's selector" (fun () -> run_selector id);
          refused "kv" kv;
          refused "kv trial" kv_trial;
          refused "txn" txn;
          refused "txn trial" txn_trial)

(* Every spelling the program used before the one table, and a plain
   unknown name, get the registry's message from every selector. *)
let test_unknown () =
  List.iter
    (fun s ->
      let want =
        Printf.sprintf "unknown structure %S; known: %s" s
          (String.concat ", " (List.map R.id B.entries))
      in
      let check what f =
        match f () with
        | _ -> Alcotest.failf "%s accepted %S" what s
        | exception Invalid_argument msg ->
            Alcotest.(check string) what want msg
      in
      check "find" (fun () -> ignore (B.find s));
      check "Chaos.select" (fun () -> ignore (Chaos.select [ s ]));
      check "chaos replay" (fun () -> ignore (structure_of_trial s));
      check "run's selector" (fun () -> ignore (run_selector s));
      check "kv" (fun () -> ignore (Kv.rep_ops s));
      check "kv trial" (fun () ->
          ignore (Chaos.Kv_trial.of_string ("kv/" ^ s ^ "@u4")));
      check "txn" (fun () -> ignore (W.rep s));
      check "txn trial" (fun () ->
          ignore (Chaos.Txn_trial.of_string ("txn/" ^ s ^ "@u2"))))
    [ "optik"; "ht/optik"; "ht-optik"; "sl/optik2"; "stack/elim"; "list/nope" ]

let test_unique () =
  let ids = List.map R.id B.entries in
  Alcotest.(check int) "32 entries" 32 (List.length ids);
  Alcotest.(check int) "each spelling once" (List.length ids)
    (List.length (List.sort_uniq compare ids))

let () =
  Alcotest.run "registry"
    [
      ("entries", List.map entry_case B.entries);
      ( "spellings",
        [
          Alcotest.test_case "unknown and retired names" `Quick test_unknown;
          Alcotest.test_case "one spelling per entry" `Quick test_unique;
        ] );
    ]
