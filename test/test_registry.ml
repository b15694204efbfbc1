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
        (Chaos.Kv_trial.of_string ("kv/" ^ id ^ "@u4")).Kv.rep
      and txn () = fst (W.rep id)
      and txn_trial () =
        (Chaos.Txn_trial.of_string ("txn/" ^ id ^ "@u2")).W.rep
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

let families = [ "map"; "list"; "hashtable"; "skiplist"; "bst"; "queue"; "stack" ]

(* The family lineups together are the table without the Harris-bucket
   hash table, in table order, each row the table's own. *)
let test_lineup () =
  Alcotest.(check (list string))
    "every entry once, except hashtable/harris-ht"
    (List.filter (( <> ) "hashtable/harris-ht") (List.map R.id B.entries))
    (List.map R.id (List.concat_map B.lineup families));
  List.iter
    (fun e ->
      Alcotest.(check bool) (R.id e ^ " is the table's row") true
        (B.find (R.id e) == e))
    (List.concat_map B.lineup families)

(* The two structures named outside the table are its rows' modules,
   on both backends: each structure is built once. *)
let test_named_bindings () =
  let is_row what find id m =
    match (find id : R.entry).structure with
    | R.Set s -> Alcotest.(check bool) (what ^ " " ^ id) true (s == m)
    | R.Queue _ | R.Stack _ -> Alcotest.failf "%s is not a set" id
  in
  is_row "sim" B.find "list/optik" B.ll_optik;
  is_row "sim" B.find "map/optik" B.map_optik;
  is_row "native" R.Native.find "list/optik" R.Native.ll_optik;
  is_row "native" R.Native.find "map/optik" R.Native.map_optik

(* Chaos draws from its default names first; the rest follow in table
   order. *)
let test_chaos_names () =
  let ids = List.map R.id B.entries in
  Alcotest.(check (list string))
    "default names, then the rest of the table"
    (Chaos.default_names
    @ List.filter (fun n -> not (List.mem n Chaos.default_names)) ids)
    Chaos.all_names;
  Alcotest.(check int) "every entry once" (List.length ids)
    (List.length (List.sort_uniq compare Chaos.all_names))

(* A soak line's structure is the spelling [find] takes back to the
   case's entry. *)
let test_soak_describe () =
  List.iter
    (fun (what, shape) ->
      let rng = Harness.Rng.create 17 in
      for _ = 1 to 200 do
        let c = Harness.Soak.sample shape rng in
        let line = Harness.Soak.describe c in
        let head = List.hd (String.split_on_char ' ' line) in
        match B.find head with
        | e ->
            Alcotest.(check bool) (what ^ ": " ^ line) true
              (e == c.Harness.Soak.structure)
        | exception Invalid_argument _ ->
            Alcotest.failf "%s: %S names no entry" what line
      done)
    [ ("bounded", Harness.Soak.bounded); ("wide", Harness.Soak.wide) ]

let () =
  Alcotest.run "registry"
    [
      ("entries", List.map entry_case B.entries);
      ( "spellings",
        [
          Alcotest.test_case "unknown and retired names" `Quick test_unknown;
          Alcotest.test_case "one spelling per entry" `Quick test_unique;
        ] );
      ( "one list",
        [
          Alcotest.test_case "lineups" `Quick test_lineup;
          Alcotest.test_case "named bindings are table rows" `Quick
            test_named_bindings;
          Alcotest.test_case "chaos names" `Quick test_chaos_names;
          Alcotest.test_case "soak lines name entries" `Quick
            test_soak_describe;
        ] );
    ]
