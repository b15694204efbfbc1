(* Tests for the linearizability checker itself: accept known-good
   histories, reject known violations, respect real-time precedence,
   include-or-exclude crashed (pending) operations, and degrade to
   Too_large instead of raising on oversized histories. *)

(* History builders and verdict cases over one spec. *)
module Checks (Spec : Lincheck.SPEC) = struct
  module L = Lincheck.Make (Spec)

  let ev tid inv res input output = { L.tid; inv; res; input; output }
  let pend tid inv input = { L.p_tid = tid; p_inv = inv; p_input = input }

  let accepts ?(pending = []) name history =
    Alcotest.test_case name `Quick (fun () ->
        match L.check ~pending history with
        | L.Witness _ -> ()
        | L.No_witness -> Alcotest.fail "expected linearizable"
        | L.Too_large -> Alcotest.fail "unexpected Too_large")

  let rejects ?(pending = []) name history =
    Alcotest.test_case name `Quick (fun () ->
        match L.check ~pending history with
        | L.Witness _ -> Alcotest.fail "expected violation"
        | L.No_witness -> ()
        | L.Too_large -> Alcotest.fail "unexpected Too_large")
end

include Checks (Lincheck.Set_spec)
module LS = L
open Lincheck.Set_spec

let set_cases =
  [
    accepts "empty history" [];
    accepts "sequential insert then search"
      [
        ev 0 0 10 (Insert (1, 5)) Ok;
        ev 0 20 30 (Search 1) (Found 5);
      ];
    rejects "search sees value never inserted"
      [ ev 0 0 10 (Search 1) (Found 5) ];
    accepts "concurrent insert/search may miss"
      [
        ev 0 0 100 (Insert (1, 5)) Ok;
        ev 1 50 60 (Search 1) Absent (* overlaps the insert: fine *);
      ];
    rejects "search after completed insert must not miss"
      [
        ev 0 0 10 (Insert (1, 5)) Ok;
        ev 1 20 30 (Search 1) Absent;
      ];
    accepts "two concurrent inserts, one dup"
      [
        ev 0 0 100 (Insert (1, 5)) Ok;
        ev 1 10 90 (Insert (1, 6)) Dup;
      ];
    rejects "both concurrent same-key inserts succeed"
      [
        ev 0 0 100 (Insert (1, 5)) Ok;
        ev 1 10 90 (Insert (1, 6)) Ok;
      ];
    rejects "delete returns value of later insert"
      [
        ev 0 0 10 (Insert (1, 5)) Ok;
        ev 0 20 30 (Delete 1) (Found 7);
      ];
    accepts "delete of concurrent insert"
      [
        ev 0 0 100 (Insert (1, 5)) Ok;
        ev 1 50 150 (Delete 1) (Found 5);
      ];
    rejects "two deletes both observe one insert"
      [
        ev 0 0 10 (Insert (1, 5)) Ok;
        ev 1 20 40 (Delete 1) (Found 5);
        ev 2 22 45 (Delete 1) (Found 5);
      ];
    accepts "interleaved three threads"
      [
        ev 0 0 30 (Insert (1, 1)) Ok;
        ev 1 10 40 (Insert (2, 2)) Ok;
        ev 2 20 60 (Search 1) (Found 1);
        ev 0 50 80 (Delete 2) (Found 2);
        ev 1 70 90 (Search 2) Absent;
      ];
  ]

(* Crash-aware checking: a pending op may be included or excluded. *)
let crash_cases =
  [
    accepts "crashed insert may be dropped"
      ~pending:[ pend 1 5 (Insert (1, 5)) ]
      [ ev 0 10 20 (Search 1) Absent ];
    accepts "crashed insert may have taken effect"
      ~pending:[ pend 1 5 (Insert (1, 5)) ]
      [ ev 0 10 20 (Search 1) (Found 5) ];
    rejects "found value explicable only by double-included crash"
      (* the single pending insert can justify Found 5 once, but not a
         Found after a completed delete removed it and nothing re-inserted *)
      ~pending:[ pend 1 5 (Insert (1, 5)) ]
      [
        ev 0 10 20 (Search 1) (Found 5);
        ev 0 30 40 (Delete 1) (Found 5);
        ev 0 50 60 (Search 1) (Found 5);
      ];
    accepts "crashed delete explains a miss after completed insert"
      ~pending:[ pend 1 15 (Delete 1) ]
      [
        ev 0 0 10 (Insert (1, 5)) Ok;
        ev 0 20 30 (Search 1) Absent;
      ];
    rejects "miss after completed insert without any crashed delete"
      ~pending:[ pend 1 15 (Insert (2, 9)) ]
      [
        ev 0 0 10 (Insert (1, 5)) Ok;
        ev 0 20 30 (Search 1) Absent;
      ];
    rejects "pending op cannot linearize before its invocation"
      (* the search completed before the crashed delete was even invoked,
         so including the delete cannot explain the miss *)
      ~pending:[ pend 1 50 (Delete 1) ]
      [
        ev 0 0 10 (Insert (1, 5)) Ok;
        ev 0 20 30 (Search 1) Absent;
      ];
  ]

(* Pool histories, for either order. *)
module Pool (O : sig
  val lifo : bool
end) =
struct
  module Spec = Lincheck.Pool_spec (O)
  include Checks (Spec)
end

module Fifo = Pool (struct
  let lifo = false
end)

module Lifo = Pool (struct
  let lifo = true
end)

let queue_cases =
  let open Fifo in
  let open Fifo.Spec in
  [
    accepts "fifo pair"
      [
        ev 0 0 10 (Put 1) Unit;
        ev 0 20 30 (Put 2) Unit;
        ev 1 40 50 Take (Got 1);
        ev 1 60 70 Take (Got 2);
      ];
    rejects "lifo order rejected"
      [
        ev 0 0 10 (Put 1) Unit;
        ev 0 20 30 (Put 2) Unit;
        ev 1 40 50 Take (Got 2);
        ev 1 60 70 Take (Got 1);
      ];
    accepts "concurrent enqueues, either order"
      [
        ev 0 0 100 (Put 1) Unit;
        ev 1 10 90 (Put 2) Unit;
        ev 2 200 210 Take (Got 2);
        ev 2 220 230 Take (Got 1);
      ];
    rejects "dequeue of nothing"
      [ ev 0 0 10 Take (Got 9) ];
    accepts "empty answer while concurrent enqueue"
      [
        ev 0 0 100 (Put 1) Unit;
        ev 1 10 20 Take Empty;
      ];
    rejects "empty answer after completed enqueue"
      [
        ev 0 0 10 (Put 1) Unit;
        ev 1 20 30 Take Empty;
      ];
    rejects "element dequeued twice"
      [
        ev 0 0 10 (Put 1) Unit;
        ev 1 20 30 Take (Got 1);
        ev 2 22 35 Take (Got 1);
      ];
    accepts "crashed enqueue explains a dequeued value"
      ~pending:[ pend 1 5 (Put 42) ]
      [ ev 0 10 20 Take (Got 42) ];
    accepts "crashed enqueue may be dropped"
      ~pending:[ pend 1 5 (Put 42) ]
      [ ev 0 10 20 Take Empty ];
    rejects "dequeued value with no source even among pending"
      ~pending:[ pend 1 5 (Put 41) ]
      [ ev 0 10 20 Take (Got 42) ];
  ]

let stack_cases =
  let open Lifo in
  let open Lifo.Spec in
  [
    accepts "pops in reverse push order"
      [
        ev 0 0 10 (Put 1) Unit;
        ev 0 20 30 (Put 2) Unit;
        ev 1 40 50 Take (Got 2);
        ev 1 60 70 Take (Got 1);
      ];
    rejects "pops in push order rejected"
      [
        ev 0 0 10 (Put 1) Unit;
        ev 0 20 30 (Put 2) Unit;
        ev 1 40 50 Take (Got 1);
        ev 1 60 70 Take (Got 2);
      ];
    rejects "element popped twice"
      [
        ev 0 0 10 (Put 1) Unit;
        ev 1 20 30 Take (Got 1);
        ev 2 22 35 Take (Got 1);
      ];
    accepts "crashed push explains a popped value"
      ~pending:[ pend 1 5 (Put 42) ]
      [ ev 0 0 10 (Put 1) Unit; ev 0 20 30 Take (Got 42) ];
    accepts "crashed push may be dropped"
      ~pending:[ pend 1 5 (Put 42) ]
      [ ev 0 10 20 Take Empty ];
  ]

(* Initial-state support. *)
let init_cases =
  [
    Alcotest.test_case "init state respected" `Quick (fun () ->
        let init = Lincheck.Set_spec.M.add 7 70 Lincheck.Set_spec.M.empty in
        (match LS.check ~init [ ev 0 0 10 (Search 7) (Found 70) ] with
        | LS.Witness _ -> ()
        | _ -> Alcotest.fail "should see initial contents");
        match LS.check ~init [ ev 0 0 10 (Search 7) Absent ] with
        | LS.Witness _ -> Alcotest.fail "must see initial contents"
        | _ -> ());
  ]

(* Graceful degradation: oversized histories are reported, not raised. *)
let too_large_cases =
  [
    Alcotest.test_case "63 completed events is Too_large" `Quick (fun () ->
        let history =
          List.init 63 (fun i ->
              ev 0 (i * 10) ((i * 10) + 5) (Insert (i + 1, i)) Ok)
        in
        match LS.check history with
        | LS.Too_large -> ()
        | _ -> Alcotest.fail "expected Too_large");
    Alcotest.test_case "62 completed events is checked" `Quick (fun () ->
        let history =
          List.init 62 (fun i ->
              ev 0 (i * 10) ((i * 10) + 5) (Insert (i + 1, i)) Ok)
        in
        match LS.check history with
        | LS.Witness _ -> ()
        | _ -> Alcotest.fail "expected a witness");
    Alcotest.test_case "completed + pending counted together" `Quick
      (fun () ->
        let history =
          List.init 60 (fun i ->
              ev 0 (i * 10) ((i * 10) + 5) (Insert (i + 1, i)) Ok)
        in
        let pending =
          [ pend 1 0 (Insert (100, 1)); pend 2 0 (Insert (101, 1));
            pend 3 0 (Insert (102, 1)) ]
        in
        match LS.check ~pending history with
        | LS.Too_large -> ()
        | _ -> Alcotest.fail "expected Too_large");
  ]

(* Bigger pseudo-random linearizable histories: generate by simulating a
   true sequential execution and then widening the intervals so the ops
   overlap — must always be accepted. *)
let widened_random =
  Tutil.qcheck_case ~count:50 "widened sequential histories accepted"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Harness.Rng.create seed in
      let state = ref Lincheck.Set_spec.M.empty in
      let history = ref [] in
      for i = 0 to 11 do
        let k = 1 + Harness.Rng.below rng 4 in
        let input =
          match Harness.Rng.below rng 3 with
          | 0 -> Search k
          | 1 -> Insert (k, i)
          | _ -> Delete k
        in
        let st', out = Lincheck.Set_spec.apply !state input in
        state := st';
        let base = i * 10 in
        let widen = Harness.Rng.below rng 15 in
        history :=
          ev (i mod 3) base (base + 5 + widen) input out :: !history
      done;
      match LS.check !history with LS.Witness _ -> true | _ -> false)

(* Dropping the tail of a sequential history to pending ops must stay
   accepted: the real execution is the include-them-all branch. *)
let pending_random =
  Tutil.qcheck_case ~count:50 "sequential histories with pending tail"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Harness.Rng.create seed in
      let state = ref Lincheck.Set_spec.M.empty in
      let history = ref [] in
      let pending = ref [] in
      for i = 0 to 9 do
        let k = 1 + Harness.Rng.below rng 4 in
        let input =
          match Harness.Rng.below rng 3 with
          | 0 -> Search k
          | 1 -> Insert (k, i)
          | _ -> Delete k
        in
        let st', out = Lincheck.Set_spec.apply !state input in
        state := st';
        let base = i * 10 in
        if i >= 8 then
          (* last two ops "crash": drop their outputs, keep them pending *)
          pending := pend (i mod 3) base input :: !pending
        else history := ev (i mod 3) base (base + 5) input out :: !history
      done;
      match LS.check ~pending:!pending !history with
      | LS.Witness _ -> true
      | _ -> false)

let () =
  Alcotest.run "lincheck"
    [
      ("set histories", set_cases);
      ("crash-aware", crash_cases);
      ("queue histories", queue_cases);
      ("stack histories", stack_cases);
      ("initial state", init_cases);
      ("too large", too_large_cases);
      ("property", [ widened_random; pending_random ]);
    ]
