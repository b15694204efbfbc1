(* Tests for the optimistic transaction layer (lib/txn): fold/size
   agreement across every registry set, sequential transaction semantics
   (read-your-writes, upsert, lock-conflict abort, the ticket drawn
   before the first write, writes at the nodes the reads located), the
   versioned read's re-check, every rep's stripe table and the object
   read's fold and search counts, seeded determinism under contention,
   abort-free snapshots, the strict-serializability oracle (positive
   run, the broken-commit, broken-snapshot and broken-gate negative
   controls, the scripted broken-commit, broken-ticket and
   neighbour-insert races, a differential fuzz against a naive reference
   and an allocation gate), the chaos trial grammar, the report section
   and transfers on real domains. *)

module W = Txn.Workload
module R = Harness.Registry
module TX = Txn.Make (Sim.Sim_rt)

(* A scripted wait on a simulated thread: pause until [ready ()], and
   fail the case naming [what] once a million virtual cycles have
   passed, so a flag that is never set fails its case instead of hanging
   the suite. *)
let await what ready =
  let give_up = Sim.Sched.now () + 1_000_000 in
  while not (ready ()) do
    if Sim.Sched.now () >= give_up then
      Alcotest.failf "scripted wait for %s: not set after 1M cycles" what;
    Sim.Sched.pause ()
  done

(* ------------------------------------------------------------------ *)
(* fold: every registry set enumerates exactly its live bindings. *)

let fold_family name (sets : (module R.SET_OPS) list) =
  Dstruct.Sl_common.reset_states ();
  List.iter
    (fun (module S : R.SET_OPS) ->
      let t = S.create ~capacity:256 () in
      let rng = Harness.Rng.create 11 in
      let live = Hashtbl.create 64 in
      for i = 1 to 300 do
        let k = 1 + Harness.Rng.below rng 200 in
        if Harness.Rng.below rng 4 = 0 then (
          match S.delete t k with
          | Some _ -> Hashtbl.remove live k
          | None -> ())
        else if S.insert t k i then Hashtbl.add live k i
      done;
      let n, sum =
        S.fold t (fun k v (n, sum) -> (n + 1, sum + k + v)) (0, 0)
      in
      Alcotest.(check int)
        (Printf.sprintf "%s/%s: fold count = size" name S.name)
        (S.size t) n;
      let want =
        Hashtbl.fold (fun k v (n, sum) -> (n + 1, sum + k + v)) live (0, 0)
      in
      Alcotest.(check (pair int int))
        (Printf.sprintf "%s/%s: fold enumerates the model" name S.name)
        want (n, sum);
      S.fold t
        (fun k v () ->
          if S.search t k <> Some v then
            Alcotest.failf "%s/%s: fold yielded stale binding %d" name S.name k)
        ())
    sets

let test_fold_agrees_with_size () =
  let module SB = R.Sim_backend in
  List.iter
    (fun family ->
      fold_family family (List.map R.set_ops (SB.lineup family)))
    [ "map"; "list"; "hashtable"; "skiplist"; "bst" ]

(* ------------------------------------------------------------------ *)
(* Sequential transaction semantics on a quiesced simulator backend. *)

(* [Logged] records the key of every [find] made through it, one per
   versioned read that does not retry, counts its folds, one per
   object read, and records [!write_clock ()] and the write's name at
   each [update_at] (["update_at"], or ["update_at: moved"] when it
   refused), [update], [insert] and [delete]. [mid_fold], once set, runs
   when its next fold has yielded key 1. [logged_stripes] wraps an
   object's stripes to count their waits and token checks: a per-key
   read waits once and re-checks once, an object read waits once per
   stripe and checks none, and a snapshot's validation checks each entry
   of its read set once. *)
let logged_keys = ref []
let folds = ref 0
let stripe_waits = ref 0
let checks = ref 0
let write_clock = ref (fun () -> 0)
let write_clocks = ref []
let logged_writes = ref []
let mid_fold = ref ignore

module Logged (S : R.IN_PLACE) : R.IN_PLACE with type t = S.t = struct
  include S

  let find t k =
    logged_keys := k :: !logged_keys;
    S.find t k

  let fold t f acc =
    incr folds;
    S.fold t
      (fun k v acc ->
        let acc = f k v acc in
        if k = 1 then begin
          let g = !mid_fold in
          mid_fold := ignore;
          g ()
        end;
        acc)
      acc

  let note name =
    write_clocks := !write_clock () :: !write_clocks;
    logged_writes := name :: !logged_writes

  let update_at loc v =
    let written = S.update_at loc v in
    note (if written then "update_at" else "update_at: moved");
    written

  let update t k v =
    note "update";
    S.update t k v

  let insert t k v =
    note "insert";
    S.insert t k v

  let delete t k =
    note "delete";
    S.delete t k
end

let logged_stripes stripes =
  Array.map
    (fun (h : Locks.Handle.t) ->
      {
        h with
        wait =
          (fun () ->
            incr stripe_waits;
            h.wait ());
        check =
          (fun tok ->
            incr checks;
            h.check tok);
      })
    stripes

(* The in-place view of list/optik and its stripe count. *)
let optik_list () =
  match W.rep "list/optik" with
  | _, Some i, stripes -> (i, stripes)
  | _, None, _ -> Alcotest.fail "list/optik has no in-place view"

(* The value [o] holds for [k], by one versioned read. *)
let value o k =
  let x, _, _ = TX.obj_read o k in
  x

(* A list/optik object holding keys 1 .. 4 at 100 each, seen through
   [Logged] and [logged_stripes] when [logged], and the same structure
   and stripes seen plainly, for a writer the logs must not count. *)
let fresh_obj ~logged =
  let (module I : R.IN_PLACE), stripes = optik_list () in
  let st = I.create ~capacity:64 () in
  for k = 1 to 4 do
    assert (I.insert st k 100)
  done;
  let hs = W.Stripes.create stripes in
  let plain = TX.obj_in_place (module I) st hs in
  if logged then
    (TX.obj_in_place (module Logged (I)) st (logged_stripes hs), plain)
  else (plain, plain)

let fresh_pair ?(logged = false) () =
  Dstruct.Sl_common.reset_states ();
  let a, _ = fresh_obj ~logged in
  let b, _ = fresh_obj ~logged in
  (a, b)

let test_transfer_moves_units () =
  let a, b = fresh_pair () in
  let mgr = TX.create () in
  let (), _ticket =
    TX.atomically mgr (fun ctx ->
        let va = Option.get (TX.read ctx a 1) in
        let vb = Option.get (TX.read ctx b 2) in
        TX.write ctx a 1 (Some (va - 30));
        TX.write ctx b 2 (Some (vb + 30)))
  in
  let balance = value in
  Alcotest.(check (option int)) "debited" (Some 70) (balance a 1);
  Alcotest.(check (option int)) "credited" (Some 130) (balance b 2);
  Alcotest.(check (option int)) "others untouched" (Some 100) (balance a 2)

(* Buffers are keyed by (object, key): the same key written in both
   objects of the pair stays two separate entries. *)
let test_read_your_writes () =
  let a, b = fresh_pair () in
  let mgr = TX.create () in
  let seen, _ =
    TX.atomically mgr (fun ctx ->
        TX.write ctx a 1 (Some 7);
        TX.write ctx b 1 (Some 9);
        let after_write = TX.read ctx a 1 in
        TX.write ctx a 1 None;
        let after_delete = TX.read ctx a 1 in
        (after_write, after_delete, TX.read ctx b 1))
  in
  Alcotest.(check (triple (option int) (option int) (option int)))
    "buffered writes visible in-transaction, per object" (Some 7, None, Some 9)
    seen;
  Alcotest.(check (option int))
    "newest write wins at commit" None
    (value a 1);
  Alcotest.(check (option int))
    "the other object's write commits too" (Some 9)
    (value b 1)

(* A conflicting commit advances the stripe version between the read
   phase and commit: the single-CAS validate-and-acquire must fail and
   the attempt must abort (vfail-txn-lock), leaving state intact. *)
let conflict_commit o k =
  let h = TX.obj_handle o k in
  ignore (h.Locks.Handle.acquire_any () : int);
  h.Locks.Handle.commit ()

let count = Sim.Sim_rt.Probe.count

(* [attempts] times, one [try_commit] of [body] on a fresh context: each
   must return [None], move [counter] by one, release the stripes of
   keys 1 and 2 at the versions they had before it and leave [o]'s key
   1 at its prefilled 100; then a plain write of key 1 commits. *)
let check_aborts ~attempts ~counter what o body =
  let mgr = TX.create () in
  let stripes = List.map (TX.obj_handle o) [ 1; 2 ] in
  for attempt = 1 to attempts do
    let before = count (counter mgr) in
    let ctx = TX.new_ctx ~ro:false in
    body ctx;
    let toks = List.map (fun (h : Locks.Handle.t) -> h.wait ()) stripes in
    Alcotest.(check (option int))
      (Printf.sprintf "attempt %d aborts" attempt)
      None (TX.try_commit mgr ctx);
    Alcotest.(check int) what 1 (count (counter mgr) - before);
    Alcotest.(check bool)
      "locks released, versions kept" true
      (List.for_all2 (fun (h : Locks.Handle.t) tok -> h.check tok) stripes toks);
    Alcotest.(check (option int))
      "aborted writes never applied" (Some 100)
      (value o 1)
  done;
  let (), _ = TX.atomically mgr (fun ctx -> TX.write ctx o 1 (Some 1)) in
  Alcotest.(check (option int)) "next txn commits" (Some 1) (value o 1)

let test_lock_conflict_aborts () =
  let a, _ = fresh_pair () in
  check_aborts ~attempts:3
    ~counter:(fun mgr -> mgr.TX.c_vfail_lock)
    "the attempt failed its lock acquire" a
    (fun ctx ->
      ignore (TX.read ctx a 1 : int option);
      conflict_commit a 1;
      TX.write ctx a 1 (Some 0))

(* Same race on a key the transaction reads but does not write (a
   different stripe): the acquire succeeds, the read-set revalidation
   must catch the stale read (vfail-txn-read). *)
let test_read_validation_aborts () =
  let a, _ = fresh_pair () in
  check_aborts ~attempts:2
    ~counter:(fun mgr -> mgr.TX.c_vfail_read)
    "the abort is a read-validation failure" a
    (fun ctx ->
      ignore (TX.read ctx a 1 : int option);
      ignore (TX.read ctx a 2 : int option);
      conflict_commit a 2;
      TX.write ctx a 1 (Some 0))

(* A quiesced snapshot passes the clock gate: no commit drew a ticket
   during its reads, so it checks no token beyond each read's re-check,
   and its point is the clock. *)
let test_snapshot_is_consistent () =
  let a, b = fresh_pair ~logged:true () in
  let mgr = TX.create () in
  let (), _ = TX.atomically mgr (fun ctx -> TX.write ctx a 4 (Some 100)) in
  stripe_waits := 0;
  checks := 0;
  let sum, c =
    TX.snapshot mgr (fun ctx ->
        let add o k acc = acc + Option.value ~default:0 (TX.read ctx o k) in
        let acc = ref 0 in
        for k = 1 to 4 do
          acc := add a k !acc;
          acc := add b k !acc
        done;
        !acc)
  in
  Alcotest.(check int) "snapshot sums the preload" 800 sum;
  Alcotest.(check (pair int int)) "one wait and one re-check per read" (8, 8)
    (!stripe_waits, !checks);
  Alcotest.(check int) "no retry" 0 (count mgr.TX.c_snap_retries);
  Alcotest.(check int) "the point is the clock" 1 c;
  Alcotest.(check int) "the clock after the one commit" 1 (TX.clock mgr)

(* An audit snapshot over quiesced objects reads each in one fold,
   waiting once on each of the 16 stripes and checking none, and answers
   every key from the read set, with no per-key search. When a commit
   moving 5 units from key 2 to key 3 of the first object lands while
   that object's fold is past key 1, it has moved the clock, so the
   round's validation checks all 8 reads and drops only the commit's
   two keys (keys 1 .. 4 sit on four of the 16 stripes); the one retry
   re-reads those two per key, each with one wait and one re-check, and
   passes the gate. *)
let test_object_read_counts () =
  Sim.Sim_rt.Probe.reset_all ();
  Dstruct.Sl_common.reset_states ();
  let a, a_plain = fresh_obj ~logged:true in
  let b, _ = fresh_obj ~logged:true in
  let mgr = TX.create () in
  let audit () =
    logged_keys := [];
    folds := 0;
    stripe_waits := 0;
    checks := 0;
    TX.snapshot mgr (fun ctx ->
        List.fold_left
          (fun acc o ->
            TX.read_object ctx o;
            let acc = ref acc in
            for k = 1 to 4 do
              acc := !acc + Option.get (TX.read ctx o k)
            done;
            !acc)
          0 [ a; b ])
  in
  let sum, c = audit () in
  Alcotest.(check int) "quiesced: the preload" 800 sum;
  Alcotest.(check int) "quiesced: one fold per object" 2 !folds;
  Alcotest.(check (list int)) "quiesced: no per-key search" [] !logged_keys;
  Alcotest.(check (pair int int))
    "quiesced: one wait per stripe, no check" (32, 0) (!stripe_waits, !checks);
  Alcotest.(check int) "quiesced: the point is the clock" 0 c;
  mid_fold :=
    (fun () ->
      ignore
        (TX.atomically mgr (fun ctx ->
             let v2 = Option.get (TX.read ctx a_plain 2) in
             let v3 = Option.get (TX.read ctx a_plain 3) in
             TX.write ctx a_plain 2 (Some (v2 - 5));
             TX.write ctx a_plain 3 (Some (v3 + 5)))
          : unit * int));
  let sum, c = audit () in
  Alcotest.(check int) "mid-fold commit: the preload" 800 sum;
  Alcotest.(check int) "mid-fold commit: one fold per object" 2 !folds;
  Alcotest.(check (list int))
    "mid-fold commit: its keys alone searched" [ 3; 2 ] !logged_keys;
  Alcotest.(check (pair int int))
    "mid-fold commit: 8 checks in validation, a wait and a re-check per \
     re-read"
    (34, 10) (!stripe_waits, !checks);
  Alcotest.(check int) "mid-fold commit: the point follows it" 1 c;
  Alcotest.(check int) "one snapshot retry" 1 (count mgr.TX.c_snap_retries)

(* A commit draws its ticket before its first write: every [update_at],
   [update], [insert] and [delete] a commit makes through [Logged] sees
   the clock already past that commit's ticket. A blind write of a
   present key makes one write, the [update]; an upsert of an absent key
   makes two, the [update] that misses and the [insert]. *)
let test_ticket_before_write () =
  let a, b = fresh_pair ~logged:true () in
  let mgr = TX.create () in
  write_clock := (fun () -> TX.clock mgr);
  List.iter
    (fun (name, writes, body) ->
      write_clocks := [];
      let (), ticket = TX.atomically mgr body in
      Alcotest.(check (list int))
        (name ^ ": every write sees the clock past the ticket")
        (List.init writes (fun _ -> ticket + 1))
        !write_clocks)
    [
      ( "update",
        2,
        fun ctx ->
          TX.write ctx a 1 (Some 7);
          TX.write ctx b 2 (Some 9) );
      ("insert", 2, fun ctx -> TX.write ctx a 5 (Some 1));
      ("delete", 1, fun ctx -> TX.write ctx b 3 None);
    ]

(* A transfer between two quiesced objects traverses each structure once
   per key, in its reads, and writes both keys at the nodes those reads
   located: its commit makes no traversal and no write but the two
   [update_at]s. *)
let test_located_transfer () =
  let a, b = fresh_pair ~logged:true () in
  let mgr = TX.create () in
  logged_keys := [];
  logged_writes := [];
  let (), _ =
    TX.atomically mgr (fun ctx ->
        let va = Option.get (TX.read ctx a 1) in
        let vb = Option.get (TX.read ctx b 2) in
        Alcotest.(check (list int)) "reads: one traversal per key" [ 2; 1 ]
          !logged_keys;
        TX.write ctx a 1 (Some (va - 30));
        TX.write ctx b 2 (Some (vb + 30)))
  in
  Alcotest.(check (list int)) "commit: no traversal" [ 2; 1 ] !logged_keys;
  Alcotest.(check (list string)) "commit: two located writes"
    [ "update_at"; "update_at" ] !logged_writes;
  Alcotest.(check (option int)) "debited" (Some 70) (value a 1);
  Alcotest.(check (option int)) "credited" (Some 130) (value b 2)

(* [snapshot_race ~n ~writes] snapshots keys [1 .. n] of one [ll-optik]
   structure through [Logged] on simulated thread 0. Keys [1 .. n + 1]
   sit on [n + 1] different stripes (the structure has 16), and the
   snapshot spends 1000 cycles per key, so thread 1 commits one write to
   key [writes] after the snapshot made [a] reads and before it reaches
   the clock, once for each [a] in [after] (default: two reads).
   Counters start from zero. Returns the snapshot's sum and point, the
   last commit's ticket, the manager, and thread 0's backoff waits from
   the run's journal: the cycles each backoff span took, and the count
   of restart checkpoints, which each {!Rt.Backoff} wait reports. *)
let snapshot_race ?(after = [ 2 ]) ~n ~writes () =
  Dstruct.Sl_common.reset_states ();
  let (module I : R.IN_PLACE), stripes = optik_list () in
  let st = I.create ~capacity:64 () in
  for k = 1 to n + 1 do
    assert (I.insert st k 100)
  done;
  logged_keys := [];
  stripe_waits := 0;
  checks := 0;
  let hs = W.Stripes.create stripes in
  let snap_obj = TX.obj_in_place (module Logged (I)) st (logged_stripes hs) in
  let writer_obj = TX.obj_in_place (module I) st hs in
  let stripe k = (TX.obj_handle writer_obj k).Locks.Handle.id in
  Alcotest.(check int) "one stripe per key" (n + 1)
    (List.length
       (List.sort_uniq compare (List.init (n + 1) (fun i -> stripe (i + 1)))));
  let mgr = TX.create () in
  let reads = ref 0 and snap = ref None and ticket = ref (-1) in
  Sim.Sim_rt.Probe.reset_all ();
  Obs.Journal.start ();
  ignore
    (Sim.Sched.run ~topology:Tutil.uniform4 ~nthreads:2 (fun tid ->
         if tid = 0 then
           snap :=
             Some
               (TX.snapshot mgr (fun ctx ->
                    let sum = ref 0 in
                    for k = 1 to n do
                      sum := !sum + Option.get (TX.read ctx snap_obj k);
                      incr reads;
                      Sim.Sched.work 1_000
                    done;
                    !sum))
         else
           List.iter
             (fun a ->
               await (Printf.sprintf "read %d" a) (fun () -> !reads >= a);
               let (), t =
                 TX.atomically mgr (fun ctx ->
                     let v = Option.get (TX.read ctx writer_obj writes) in
                     TX.write ctx writer_obj writes (Some (v + 5)))
               in
               ticket := t)
             after)
      : Sim.Sched.stats);
  let journal = Obs.Journal.stop () in
  let backoff = Obs.Tracectx.(span_name Backoff) in
  let waits, restarts, _ =
    Array.fold_left
      (fun (waits, restarts, opened) (e : Obs.Journal.entry) ->
        if e.tid <> 0 then (waits, restarts, opened)
        else
          match e.kind with
          | Obs.Journal.Span_begin s when s = backoff -> (waits, restarts, e.at)
          | Obs.Journal.Span_end s when s = backoff ->
              ((e.at - opened) :: waits, restarts, opened)
          | Obs.Journal.Point Rt.Rt_intf.Restart -> (waits, restarts + 1, opened)
          | _ -> (waits, restarts, opened))
      ([], 0, 0) journal.Obs.Journal.entries
  in
  let sum, c = Option.get !snap in
  (sum, c, !ticket, mgr, (List.rev waits, restarts))

(* A commit to a key the snapshot does not read moves the clock, so the
   gate sends the snapshot through one validation pass, checking each
   read's token once more after the read's own re-check; every token
   still checks, so it does not retry, and its point is the clock after
   that commit. *)
let test_gate_validates_once () =
  let n = 15 in
  let sum, c, ticket, mgr, _ = snapshot_race ~n ~writes:(n + 1) () in
  Alcotest.(check (pair int int)) "one validation pass" (n, 2 * n)
    (!stripe_waits, !checks);
  Alcotest.(check int) "no retry" 0 (count mgr.TX.c_snap_retries);
  Alcotest.(check int) "the sum is the preload" (100 * n) sum;
  Alcotest.(check int) "the point follows the commit" (ticket + 1) c;
  Alcotest.(check int) "the point is the clock" (TX.clock mgr) c

(* A failed snapshot validation re-reads only the stale entries: the
   retry re-reads key 1 alone, the sum is the state after the commit,
   and since no commit follows, the retry passes the gate unchecked at
   the point right after the commit. The first retry runs at once: no
   cycle goes to a backoff wait before it. *)
let test_retry_rereads_only_stale () =
  let n = 15 in
  let sum, c, ticket, mgr, (waits, restarts) = snapshot_race ~n ~writes:1 () in
  Alcotest.(check int) "one snapshot retry" 1 (count mgr.TX.c_snap_retries);
  Alcotest.(check int) "no cycle in a backoff wait" 0
    (List.fold_left ( + ) 0 waits);
  Alcotest.(check int) "no backoff episode" 0 restarts;
  Alcotest.(check (list int))
    "every key read once, then key 1 alone"
    (1 :: List.init n (fun i -> n - i))
    !logged_keys;
  Alcotest.(check (pair int int)) "one validation pass" (n + 1, (2 * n) + 1)
    (!stripe_waits, !checks);
  Alcotest.(check int) "the sum is the state after the commit" ((100 * n) + 5)
    sum;
  Alcotest.(check int) "the point follows the commit" (ticket + 1) c

(* A second commit to key 1 lands while the first retry re-reads it, so
   the snapshot retries twice. Only the second retry waits, and it waits
   one [Rt.Backoff] episode at the smallest budget: one 8-cycle pause
   plus up to two more of jitter. *)
let test_second_retry_backs_off_once () =
  let n = 15 in
  let sum, c, ticket, mgr, (waits, restarts) =
    snapshot_race ~after:[ 2; n + 1 ] ~n ~writes:1 ()
  in
  Alcotest.(check int) "two snapshot retries" 2 (count mgr.TX.c_snap_retries);
  Alcotest.(check int) "one backoff episode" 1 restarts;
  (match waits with
  | [ w ] when w >= 8 && w <= 24 -> ()
  | _ ->
      Alcotest.failf "expected one wait of 8 to 24 cycles, got [%s]"
        (String.concat "; " (List.map string_of_int waits)));
  Alcotest.(check int) "the sum is the state after both commits"
    ((100 * n) + 10) sum;
  Alcotest.(check int) "the point follows the last commit" (ticket + 1) c

(* The versioned read's re-check keeps a commit's in-place write out of
   a read until the commit is whole. Thread 1 commits key 2 through a
   writer view whose located [update_at] then waits 5000 cycles, so the
   new value is in the structure while the stripe is still locked. Thread 0's
   snapshot reads keys 1 .. 3 through stripes whose first [wait] on key
   2's stripe, once it has the free version, holds the read until that
   window opens. Its search then finds the mid-commit value; the
   re-check sees the stripe locked and reads again after the commit.
   Without the re-check the read would keep that value with the token
   taken before the commit, and the snapshot's validation would have to
   drop it and retry. So no read returns a mid-commit value, and the one
   validation pass the commit's ticket forces finds every token
   current. *)
let window_open = ref false

module Slow_update (S : R.IN_PLACE) : R.IN_PLACE with type t = S.t = struct
  include S

  let update_at loc v =
    let written = S.update_at loc v in
    window_open := true;
    Sim.Sched.work 5_000;
    written
end

let test_read_recheck () =
  Dstruct.Sl_common.reset_states ();
  let (module I : R.IN_PLACE), stripes = optik_list () in
  let st = I.create ~capacity:64 () in
  for k = 1 to 3 do
    assert (I.insert st k 100)
  done;
  let hs = W.Stripes.create stripes in
  let writer_obj = TX.obj_in_place (module Slow_update (I)) st hs in
  let key2 = TX.obj_handle writer_obj 2 in
  let reading = ref false in
  window_open := false;
  let held =
    Array.map
      (fun (h : Locks.Handle.t) ->
        if not (Locks.Handle.equal h key2) then h
        else
          {
            h with
            wait =
              (fun () ->
                let tok = h.wait () in
                if not !reading then begin
                  reading := true;
                  await "window_open" (fun () -> !window_open)
                end;
                tok);
          })
      hs
  in
  let snap_obj = TX.obj_in_place (module I) st held in
  let mgr = TX.create () in
  let seen = ref [] and snap = ref None in
  Sim.Sim_rt.Probe.reset_all ();
  ignore
    (Sim.Sched.run ~topology:Tutil.uniform4 ~nthreads:2 (fun tid ->
         if tid = 0 then
           snap :=
             Some
               (TX.snapshot mgr (fun ctx ->
                    seen := [];
                    for k = 1 to 3 do
                      seen := TX.read ctx snap_obj k :: !seen
                    done))
         else begin
           await "reading" (fun () -> !reading);
           ignore
             (TX.atomically mgr (fun ctx ->
                  let v = Option.get (TX.read ctx writer_obj 2) in
                  TX.write ctx writer_obj 2 (Some (v + 5)))
               : unit * int)
         end)
      : Sim.Sched.stats);
  Alcotest.(check bool) "the writer opened the window" true !window_open;
  Alcotest.(check (list (option int)))
    "key 2 reads the commit"
    [ Some 100; Some 105; Some 100 ]
    !seen;
  Alcotest.(check int) "no snapshot retry" 0 (count mgr.TX.c_snap_retries);
  Alcotest.(check int) "the point follows the commit" 1 (snd (Option.get !snap))

(* Every rep's stripe table. Keys 1 .. 16 of a fresh object land on 16
   distinct handle ids, key [k] on the [k mod 16]-th of an ascending
   range, for the OPTIK reps, and on one id for the one-stripe reps, the
   lazy and Harris lists. Two objects packed in a row draw disjoint,
   increasing ranges. *)
let test_stripe_table () =
  List.iter
    (fun rep ->
      let objs =
        W.make_objects { W.default_config with W.rep; objects = 2 }
      in
      let ids o =
        List.init 16 (fun i -> (TX.obj_handle objs.(o) (i + 1)).Locks.Handle.id)
      in
      let lo o = List.fold_left min max_int (ids o) in
      let hi o = List.fold_left max min_int (ids o) in
      List.iter
        (fun o ->
          let want =
            if not (List.mem rep [ "list/lazy"; "list/harris" ]) then
              List.init 16 (fun i -> lo o + ((i + 1) mod 16))
            else List.init 16 (fun _ -> lo o)
          in
          Alcotest.(check (list int))
            (Printf.sprintf "%s object %d: keys 1..16" rep o)
            want (ids o))
        [ 0; 1 ];
      Alcotest.(check bool)
        (rep ^ ": the second object's range follows the first's")
        true
        (hi 0 < lo 1))
    (List.map fst W.reps)

(* ------------------------------------------------------------------ *)
(* Contended workload: determinism, oracle, negative control. *)

let small_cfg =
  {
    W.default_config with
    W.objects = 2;
    accounts = 8;
    threads = 4;
    ops = 1_500;
  }

let result_key (m : Harness.Runner.measurement) (r : W.result) =
  ( ( m.Harness.Runner.ops,
      m.Harness.Runner.reads,
      m.Harness.Runner.writes,
      m.Harness.Runner.cas,
      m.Harness.Runner.counters ),
    ( r.W.res_oracle.W.ok,
      r.W.res_oracle.W.total,
      r.W.res_commits,
      r.W.res_aborts,
      r.W.res_snapshots,
      r.W.res_snap_retries ) )

let test_deterministic () =
  let a =
    let m, r = W.run small_cfg in
    result_key m r
  in
  let b =
    let m, r = W.run small_cfg in
    result_key m r
  in
  Alcotest.(check bool) "identical measurement, counters, oracle" true (a = b)

let test_seed_changes_run () =
  let m_a, _ = W.run small_cfg in
  let m_b, _ = W.run { small_cfg with W.seed = 43 } in
  Alcotest.(check bool) "different seed, different run" true
    (m_a.Harness.Runner.counters <> m_b.Harness.Runner.counters)

let check_oracle_passes cfg =
  let m, r = W.run cfg in
  Alcotest.(check bool) "run completed" false (Harness.Runner.aborted m);
  Alcotest.(check bool) "structures valid" true m.Harness.Runner.valid;
  Alcotest.(check bool) "some transfers committed" true
    (r.W.res_oracle.W.transfers > 0);
  Alcotest.(check bool) "some audits checked" true
    (r.W.res_oracle.W.audits > 0);
  Alcotest.(check bool) "contention actually aborted something" true
    (r.W.res_aborts > 0 || r.W.res_snap_retries > 0);
  if not r.W.res_oracle.W.ok then
    Alcotest.failf "oracle failed: %s"
      (Format.asprintf "%a" W.pp_oracle r.W.res_oracle)

(* Per-key striping (OPTIK family), on the simulator. *)
let test_oracle_passes_optik () = check_oracle_passes W.default_config

(* Structure-wide version wrapper (lock-free rep). *)
let test_oracle_passes_wrapper () =
  check_oracle_passes { W.default_config with W.rep = "list/harris" }

(* The seeds every negative control is run at. *)
let control_seeds = [ 1; 3; 7; 42 ]

(* Locks taken without validation let stale reads commit: the oracle
   must report them as transfer reads, and the updates they lose as a
   broken conservation, nothing else, at every seed tried. The bank runs
   4 accounts per object, not the default 16: a control needs a run in
   which a stale read commits, and with commits that write at the
   located nodes, seed 42's run at 8 accounts and seed 3's at 16 have
   none, so their histories are serializable. The exact verdict and first violations of the
   default run at seed 42 are the [txn broken-commit] row of the pin
   ledger. *)
let test_broken_commit_fails () =
  List.iter
    (fun seed ->
      let _, r =
        W.run { W.default_config with W.broken = true; accounts = 4; seed }
      in
      let o = r.W.res_oracle in
      Alcotest.(check bool) "oracle failed" false o.W.ok;
      let read v =
        Scanf.sscanf_opt v "txn %d read (%d,%d) = " (fun _ _ _ -> ()) <> None
      in
      Alcotest.(check bool)
        "a transfer read" true
        (List.exists read o.W.violations);
      List.iter
        (fun v ->
          if not (read v || String.starts_with ~prefix:"conservation broken: " v)
          then Alcotest.failf "neither a transfer read nor conservation: %s" v)
        o.W.violations)
    control_seeds

(* A snapshot retry that trusts its kept reads without revalidating
   them returns audits no serialization point explains; the oracle must
   report exactly those, and no transfer. *)
let audits_fail ?(seed = W.default_config.W.seed) policy =
  let _, r = W.run ~policy { W.default_config with W.seed } in
  let o = r.W.res_oracle in
  Alcotest.(check bool) "oracle failed" false o.W.ok;
  Alcotest.(check bool) "snapshots retried" true (r.W.res_snap_retries > 0);
  List.iter
    (fun v ->
      if not (String.starts_with ~prefix:"audit at " v) then
        Alcotest.failf "not an audit violation: %s" v)
    o.W.violations

let test_broken_snapshot_fails () =
  List.iter (fun seed -> audits_fail ~seed W.T.Broken_snapshot) control_seeds

(* A gate read when the next round starts, after the retry's check (and
   its backoff, from the second retry on), instead of before the check,
   lets a commit that lands between a kept read's check and that clock
   read pass unvalidated: the oracle must report those audits, and no
   transfer, at every seed tried. *)
let test_broken_gate_fails () =
  List.iter (fun seed -> audits_fail ~seed W.T.Broken_gate) control_seeds

(* Scripted races: two simulated threads on one list/optik object of
   three accounts, each transaction recorded as the bank workload's
   client records it, and the history handed to the oracle. Each script
   orders its steps by the other thread's progress, but for one wait
   counted in cycles: the fold race's writer holds its stripes 5000
   cycles after each in-place write while the audit reaches its clock
   read (1000 still suffice on all three machine models, 300 do not).
   Each race must FAIL under its mutant and PASS under [Optimistic], on
   all three models. *)
let race_cfg = { W.default_config with W.objects = 1; accounts = 3 }
let race_machines = [ Tutil.uniform4; Sim.Topology.xeon; Sim.Topology.opteron ]

let race_oracle topology records objs body =
  ignore (Sim.Sched.run ~topology ~nthreads:2 body : Sim.Sched.stats);
  W.check_serializable race_cfg (fun f -> List.iter f records) objs

(* A transfer of [amount] from key [a] to key [b], recorded into [x];
   [between] runs after the reads of every attempt. *)
let scripted_transfer ?(between = ignore) mgr o x a b amount =
  let (), ticket =
    W.T.atomically mgr (fun ctx ->
        let va = Option.get (W.T.read ctx o a) in
        let vb = Option.get (W.T.read ctx o b) in
        between ();
        W.T.write ctx o a (Some (va - amount));
        W.T.write ctx o b (Some (vb + amount));
        x.W.x_reads <- [| 0; a; va; 0; b; vb |];
        x.W.x_writes <- [| 0; a; va - amount; 0; b; vb + amount |])
  in
  x.W.x_ticket <- ticket;
  x.W.x_committed <- true

(* Thread 0 reads keys 1 and 2, then waits while thread 1 commits a
   transfer from key 1 to key 3, then writes. [Optimistic]'s validated
   acquire fails, so thread 0 retries on fresh reads; [Broken_commit]
   acquires without validation and commits the stale read of key 1. *)
let commit_race topology policy =
  let objs = W.make_objects race_cfg in
  let mgr = W.T.create ~policy () in
  let stale = W.fresh_rec W.Transfer and landed = W.fresh_rec W.Transfer in
  let read = ref false in
  race_oracle topology [ stale; landed ] objs (fun tid ->
      if tid = 0 then
        scripted_transfer mgr objs.(0) stale 1 2 5 ~between:(fun () ->
            read := true;
            await "landed" (fun () -> landed.W.x_committed))
      else begin
        await "read" (fun () -> !read);
        scripted_transfer mgr objs.(0) landed 1 3 7
      end)

let test_commit_race () =
  List.iter
    (fun topology ->
      let o = commit_race topology W.T.Broken_commit in
      Alcotest.(check (list string))
        "broken: the stale read and the units it lost"
        [
          "txn 1 read (0,1) = 100 but the serialized state had 93";
          "conservation broken: accounts sum to 307, expected 300";
        ]
        o.W.violations;
      let o = commit_race topology W.T.Optimistic in
      Alcotest.(check (list string)) "optimistic: serializable" [] o.W.violations)
    race_machines

(* Between a transfer's reads and its commit, another transaction
   inserts key 2 right behind key 1's located node, on another stripe.
   The insert locks that node as its predecessor, so the node's version
   moves: the commit's [update_at] of key 1 is refused and the fallback
   [update] writes key 1 once, while key 3's located write lands. A first
   transaction deleted key 2, moving its units to key 3, and the insert
   brings it back empty, so every account ends present; all three are
   recorded, and the oracle must PASS on all three models. *)
let neighbour_race topology =
  let (module I : R.IN_PLACE), stripes = optik_list () in
  let st = I.create ~capacity:64 () in
  for k = 1 to race_cfg.W.accounts do
    assert (I.insert st k W.initial)
  done;
  let hs = W.Stripes.create stripes in
  let plain = W.T.obj_in_place (module I) st hs in
  let logged = W.T.obj_in_place (module Logged (I)) st hs in
  let mgr = W.T.create () in
  let drop = W.fresh_rec W.Transfer
  and xfer = W.fresh_rec W.Transfer
  and back = W.fresh_rec W.Transfer in
  let commit x body =
    let (), ticket = W.T.atomically mgr body in
    x.W.x_ticket <- ticket;
    x.W.x_committed <- true
  in
  let read = ref false in
  logged_writes := [];
  let o =
    race_oracle topology [ drop; xfer; back ] [| plain |] (fun tid ->
        if tid = 0 then begin
          await "drop" (fun () -> drop.W.x_committed);
          scripted_transfer mgr logged xfer 1 3 5 ~between:(fun () ->
              read := true;
              await "back" (fun () -> back.W.x_committed))
        end
        else begin
          commit drop (fun ctx ->
              let v2 = Option.get (W.T.read ctx plain 2) in
              let v3 = Option.get (W.T.read ctx plain 3) in
              W.T.write ctx plain 2 None;
              W.T.write ctx plain 3 (Some (v2 + v3));
              drop.W.x_reads <- [| 0; 2; v2; 0; 3; v3 |];
              drop.W.x_writes <- [| 0; 2; W.absent; 0; 3; v2 + v3 |]);
          await "read" (fun () -> !read);
          commit back (fun ctx ->
              let v2 = W.T.read ctx plain 2 in
              W.T.write ctx plain 2 (Some 0);
              back.W.x_reads <- [| 0; 2; W.encode v2 |];
              back.W.x_writes <- [| 0; 2; 0 |])
        end)
  in
  (o, List.init 3 (fun i -> value plain (i + 1)))

let test_neighbour_race () =
  List.iter
    (fun topology ->
      let o, final = neighbour_race topology in
      Alcotest.(check (list string)) "serializable" [] o.W.violations;
      Alcotest.(check (list string))
        "key 3 located, key 1 refused, then written once"
        [ "update"; "update_at: moved"; "update_at" ]
        !logged_writes;
      Alcotest.(check (list (option int))) "final balances"
        [ Some 95; Some 0; Some 205 ] final)
    race_machines

(* The audit's fold, after yielding key 1, waits until the writer's
   located [update_at] of key 2 (the [Slow_update] view) has landed, so it
   reads key 2's mid-commit value while the stripe is held. *)
let folding = ref false

module Folding (S : R.SET_OPS) : R.SET_OPS with type t = S.t = struct
  include S

  let fold t f acc =
    S.fold t
      (fun k v acc ->
        let acc = f k v acc in
        if k = 1 then begin
          folding := true;
          await "window_open" (fun () -> !window_open)
        end;
        acc)
      acc
end

(* Thread 0 audits the object with one object read; thread 1 commits a
   transfer from key 1 to key 2 once the fold has passed key 1, holding
   the stripes 5000 cycles after each in-place write. [Optimistic] draws
   the ticket before the first write, so the audit's closing clock read
   has moved, its validation finds both stripes locked, and the retry
   reads keys 1 and 2 again after the commit. [Broken_ticket] writes
   first and draws its ticket after the audit's closing clock read, so
   the unmoved clock lets key 2's mid-commit value, kept with the token
   taken before the commit, through at point 0. *)
let fold_race topology policy =
  let (module I : R.IN_PLACE), stripes = optik_list () in
  let st = I.create ~capacity:64 () in
  for k = 1 to race_cfg.W.accounts do
    assert (I.insert st k W.initial)
  done;
  let hs = W.Stripes.create stripes in
  let writer = W.T.obj_in_place (module Slow_update (I)) st hs in
  let auditor = W.T.obj (module Folding (I)) st hs in
  let mgr = W.T.create ~policy () in
  let audit = W.fresh_rec W.Audit and xfer = W.fresh_rec W.Transfer in
  window_open := false;
  folding := false;
  race_oracle topology [ audit; xfer ] [| writer |] (fun tid ->
      if tid = 0 then begin
        let reads = Array.make (3 * race_cfg.W.accounts) 0 in
        let (), at =
          W.T.snapshot mgr (fun ctx ->
              W.T.read_object ctx auditor;
              for k = 1 to race_cfg.W.accounts do
                reads.(3 * (k - 1)) <- 0;
                reads.((3 * (k - 1)) + 1) <- k;
                reads.((3 * (k - 1)) + 2) <- W.encode (W.T.read ctx auditor k)
              done)
        in
        audit.W.x_reads <- reads;
        audit.W.x_at <- at;
        audit.W.x_committed <- true
      end
      else begin
        await "folding" (fun () -> !folding);
        scripted_transfer mgr writer xfer 1 2 5
      end)

let test_fold_race () =
  List.iter
    (fun topology ->
      let o = fold_race topology W.T.Broken_ticket in
      Alcotest.(check bool) "the writer opened the window" true !window_open;
      Alcotest.(check (list string))
        "broken: the audit read key 2 mid-commit"
        [ "audit at 0 read (0,2) = 105 but the serialized state had 100" ]
        o.W.violations;
      let o = fold_race topology W.T.Optimistic in
      Alcotest.(check (list string)) "optimistic: serializable" [] o.W.violations)
    race_machines

(* ------------------------------------------------------------------ *)
(* The oracle's contract on hand-built histories over two quiesced
   objects of two accounts each. The base history moves 10 units twice:
   transfer 0 (0,1) -> (1,1), transfer 1 (0,1) -> (1,2), so the
   serialized states are
     position 0: (0,1)=100 (1,1)=100 (1,2)=100
     position 1: (0,1)=90  (1,1)=110 (1,2)=100
     position 2: (0,1)=80  (1,1)=110 (1,2)=110
   and (0,2) stays 100 throughout. *)

let hist_cfg = { W.default_config with W.objects = 2; accounts = 2 }

let quiesced_objs contents =
  Dstruct.Sl_common.reset_states ();
  let (module S : R.SET_OPS), _, stripes = W.rep "list/optik" in
  Array.map
    (fun kvs ->
      let st = S.create ~capacity:64 () in
      List.iter (fun (k, v) -> assert (S.insert st k v)) kvs;
      W.T.obj (module S) st (W.Stripes.create stripes))
    contents

let base_final = [| [ (1, 80); (2, 100) ]; [ (1, 110); (2, 110) ] |]

(* The helpers take readable [((o, k), v option)] lists and pack them
   into the records' flat [o; k; v] triples. *)
let triples l =
  Array.of_list (List.concat_map (fun ((o, k), v) -> [ o; k; W.encode v ]) l)

let xfer ticket reads writes =
  {
    (W.fresh_rec W.Transfer) with
    W.x_committed = true;
    x_ticket = ticket;
    x_reads = triples reads;
    x_writes = triples writes;
  }

let audit at reads =
  {
    (W.fresh_rec W.Audit) with
    W.x_committed = true;
    x_at = at;
    x_reads = triples reads;
  }

let check_list cfg records objs =
  W.check_serializable cfg (fun f -> List.iter f records) objs

let t0 =
  xfer 0
    [ ((0, 1), Some 100); ((1, 1), Some 100) ]
    [ ((0, 1), Some 90); ((1, 1), Some 110) ]

let t1 ticket =
  xfer ticket
    [ ((0, 1), Some 90); ((1, 2), Some 100) ]
    [ ((0, 1), Some 80); ((1, 2), Some 110) ]

let disagrees at (o, k) v m =
  Printf.sprintf "audit at %d read (%d,%d) = %d but the serialized state had %s"
    at o k v m

let outside at n =
  Printf.sprintf "audit at %d is outside the %d-commit history" at n

let test_oracle_contract () =
  let row name ?(final = base_final) records expected =
    let o = check_list hist_cfg records (quiesced_objs final) in
    Alcotest.(check (list string)) (name ^ ": violations") expected
      o.W.violations;
    Alcotest.(check bool) (name ^ ": verdict") (expected = []) o.W.ok
  in
  let base = [ t0; t1 1 ] in
  row "base history" base [];
  row "uncommitted records are ignored"
    (base
    @ List.map
        (fun x -> { x with W.x_committed = false })
        [ xfer 9 [ ((0, 1), Some 1) ] []; audit 0 [ ((0, 1), Some 1) ] ])
    [];
  row "torn audit"
    (base @ [ audit 1 [ ((1, 1), Some 110); ((0, 1), Some 100) ] ])
    [ disagrees 1 (0, 1) 100 "90" ];
  row "audits at every point"
    (base
    @ [
        audit 0 [ ((0, 1), Some 100); ((1, 1), Some 100) ];
        audit 1 [ ((0, 1), Some 90); ((1, 2), Some 100) ];
        audit 2 [ ((0, 1), Some 80); ((1, 2), Some 110) ];
      ])
    [];
  row "one point early or late"
    (base @ [ audit 1 [ ((0, 1), Some 80) ]; audit 2 [ ((0, 1), Some 90) ] ])
    [ disagrees 1 (0, 1) 80 "90"; disagrees 2 (0, 1) 90 "80" ];
  row "points outside the history"
    (base
    @ [
        audit 3 [ ((0, 1), Some 80) ];
        audit (-1) [ ((0, 1), Some 100) ];
        audit 7 [];
      ])
    [ outside 3 2; outside (-1) 2; outside 7 2 ];
  row "the first disagreeing read is reported"
    (base
    @ [ audit 1 [ ((0, 2), Some 100); ((1, 1), Some 100); ((0, 1), Some 80) ] ])
    [ disagrees 1 (1, 1) 100 "110" ];
  row "violations keep the audits' order"
    (base @ [ audit 2 [ ((0, 1), Some 100) ]; audit 0 [ ((0, 1), Some 80) ] ])
    [ disagrees 2 (0, 1) 100 "80"; disagrees 0 (0, 1) 80 "100" ];
  row "ticket gap" [ t0; t1 2 ]
    [ "ticket sequence broken: position 1 holds ticket 2" ];
  row "duplicate ticket" [ t0; t1 0 ]
    [ "ticket sequence broken: position 1 holds ticket 0" ];
  (* Per-thread logs hand the oracle transfers out of ticket order; a
     ticket permutation of 0 .. n-1 is still one serial order. *)
  row "transfers recorded out of ticket order"
    [
      audit 2 [ ((0, 1), Some 80) ];
      t1 1;
      audit 0 [ ((0, 1), Some 100) ];
      t0;
    ]
    [];
  row "ticket -1 / ticket n"
    [ t1 2; { t0 with W.x_ticket = -1 } ]
    [
      "ticket sequence broken: position 0 holds ticket -1";
      "ticket sequence broken: position 1 holds ticket 2";
    ];
  row "stale transfer read"
    [ t0; xfer 1 [ ((0, 1), Some 100) ] [] ]
    ~final:[| [ (1, 90); (2, 100) ]; [ (1, 110); (2, 100) ] |]
    [ "txn 1 read (0,1) = 100 but the serialized state had 90" ];
  row "removal then absent reads"
    [
      xfer 0 [ ((0, 2), Some 100) ] [ ((0, 2), None) ];
      xfer 1 [ ((0, 2), None) ] [ ((0, 2), Some 100) ];
      audit 1 [ ((0, 2), None) ];
    ]
    ~final:[| [ (1, 100); (2, 100) ]; [ (1, 100); (2, 100) ] |]
    [];
  row "reads outside the accounts are absent"
    (base
    @ [
        xfer 2 [ ((2, 1), None); ((0, 3), Some 7) ] [];
        audit 3 [ ((5, 1), None); ((0, 0), None) ];
        audit 3 [ ((0, 3), Some 7) ];
      ])
    [
      "txn 2 read (0,3) = 7 but the serialized state had absent";
      disagrees 3 (0, 3) 7 "absent";
    ];
  row "one slot read as two values"
    (base
    @ [
        audit 1 [ ((0, 1), Some 90); ((0, 1), Some 80) ];
        audit 1 [ ((0, 1), Some 90); ((0, 1), Some 90) ];
      ])
    [ disagrees 1 (0, 1) 80 "90" ];
  row "final key outside 1..accounts"
    ~final:[| [ (1, 80); (2, 100); (3, 0) ]; [ (1, 110); (2, 110) ] |]
    base
    [
      "final state (0,3) = 0 disagrees with the replay (absent)";
      "object 0 holds 3 accounts, expected 2";
    ];
  row "final state disagrees"
    ~final:[| [ (1, 80); (2, 100) ]; [ (1, 120); (2, 100) ] |]
    base
    [
      "final state (1,1) = 120 disagrees with the replay (110)";
      "final state (1,2) = 100 disagrees with the replay (110)";
    ];
  row "missing account"
    ~final:[| [ (1, 80) ]; [ (1, 110); (2, 110) ] |]
    base
    [
      "object 0 holds 1 accounts, expected 2";
      "conservation broken: accounts sum to 300, expected 400";
    ];
  row "conservation break"
    ~final:[| [ (1, 90); (2, 100) ]; [ (1, 111); (2, 100) ] |]
    [ xfer 0 [ ((0, 1), Some 100) ] [ ((0, 1), Some 90); ((1, 1), Some 111) ] ]
    [ "conservation broken: accounts sum to 401, expected 400" ]

(* The flat model has no slot for a key outside the accounts, so a
   write to one is reported by name rather than replayed. *)
let test_oracle_rejects_stray_write () =
  let o =
    check_list hist_cfg
      [ xfer 0 [] [ ((2, 1), Some 5) ] ]
      (quiesced_objs [| [ (1, 100); (2, 100) ]; [ (1, 100); (2, 100) ] |])
  in
  Alcotest.(check (list string)) "violations"
    [ "txn 0 wrote (2,1), which is no account" ] o.W.violations

(* [Some absent] cannot be recorded: it would read back as [None]. *)
let test_absent_sentinel_rejected () =
  Alcotest.(check int) "None packs to the sentinel" W.absent (W.encode None);
  Alcotest.(check int) "values pack verbatim" 7 (W.encode (Some 7));
  match W.encode (Some W.absent) with
  | (_ : int) -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Differential fuzz: the oracle against a naive reference on random
   small histories. The reference shares none of the oracle's machinery:
   it sorts the committed transfers by ticket and rebuilds the model from
   scratch for every position it needs. *)

let decode v = if v = W.absent then None else Some v

let decoded a =
  List.init (Array.length a / 3) (fun j ->
      ((a.(3 * j), a.((3 * j) + 1)), decode a.((3 * j) + 2)))

let reference (cfg : W.config) records objs =
  let out = ref [] in
  let bad fmt = Printf.ksprintf (fun s -> out := s :: !out) fmt in
  let pp = function Some v -> string_of_int v | None -> "absent" in
  let committed k =
    List.filter (fun x -> x.W.x_kind = k && x.W.x_committed) records
  in
  let transfers =
    List.stable_sort
      (fun a b -> compare a.W.x_ticket b.W.x_ticket)
      (committed W.Transfer)
  in
  let n = List.length transfers in
  List.iteri
    (fun i x ->
      if x.W.x_ticket <> i then
        bad "ticket sequence broken: position %d holds ticket %d" i
          x.W.x_ticket)
    transfers;
  let account (o, k) =
    o >= 0 && o < cfg.W.objects && k >= 1 && k <= cfg.W.accounts
  in
  let state_at p =
    let h = Hashtbl.create 8 in
    List.iteri
      (fun i x ->
        if i < p then
          List.iter
            (fun (ok, v) -> if account ok then Hashtbl.replace h ok v)
            (decoded x.W.x_writes))
      transfers;
    fun ok ->
      if not (account ok) then None
      else Option.value ~default:(Some W.initial) (Hashtbl.find_opt h ok)
  in
  List.iteri
    (fun i x ->
      let st = state_at i in
      List.iter
        (fun (((o, k) as ok), v) ->
          if st ok <> v then
            bad "txn %d read (%d,%d) = %s but the serialized state had %s" i o
              k (pp v) (pp (st ok)))
        (decoded x.W.x_reads);
      List.iter
        (fun (((o, k) as ok), _) ->
          if not (account ok) then
            bad "txn %d wrote (%d,%d), which is no account" i o k)
        (decoded x.W.x_writes))
    transfers;
  List.iter
    (fun a ->
      let at = a.W.x_at in
      if at < 0 || at > n then
        bad "audit at %d is outside the %d-commit history" at n
      else
        let st = state_at at in
        let stale = List.find_opt (fun (ok, v) -> st ok <> v) in
        match stale (decoded a.W.x_reads) with
        | Some (((o, k) as ok), v) ->
            bad "audit at %d read (%d,%d) = %s but the serialized state had %s"
              at o k (pp v) (pp (st ok))
        | None -> ())
    (committed W.Audit);
  let final = state_at n in
  Array.iteri
    (fun o ob ->
      W.T.obj_fold ob
        (fun k v () ->
          match final (o, k) with
          | Some m when m = v -> ()
          | m ->
              bad "final state (%d,%d) = %d disagrees with the replay (%s)" o k
                v (pp m))
        ();
      if W.T.obj_size ob <> cfg.W.accounts then
        bad "object %d holds %d accounts, expected %d" o (W.T.obj_size ob)
          cfg.W.accounts)
    objs;
  let total =
    Array.fold_left
      (fun acc ob -> W.T.obj_fold ob (fun _ v a -> a + v) acc)
      0 objs
  in
  let expected = cfg.W.objects * cfg.W.accounts * W.initial in
  if total <> expected then
    bad "conservation broken: accounts sum to %d, expected %d" total expected;
  List.rev !out

(* A random history over at most 2 objects x 3 accounts: keys and object
   indices sometimes outside the accounts, absent values, a slot read
   twice (the key space is tiny), uncommitted records, audit points
   before 0 or past n, and tickets that are mostly the
   commit order but sometimes a gap, a duplicate or out of range. The
   records are shuffled after the tickets are dealt, so transfers reach
   the oracle out of ticket order, as they do from per-thread logs. *)
type fuzz_case = {
  f_cfg : W.config;
  f_records : W.xrec list;
  f_final : (int * int) list array;
}

let gen_fuzz_case =
  let open QCheck2.Gen in
  let* objects = int_range 1 2 in
  let* accounts = int_range 1 3 in
  let key =
    frequency
      [
        (6, pair (int_range 0 (objects - 1)) (int_range 1 accounts));
        (1, pair (int_range (-1) objects) (int_range 0 (accounts + 1)));
      ]
  in
  let value =
    frequency [ (1, return None); (5, map Option.some (int_range 99 101)) ]
  in
  let accesses n = list_size (int_range 0 n) (pair key value) in
  let committed = frequency [ (8, return true); (1, return false) ] in
  (* [None]: take the next ticket in commit order *)
  let ticket =
    frequency [ (5, return None); (1, map Option.some (int_range (-1) 6)) ]
  in
  let transfer =
    map3
      (fun (c, t) r w ->
        (t, { (xfer (-1) r w) with W.x_committed = c }))
      (pair committed ticket) (accesses 3) (accesses 2)
  in
  let audit_rec =
    map3
      (fun c at r -> (None, { (audit at r) with W.x_committed = c }))
      committed (int_range (-2) 7) (accesses 4)
  in
  let* records =
    list_size (int_range 0 8) (frequency [ (3, transfer); (2, audit_rec) ])
  in
  let next = ref 0 in
  let* records =
    shuffle_l
      (List.map
         (fun (t, x) ->
           match (x.W.x_kind, t) with
           | W.Transfer, Some t -> { x with W.x_ticket = t }
           | W.Transfer, None when x.W.x_committed ->
               incr next;
               { x with W.x_ticket = !next - 1 }
           | _ -> x)
         records)
  in
  (* each object holds keys 1 .. accounts + 1, each present or not *)
  let binding k =
    frequency
      [ (1, return None); (4, map (fun v -> Some (k, v)) (int_range 99 101)) ]
  in
  let bindings =
    map (List.filter_map Fun.id)
      (flatten_l (List.init (accounts + 1) (fun i -> binding (i + 1))))
  in
  let+ final = array_repeat objects bindings in
  {
    f_cfg = { W.default_config with W.objects; accounts };
    f_records = records;
    f_final = final;
  }

let print_fuzz_case c =
  let pp_acc a =
    String.concat " "
      (List.map
         (fun ((o, k), v) ->
           Printf.sprintf "(%d,%d)=%s" o k
             (match v with Some v -> string_of_int v | None -> "absent"))
         (decoded a))
  in
  Printf.sprintf "%d objects x %d accounts\n%s\nfinal: %s" c.f_cfg.W.objects
    c.f_cfg.W.accounts
    (String.concat "\n"
       (List.map
          (fun x ->
            Printf.sprintf "%s%s reads [%s] writes [%s]"
              (if x.W.x_committed then "" else "uncommitted ")
              (match x.W.x_kind with
              | W.Transfer -> Printf.sprintf "transfer #%d" x.W.x_ticket
              | W.Audit -> Printf.sprintf "audit at %d" x.W.x_at)
              (pp_acc x.W.x_reads) (pp_acc x.W.x_writes))
          c.f_records))
    (String.concat " | "
       (Array.to_list
          (Array.map
             (fun kvs ->
               String.concat " "
                 (List.map (fun (k, v) -> Printf.sprintf "%d=%d" k v) kvs))
             c.f_final)))

let oracle_matches_reference =
  Tutil.qcheck_case ~count:500 ~print:print_fuzz_case
    "oracle matches a naive reference" gen_fuzz_case (fun c ->
      let objs = quiesced_objs c.f_final in
      let o = check_list c.f_cfg c.f_records objs in
      let want = reference c.f_cfg c.f_records objs in
      if o.W.violations <> want || o.W.ok <> (want = []) then
        QCheck2.Test.fail_reportf "oracle:\n  %s\nreference:\n  %s"
          (String.concat "\n  " o.W.violations)
          (String.concat "\n  " want);
      true)

(* ------------------------------------------------------------------ *)
(* Allocation gate: the oracle walks flat int arrays, so what it
   allocates per record is a handful of array cells (the ticket sort,
   the step log, audit order), never anything per read. The synthetic
   history is a sequential bank over 4 objects x 16 accounts: 3000
   transfers and 1287 audits that read all 64 accounts, each at the
   point it read. *)

let synthetic_bank () =
  let cfg = { W.default_config with W.objects = 4; accounts = 16 } in
  let slots = cfg.W.objects * cfg.W.accounts in
  let key s = (s / cfg.W.accounts, (s mod cfg.W.accounts) + 1) in
  let model = Array.make slots W.initial in
  let rng = Harness.Rng.create 5 in
  let records = ref [] in
  for i = 0 to 2_999 do
    if i mod 7 < 3 then
      records :=
        audit i (List.init slots (fun s -> (key s, Some model.(s))))
        :: !records;
    let a = Harness.Rng.below rng slots in
    let b = (a + 1 + Harness.Rng.below rng (slots - 1)) mod slots in
    let va = model.(a) and vb = model.(b) in
    let amt = if va >= 3 then 3 else 0 in
    model.(a) <- va - amt;
    model.(b) <- vb + amt;
    records :=
      xfer i
        [ (key a, Some va); (key b, Some vb) ]
        [ (key a, Some (va - amt)); (key b, Some (vb + amt)) ]
      :: !records
  done;
  let final =
    Array.init cfg.W.objects (fun o ->
        List.init cfg.W.accounts (fun k ->
            (k + 1, model.((o * cfg.W.accounts) + k))))
  in
  (cfg, List.rev !records, quiesced_objs final)

let words_allocated () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* The flat oracle measures 6.1 words per record on this history; an
   oracle over [((o, k), v option)] list records that sorts them by
   ticket allocates about 35. *)
let max_words_per_record = 16.

let test_oracle_allocation () =
  let cfg, records, objs = synthetic_bank () in
  (* A collection inside the measured call skews [Gc.counters]'
     difference, so start from an empty minor heap and a finished major
     cycle; the call then allocates too little to trigger either. *)
  Gc.full_major ();
  let w0 = words_allocated () in
  let o = check_list cfg records objs in
  let per_record =
    (words_allocated () -. w0) /. float_of_int (List.length records)
  in
  Alcotest.(check (list string))
    "synthetic bank is serializable" [] o.W.violations;
  Alcotest.(check int) "transfers replayed" 3_000 o.W.transfers;
  Alcotest.(check int) "audits checked" 1_287 o.W.audits;
  if per_record > max_words_per_record then
    Alcotest.failf "oracle allocated %.1f words per record (bound %.0f)"
      per_record max_words_per_record

(* Read-only transactions never abort: an audit-only run retries
   snapshots at worst, and with no writers even that cannot happen. *)
let test_snapshots_never_abort () =
  let m, r = W.run { small_cfg with W.transfer_pct = 0 } in
  Alcotest.(check int) "no aborts" 0 r.W.res_aborts;
  Alcotest.(check int) "no transfers" 0 r.W.res_commits;
  Alcotest.(check bool) "audits ran" true (r.W.res_snapshots > 0);
  Alcotest.(check int) "no writers, no snapshot retries" 0 r.W.res_snap_retries;
  Alcotest.(check bool) "oracle still passes" true r.W.res_oracle.W.ok;
  let ctr name =
    Option.value ~default:0 (List.assoc_opt name m.Harness.Runner.counters)
  in
  Alcotest.(check int) "txn.aborts counter agrees" 0 (ctr "txn.aborts")

let test_conservation () =
  let _, r = W.run W.default_config in
  Alcotest.(check bool) "conserved" true r.W.res_oracle.W.conserved;
  Alcotest.(check int) "total is objects * accounts * initial"
    r.W.res_oracle.W.expected_total r.W.res_oracle.W.total

(* ------------------------------------------------------------------ *)
(* Chaos trial grammar round-trip. *)

module X = Chaos.Txn_trial

let test_txn_trial_roundtrip () =
  let rng = Harness.Rng.create 99 in
  for _ = 1 to 100 do
    let tr = X.gen rng in
    let s = X.to_string tr in
    if X.of_string s <> tr then
      Alcotest.failf "txn trial round-trip failed: %s" s
  done;
  let broken = { (X.gen rng) with W.broken = true } in
  Alcotest.(check bool) "broken flag round-trips" true
    (X.of_string (X.to_string broken) = broken);
  List.iter
    (fun s ->
      match X.of_string s with
      | (_ : X.t) -> Alcotest.failf "expected parse error for %S" s
      | exception Invalid_argument _ -> ())
    [
      "nonsense";
      "txn/list/optik@u2 b1 a2 t1 o1 X500";
      "txn/list/optik@u2 b1 a2 t1 o1 X-1";
      "txn/list/optik@u2 b1 a2 t1 o1 !x";
    ]

let test_txn_trial_runs () =
  let tr = X.of_string "txn/list/optik@u2 b2 a8 t2 o400 X70 w5" in
  let { Chaos.failures; _ } = X.run tr in
  Alcotest.(check (list string)) "no oracle failures" []
    (List.map (fun f -> f.Chaos.f_oracle) failures);
  let _, r = W.run tr in
  Alcotest.(check bool) "transfers committed" true (r.W.res_commits > 0)

let test_txn_trial_catches_broken () =
  let tr = X.of_string "txn/list/optik@xeon b2 a8 t8 o2000 X70 w0 !" in
  let { Chaos.failures; _ } = X.run tr in
  Alcotest.(check bool) "serializability failure reported" true
    (List.exists (fun f -> f.Chaos.f_oracle = "serializability") failures)

(* Configurations the workload cannot run are rejected up front. *)
let test_run_rejects_bad_config () =
  let bad what cfg =
    match W.run cfg with
    | _ -> Alcotest.failf "expected Invalid_argument for %s" what
    | exception Invalid_argument _ -> ()
  in
  let c = W.default_config in
  bad "ops 0" { c with W.ops = 0 };
  bad "threads 0" { c with W.threads = 0 };
  bad "threads past QSBR's cap" { c with W.threads = 129 };
  bad "objects 0" { c with W.objects = 0 };
  bad "transfer_pct 101" { c with W.transfer_pct = 101 };
  bad "transfer_pct -1" { c with W.transfer_pct = -1 }

(* ------------------------------------------------------------------ *)
(* Report integration: the txn section renders into a valid schema'd
   report carrying the oracle verdict and the abort taxonomy. *)

let test_report_section () =
  let m, r = W.run small_cfg in
  let j =
    Harness.Report.make ~subcommand:"txn" ~seed:(Some small_cfg.W.seed)
      ~params:[]
      ~sections:[ W.report_section small_cfg r ]
      [ ("txn/" ^ small_cfg.W.rep, m) ]
  in
  (match Obs.Report.validate j with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invalid report: %s" e);
  let s = Obs.Report.to_string j in
  List.iter
    (fun sub ->
      if not (Obs.Report.contains ~sub s) then
        Alcotest.failf "report missing %S" sub)
    [ "\"oracle\""; "\"commits\""; "\"txn.aborts\""; "\"snapshot_retries\"" ]

(* ------------------------------------------------------------------ *)
(* Native: the same invariants on real domains. Three domains run
   transfers over 4 in-place list/optik objects of 16 accounts, each
   writing at the nodes its reads located. Transfers only move units, so
   afterwards every account is present, the total is conserved, and
   every structure is valid. *)

module NTX = Txn.Make (Rt.Native_rt)
module NStripes = Locks.Stripes (Rt.Native_rt)

let test_native_transfers () =
  let module Nat = Rt.Native_rt in
  let (module I : R.IN_PLACE) = R.Native.ll_optik_in_place in
  let objects = 4 and accounts = 16 and domains = 3 and transfers = 1_500 in
  let objs =
    Array.init objects (fun _ ->
        let st = I.create () in
        for k = 1 to accounts do
          assert (I.insert st k W.initial)
        done;
        NTX.obj_in_place (module I) st (NStripes.create 16))
  in
  let mgr = NTX.create () in
  let body tid () =
    Nat.set_tid tid;
    let rng = Harness.Rng.create (17 + tid) in
    let slot () =
      (Harness.Rng.below rng objects, 1 + Harness.Rng.below rng accounts)
    in
    for _ = 1 to transfers do
      let o1, k1 = slot () in
      let rec dst () =
        let o2, k2 = slot () in
        if o1 = o2 && k1 = k2 then dst () else (o2, k2)
      in
      let o2, k2 = dst () in
      ignore
        (NTX.atomically mgr (fun ctx ->
             let v1 = Option.get (NTX.read ctx objs.(o1) k1) in
             let v2 = Option.get (NTX.read ctx objs.(o2) k2) in
             let amt = if v1 >= 3 then 3 else 0 in
             NTX.write ctx objs.(o1) k1 (Some (v1 - amt));
             NTX.write ctx objs.(o2) k2 (Some (v2 + amt)))
          : unit * int)
    done
  in
  Nat.set_nthreads domains;
  let doms = List.init (domains - 1) (fun i -> Domain.spawn (body (i + 1))) in
  body 0 ();
  List.iter Domain.join doms;
  Nat.set_nthreads 1;
  Alcotest.(check int) "every transfer committed" (domains * transfers)
    (Nat.Probe.count mgr.NTX.c_commits);
  Alcotest.(check (list int)) "every account present"
    (List.init objects (fun _ -> accounts))
    (Array.to_list (Array.map NTX.obj_size objs));
  Alcotest.(check int) "conserved" (objects * accounts * W.initial)
    (Array.fold_left (fun acc o -> NTX.obj_fold o (fun _ v a -> a + v) acc) 0 objs);
  Alcotest.(check bool) "every structure valid" true
    (Array.for_all NTX.obj_validate objs)

let () =
  Alcotest.run "txn"
    [
      ( "versioned-ops",
        [
          Alcotest.test_case "fold agrees with size and search" `Quick
            test_fold_agrees_with_size;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "transfer moves units" `Quick
            test_transfer_moves_units;
          Alcotest.test_case "read-your-writes" `Quick test_read_your_writes;
          Alcotest.test_case "lock conflict aborts and releases" `Quick
            test_lock_conflict_aborts;
          Alcotest.test_case "read validation aborts" `Quick
            test_read_validation_aborts;
          Alcotest.test_case "snapshot is consistent" `Quick
            test_snapshot_is_consistent;
          Alcotest.test_case "snapshot gate validates once after a commit"
            `Quick test_gate_validates_once;
          Alcotest.test_case "snapshot retry re-reads only stale keys"
            `Quick test_retry_rereads_only_stale;
          Alcotest.test_case "snapshot's second retry backs off once"
            `Quick test_second_retry_backs_off_once;
          Alcotest.test_case "versioned read re-checks its stripe" `Quick
            test_read_recheck;
          Alcotest.test_case "stripe table of every rep" `Quick
            test_stripe_table;
          Alcotest.test_case "object read folds once per object" `Quick
            test_object_read_counts;
          Alcotest.test_case "commit draws its ticket before its first write"
            `Quick test_ticket_before_write;
          Alcotest.test_case "transfer writes at its located nodes" `Quick
            test_located_transfer;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "seeded run deterministic" `Quick
            test_deterministic;
          Alcotest.test_case "seed changes run" `Quick test_seed_changes_run;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "passes on optik striping" `Quick
            test_oracle_passes_optik;
          Alcotest.test_case "passes on wrapper reps" `Quick
            test_oracle_passes_wrapper;
          Alcotest.test_case "broken commit caught" `Quick
            test_broken_commit_fails;
          Alcotest.test_case "broken snapshot caught" `Quick
            test_broken_snapshot_fails;
          Alcotest.test_case "broken snapshot gate caught" `Quick
            test_broken_gate_fails;
          Alcotest.test_case "contract on hand-built histories" `Quick
            test_oracle_contract;
          Alcotest.test_case "write to no account reported" `Quick
            test_oracle_rejects_stray_write;
          Alcotest.test_case "absent sentinel rejected" `Quick
            test_absent_sentinel_rejected;
          oracle_matches_reference;
          Alcotest.test_case "allocation per record bounded" `Quick
            test_oracle_allocation;
          Alcotest.test_case "snapshots never abort" `Quick
            test_snapshots_never_abort;
          Alcotest.test_case "units conserved" `Quick test_conservation;
          Alcotest.test_case "writes before the ticket caught in a race" `Quick
            test_fold_race;
          Alcotest.test_case "commit without validation caught in a race"
            `Quick test_commit_race;
          Alcotest.test_case "neighbour insert moves a located node" `Quick
            test_neighbour_race;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "trial grammar round-trip" `Quick
            test_txn_trial_roundtrip;
          Alcotest.test_case "trial runs clean" `Quick test_txn_trial_runs;
          Alcotest.test_case "trial catches broken commit" `Quick
            test_txn_trial_catches_broken;
          Alcotest.test_case "run rejects bad configs" `Quick
            test_run_rejects_bad_config;
        ] );
      ( "report",
        [ Alcotest.test_case "section and taxonomy" `Quick test_report_section ]
      );
      ( "native",
        [
          Alcotest.test_case "transfers conserve and keep structures valid"
            `Quick test_native_transfers;
        ] );
    ]
