(* A concurrent key-value cache built on the paper's fastest hash table
   (per-bucket global-lock OPTIK lists, "optik-gl" in Figure 10).

   Run with: dune exec examples/kv_cache.exe

   The scenario is the one the paper's introduction motivates: a
   read-mostly service keeping sessions/objects in a concurrent hash
   table. Gets vastly outnumber puts; puts of existing keys and evictions
   of absent keys must not serialize behind locks — exactly what the
   OPTIK pattern provides (infeasible updates return without locking). *)

module Rt = Rt.Native_rt
module Bucket = Dstruct.Ll_gl.Optik_gl (Rt)
module Ht = Dstruct.Ht.Of_bucket (Bucket) (struct let create () = Bucket.create () end)

type entry = { payload : string; created_by : int }

let () =
  let n_domains = 4 in
  let n_keys = 4_096 in
  let ops_each = 50_000 in
  let cache : entry Ht.t = Ht.create ~capacity:n_keys () in

  (* warm the cache to ~75% occupancy *)
  let rng0 = Harness.Rng.create 1 in
  let warmed = ref 0 in
  while !warmed < n_keys * 3 / 4 do
    let k = 1 + Harness.Rng.below rng0 n_keys in
    if
      Ht.insert cache k
        { payload = Printf.sprintf "object-%d" k; created_by = -1 }
    then incr warmed
  done;

  let hits = Array.make n_domains 0 in
  let misses = Array.make n_domains 0 in
  let stores = Array.make n_domains 0 in
  let evictions = Array.make n_domains 0 in
  Rt.set_nthreads n_domains;
  let worker tid () =
    Rt.set_tid tid;
    let rng = Harness.Rng.create (100 + tid) in
    for _ = 1 to ops_each do
      let k = 1 + Harness.Rng.below rng n_keys in
      let p = Harness.Rng.below rng 100 in
      if p < 90 then
        (* get *)
        match Ht.search cache k with
        | Some e ->
            assert (String.length e.payload > 0);
            hits.(tid) <- hits.(tid) + 1
        | None -> misses.(tid) <- misses.(tid) + 1
      else if p < 97 then (
        (* put-if-absent (failed puts never lock: OPTIK fast path) *)
        if
          Ht.insert cache k
            { payload = Printf.sprintf "object-%d" k; created_by = tid }
        then stores.(tid) <- stores.(tid) + 1)
      else
        (* evict *)
        match Ht.delete cache k with
        | Some _ -> evictions.(tid) <- evictions.(tid) + 1
        | None -> ()
    done
  in
  let t0 = Unix.gettimeofday () in
  let domains =
    List.init (n_domains - 1) (fun i -> Domain.spawn (worker (i + 1)))
  in
  worker 0 ();
  List.iter Domain.join domains;
  let dt = Unix.gettimeofday () -. t0 in
  Rt.set_nthreads 1;

  let sum a = Array.fold_left ( + ) 0 a in
  let total = n_domains * ops_each in
  Printf.printf "kv-cache: %d ops on %d domains in %.2fs (%.2f Mops/s)\n"
    total n_domains dt
    (float_of_int total /. dt /. 1e6);
  Printf.printf "  gets:      %d hits / %d misses (%.1f%% hit rate)\n"
    (sum hits) (sum misses)
    (100.
    *. float_of_int (sum hits)
    /. float_of_int (max 1 (sum hits + sum misses)));
  Printf.printf "  stores:    %d\n" (sum stores);
  Printf.printf "  evictions: %d\n" (sum evictions);
  Printf.printf "  final size %d — structurally valid: %b\n" (Ht.size cache)
    (Ht.validate cache);
  (* conservation check: warmup + stores - evictions = size *)
  assert (!warmed + sum stores - sum evictions = Ht.size cache);
  print_endline "kv_cache OK"
