(** Latency sample collection and percentile summaries.

    Mirrors the paper's methodology (§5): each thread holds a bounded
    array of samples (16K in the paper) that wraps around when full; at
    the end of a run the per-thread arrays are merged and summarized as
    5th / 25th / 50th / 75th / 95th percentiles (the boxplot values of
    Figures 7 and 12).

    The sample buffer grows lazily from empty toward the 16K cap. A
    harness allocates one collector per thread per latency class, so a
    10k-thread capacity run would otherwise pay 10_000 x classes x 128KB
    up front — several gigabytes for collectors that mostly record a
    handful of samples each. *)

type t = {
  mutable samples : int array;
  mutable n : int;  (** total recorded (may exceed capacity) *)
}

let capacity = 16_384

let create () = { samples = [||]; n = 0 }

let record t v =
  let i = t.n mod capacity in
  (* [i] walks 0,1,2,... until wrap, so it can only step just past the
     current length — doubling (capped at [capacity]) always covers it. *)
  if i >= Array.length t.samples then begin
    let cap' = min capacity (max 64 (2 * Array.length t.samples)) in
    let s = Array.make cap' 0 in
    Array.blit t.samples 0 s 0 (Array.length t.samples);
    t.samples <- s
  end;
  t.samples.(i) <- v;
  t.n <- t.n + 1

let count t = t.n

type summary = {
  n : int;
  p05 : int;
  p25 : int;
  p50 : int;
  p75 : int;
  p95 : int;
  p99 : int;
  p999 : int;
  mean : float;
}

let empty_summary =
  {
    n = 0;
    p05 = 0;
    p25 = 0;
    p50 = 0;
    p75 = 0;
    p95 = 0;
    p99 = 0;
    p999 = 0;
    mean = 0.;
  }

(* Sort [a] ascending in place: an LSD radix sort over [v - min] in
   11-bit digits, as many passes as the range [max - min] needs (none
   when every sample is equal). Each pass is a counting sort, stable, so
   the result is the ascending order any comparison sort gives — with no
   closure call per comparison, and linear in the sample count. A range
   that overflows [int] (samples near both [min_int] and [max_int]) falls
   back to [Array.sort]. *)
let digit_bits = 11

let sort_ints a =
  let n = Array.length a in
  let lo = ref max_int and hi = ref min_int in
  for i = 0 to n - 1 do
    let v = a.(i) in
    if v < !lo then lo := v;
    if v > !hi then hi := v
  done;
  let lo = !lo and range = !hi - !lo in
  if range < 0 then Array.sort Int.compare a
  else begin
    let radix = 1 lsl digit_bits in
    let counts = Array.make radix 0 in
    let src = ref a and dst = ref (Array.make n 0) in
    let shift = ref 0 in
    while !shift < Sys.int_size && range lsr !shift > 0 do
      let s = !src and d = !dst and sh = !shift in
      Array.fill counts 0 radix 0;
      for i = 0 to n - 1 do
        let k = ((s.(i) - lo) lsr sh) land (radix - 1) in
        counts.(k) <- counts.(k) + 1
      done;
      (* counts -> first output position of each digit *)
      let pos = ref 0 in
      for k = 0 to radix - 1 do
        let c = counts.(k) in
        counts.(k) <- !pos;
        pos := !pos + c
      done;
      for i = 0 to n - 1 do
        let v = s.(i) in
        let k = ((v - lo) lsr sh) land (radix - 1) in
        d.(counts.(k)) <- v;
        counts.(k) <- counts.(k) + 1
      done;
      src := d;
      dst := s;
      shift := sh + digit_bits
    done;
    if !src != a then Array.blit !src 0 a 0 n
  end

(* Merge several collectors and summarize. *)
let summarize (ts : t list) =
  let total = List.fold_left (fun a (t : t) -> a + min t.n capacity) 0 ts in
  if total = 0 then empty_summary
  else begin
    let all = Array.make total 0 in
    let off = ref 0 in
    List.iter
      (fun (t : t) ->
        let k = min t.n capacity in
        Array.blit t.samples 0 all !off k;
        off := !off + k)
      ts;
    sort_ints all;
    let pct p =
      let idx = int_of_float (p *. float_of_int (total - 1)) in
      all.(idx)
    in
    (* Tail percentiles use the ceiling nearest-rank convention instead:
       with few samples the floor index collapses p99/p999 onto the
       median, hiding exactly the tail these exist to expose. Under
       ceiling-rank a sparse class (say 5 timeouts) reports its maximum
       as p999, which is the honest answer. *)
    let pct_hi p =
      let r = int_of_float (Float.ceil (p *. float_of_int total)) - 1 in
      all.(min (total - 1) (max 0 r))
    in
    let sum = Array.fold_left ( + ) 0 all in
    {
      n = total;
      p05 = pct 0.05;
      p25 = pct 0.25;
      p50 = pct 0.50;
      p75 = pct 0.75;
      p95 = pct 0.95;
      p99 = pct_hi 0.99;
      p999 = pct_hi 0.999;
      mean = float_of_int sum /. float_of_int total;
    }
  end

let pp fmt s =
  Format.fprintf fmt
    "n=%d p05=%d p25=%d p50=%d p75=%d p95=%d p99=%d p999=%d mean=%.0f" s.n
    s.p05 s.p25 s.p50 s.p75 s.p95 s.p99 s.p999 s.mean
