(** Open-addressing int-keyed table, used for the packing-group -> cache
    line mapping ({!Sched.loc_packed}).

    The keys are sparse machine integers — [Rt.Group.fresh] hands out
    positive multiples of 2{^16}, and callers add small line offsets — so
    a plain array cannot index them, and the previous [Hashtbl] paid a
    boxed bucket list per group. Here each slot is two unboxed words
    (key, value index) probed linearly after a multiplicative hash —
    no allocation per lookup or insert, and [clear] retains the backing
    arrays so a world reset does not reallocate.

    Not resizable below its high-water mark and not thread-safe: one
    table per simulator instance (per domain), like the rest of the
    scheduler state. *)

type 'a t = {
  mutable keys : int array;  (** [empty_key] marks a free slot *)
  mutable vals : 'a array;
  mutable mask : int;  (** capacity - 1; capacity is a power of two *)
  mutable count : int;
  dummy : 'a;  (** fills free value slots, so cleared entries don't leak *)
}

(* [min_int] is unreachable as a group id: positive strides plus small
   offsets never get there. *)
let empty_key = min_int

let create ?(capacity = 64) ~dummy () =
  let cap = ref 16 in
  while !cap < capacity do
    cap := !cap * 2
  done;
  {
    keys = Array.make !cap empty_key;
    vals = Array.make !cap dummy;
    mask = !cap - 1;
    count = 0;
    dummy;
  }

let length t = t.count

(* Multiplicative (Fibonacci) hash: group ids come in arithmetic strides,
   which would cluster badly under [land mask] alone. *)
let[@inline] slot_of t k = (k * 0x2545F4914F6CDD1D) land max_int land t.mask

let rec probe t k i =
  let key = t.keys.(i) in
  if key = k || key = empty_key then i else probe t k ((i + 1) land t.mask)

let find_opt t k =
  let i = probe t k (slot_of t k) in
  if t.keys.(i) = k then Some t.vals.(i) else None

let grow t =
  let keys = t.keys and vals = t.vals in
  let cap' = 2 * Array.length keys in
  t.keys <- Array.make cap' empty_key;
  t.vals <- Array.make cap' t.dummy;
  t.mask <- cap' - 1;
  Array.iteri
    (fun i k ->
      if k <> empty_key then begin
        let j = probe t k (slot_of t k) in
        t.keys.(j) <- k;
        t.vals.(j) <- vals.(i)
      end)
    keys

(* Insert [k -> v]; the caller has already ruled out [mem]. Load factor
   is kept under 1/2 so probe chains stay short. *)
let add t k v =
  if 2 * (t.count + 1) > t.mask + 1 then grow t;
  let i = probe t k (slot_of t k) in
  if t.keys.(i) <> k then t.count <- t.count + 1;
  t.keys.(i) <- k;
  t.vals.(i) <- v

(* Empty the table but keep the backing arrays (world reset). *)
let clear t =
  Array.fill t.keys 0 (Array.length t.keys) empty_key;
  Array.fill t.vals 0 (Array.length t.vals) t.dummy;
  t.count <- 0
