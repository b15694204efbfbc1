(** Range rules for run configurations: each integer knob ({!Knob}) has
    one, and a rule between knobs is a line in its family's [check]. A
    violation raises [Invalid_argument] with ["FN: WHAT must be ..., got V"]. *)

let fail fn fmt = Printf.ksprintf (fun m -> invalid_arg (fn ^ ": " ^ m)) fmt

(* The closed range [lo, hi]; [note] follows an upper bound in its message. *)
type t = { lo : int; hi : int; note : string }

let v ?(note = "") lo hi = { lo; hi; note }
let any = v min_int max_int
let non_negative = v 0 max_int
let positive = v 1 max_int
let pct = v 0 100

(* The structures' QSBR domains have room for
   [Mem.Qsbr.default_max_threads] thread ids, so a larger run would
   simulate until its first reclamation and then die. *)
let threads = v ~note:" (QSBR's thread cap)" 1 Mem.Qsbr.default_max_threads

(* ["must be ..., got X"] if [x] is out of [r]: a range from 1 reads
   "positive" below and "at most" above, any other its bounds. *)
let violation r x =
  if x >= r.lo && x <= r.hi then None
  else
    Some
      (Printf.sprintf "must be %s, got %d"
         (if r.lo = 1 && x < 1 then "positive"
          else if r.lo = 1 then Printf.sprintf "at most %d%s" r.hi r.note
          else if r.hi = max_int then Printf.sprintf ">= %d" r.lo
          else Printf.sprintf "in [%d,%d]" r.lo r.hi)
         x)

let check fn what r x =
  match violation r x with Some m -> fail fn "%s %s" what m | None -> ()
