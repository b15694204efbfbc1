(** Range rules for run configurations: the services' own [check]s and
    the chaos structure grammar state theirs with these. Each raises
    [Invalid_argument] with ["FN: WHAT must be ..., got V"]. *)

let fail fn fmt = Printf.ksprintf (fun m -> invalid_arg (fn ^ ": " ^ m)) fmt

let positive fn what v =
  if v < 1 then fail fn "%s must be positive, got %d" what v

let pct fn what v =
  if v < 0 || v > 100 then fail fn "%s must be in [0,100], got %d" what v

(* The structures' QSBR domains have room for
   [Mem.Qsbr.default_max_threads] thread ids, so a larger run would
   simulate until its first reclamation and then die. *)
let threads fn v =
  positive fn "threads" v;
  if v > Mem.Qsbr.default_max_threads then
    fail fn "threads must be at most %d (QSBR's thread cap), got %d"
      Mem.Qsbr.default_max_threads v
