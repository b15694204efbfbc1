(** Native backend of {!Rt_intf.RT}: real atomics, real domains.

    This is the backend applications should use. Thread identities are
    assigned by {!set_tid} (called by the harness runner, or by user code
    that spawns its own domains). *)

let backend_name = "native"

type 'a atomic = 'a Atomic.t

let atomic ?streaming:_ v = Atomic.make v
let atomic_with _other v = Atomic.make v

(* Eager: building a cell on first touch would race between domains. *)
type 'a cells = 'a Atomic.t array

let cells n v = Array.init n (fun _ -> Atomic.make v)
let cell = Array.get

let get = Atomic.get
let set = Atomic.set
let cas = Atomic.compare_and_set
let faa = Atomic.fetch_and_add
let exchange = Atomic.exchange

let pause () = Domain.cpu_relax ()

let pause_n n =
  for _ = 1 to n do
    Domain.cpu_relax ()
  done

let yield () = Domain.cpu_relax ()

(* Thread-private busy work: a data-independent spin the compiler cannot
   remove entirely (result is observable through [work_sink]). *)
let work_sink = ref 0

let work n =
  let acc = ref !work_sink in
  for i = 1 to n do
    acc := !acc + i
  done;
  work_sink := !acc land 0xff

let noise_key : int ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref 0x2545F491)

let noise () =
  let st = Domain.DLS.get noise_key in
  let x = !st in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = (x lxor (x lsl 17)) land max_int in
  st := x;
  x

(* Thread identity via domain-local storage. [tid] is 0 outside of any
   runner-managed thread, which makes single-threaded use (examples, unit
   tests) work without ceremony. *)
let tid_key : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)
let nthreads_v = Atomic.make 1
let set_tid t = Domain.DLS.set tid_key t
let set_nthreads n = Atomic.set nthreads_v n
let tid () = Domain.DLS.get tid_key
let nthreads () = Atomic.get nthreads_v

(* Fault checkpoints are a simulator facility; native runs real code on
   real cores and cannot crash or stall a domain from the inside. *)
let on_fault (_ : Rt_intf.fault_point) = ()

(* Native probes: counters are plain atomics (safe under
   concurrent domains), the tracing and attribution operations are no-ops
   — real cores have no virtual clock to stamp a journal with, and the
   native runs exist for correctness stress, not for tracing. *)
module Probe = struct
  type counter = int Atomic.t

  let counters : (string, counter) Hashtbl.t = Hashtbl.create 32
  let registry_lock = Mutex.create ()

  (* Nothing sums native counters by kind, so the kind is dropped. *)
  let counter ?kind:_ name =
    Mutex.protect registry_lock (fun () ->
        match Hashtbl.find_opt counters name with
        | Some c -> c
        | None ->
            let c = Atomic.make 0 in
            Hashtbl.add counters name c;
            c)

  let incr c = ignore (Atomic.fetch_and_add c 1)
  let add c n = ignore (Atomic.fetch_and_add c n)
  let count = Atomic.get

  let span (_ : string) f = f ()
  let with_site (_ : string) f = f ()

  (* Backend extra (not part of {!Rt_intf.PROBE}): zero every registered
     counter, for test isolation. *)
  let reset_all () =
    Mutex.protect registry_lock (fun () ->
        Hashtbl.iter (fun _ c -> Atomic.set c 0) counters)
end
