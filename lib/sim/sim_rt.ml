(** Simulator backend of {!Rt.Rt_intf.RT}.

    Instantiate any algorithm functor with this module and run its
    operations inside {!Sched.run} to execute it on the simulated
    multicore. Outside a simulation the operations apply directly with no
    cost, so the same instantiation also works in plain unit tests. *)

let backend_name = "sim"

type 'a atomic = 'a Sched.loc

let atomic ?streaming v = Sched.loc ?streaming v
let atomic_with other v = Sched.loc_with other v

type 'a cells = 'a Sched.cells

let cells = Sched.cells
let cell = Sched.cell

let get = Sched.read
let set = Sched.write
let cas = Sched.cas
let faa = Sched.faa
let exchange = Sched.exchange
let pause = Sched.pause
let pause_n = Sched.pause_n
let yield = Sched.yield
let work = Sched.work
let tid = Sched.tid
let noise = Sched.noise
let nthreads = Sched.nthreads
let on_fault = Sched.fault_point

(* Probes never touch the simulated clock, and every probe call
   additionally lands in the observability journal — stamped with the
   calling thread's virtual time by [Sched.obs_emit] — whenever a
   recording is active.

   A counter handle is an immutable (name, kind, id) triple; the actual cells
   live in a per-domain table indexed by id. Handles are memoized in a
   process-global registry (functor-level bindings like
   [Optik.Versioned]'s [trylock_fails] are created once on whichever
   domain instantiates the functor and then used from fleet worker
   domains), so the registry is the one piece of shared state here and
   is mutex-guarded; the hot paths — incr/add — touch only the immutable
   handle and the calling domain's own cells, no lock. Each domain thus
   accumulates its own counts, which is exactly what keeps fleet trials
   independent.

   Every journal emission below tests [Obs.Journal.recording] at the call
   site, before the [Obs.Journal.kind] argument is built: otherwise each
   probe call in an untraced run would still allocate a constructor block
   (and [span] a [Fun.protect] closure) just to have [obs_emit] drop it.
   With recording off a probe is its arithmetic plus one flag load. *)
module Probe = struct
  type counter = { c_name : string; c_kind : Rt.Rt_intf.counter_kind; c_id : int }

  (* The handle registry: name -> handle, ids assigned densely in
     creation order. Shared by all domains, hence the mutex. A name is
     checked once, here: it has the [<owner>.<metric>] form (a non-empty
     owner before the first dot, a non-empty metric after it) and keeps
     the kind it was first registered with. *)
  let reg_mutex = Mutex.create ()
  let counters : (string, counter) Hashtbl.t = Hashtbl.create 32
  let n_counters = ref 0

  let counter ?(kind = Rt.Rt_intf.Tally) name =
    Mutex.protect reg_mutex (fun () ->
        match Hashtbl.find_opt counters name with
        | Some c when c.c_kind = kind -> c
        | Some _ ->
            invalid_arg
              (Printf.sprintf "Probe.counter: %S is registered with another kind"
                 name)
        | None ->
            (match String.index_opt name '.' with
            | Some i when i > 0 && i < String.length name - 1 -> ()
            | _ ->
                invalid_arg
                  (Printf.sprintf
                     "Probe.counter: %S is not of the form <owner>.<metric>" name));
            let c = { c_name = name; c_kind = kind; c_id = !n_counters } in
            Stdlib.incr n_counters;
            Hashtbl.add counters name c;
            c)

  (* Per-domain cells, grown on demand to cover the ids in use. *)
  let ckey : int array ref Domain.DLS.key =
    Domain.DLS.new_key (fun () -> ref [||])

  let grown a n =
    let cap = ref (max 16 (Array.length a)) in
    while !cap < n do
      cap := 2 * !cap
    done;
    let a' = Array.make !cap 0 in
    Array.blit a 0 a' 0 (Array.length a);
    a'

  let[@inline] ccells c =
    let cs = Domain.DLS.get ckey in
    if c.c_id >= Array.length !cs then cs := grown !cs (c.c_id + 1);
    !cs

  let incr c =
    let cc = ccells c in
    cc.(c.c_id) <- cc.(c.c_id) + 1;
    if Obs.Journal.recording () then
      Sched.obs_emit (Obs.Journal.Count (c.c_name, c.c_kind, 1))

  let add c n =
    let cc = ccells c in
    cc.(c.c_id) <- cc.(c.c_id) + n;
    if Obs.Journal.recording () then
      Sched.obs_emit (Obs.Journal.Count (c.c_name, c.c_kind, n))

  let count c =
    let cc = !(Domain.DLS.get ckey) in
    if c.c_id < Array.length cc then cc.(c.c_id) else 0

  let event ?arg name =
    if Obs.Journal.recording () then
      Sched.obs_emit (Obs.Journal.Instant (name, arg))

  let span_begin name =
    if Obs.Journal.recording () then
      Sched.obs_emit (Obs.Journal.Span_begin name)

  let span_end name =
    if Obs.Journal.recording () then
      Sched.obs_emit (Obs.Journal.Span_end name)

  let span name f =
    if Obs.Journal.recording () then begin
      Sched.obs_emit (Obs.Journal.Span_begin name);
      Fun.protect ~finally:(fun () -> span_end name) f
    end
    else f ()

  let with_site = Obs.Journal.with_site

  (* ---- backend extras (not part of {!Rt.Rt_intf.PROBE}) ---- *)

  (** Zero this domain's counter cells (the handle registry is
      untouched); harnesses call this after prefill so statistics
      reflect only the measured window. *)
  let reset_all () =
    let cc = !(Domain.DLS.get ckey) in
    Array.fill cc 0 (Array.length cc) 0

  (** This domain's non-zero counters as [(name, value)], sorted by name
      so reports are deterministic. *)
  let dump () =
    let cc = !(Domain.DLS.get ckey) in
    let len = Array.length cc in
    Mutex.protect reg_mutex (fun () ->
        Hashtbl.fold
          (fun name c acc ->
            if c.c_id < len && cc.(c.c_id) > 0 then (name, cc.(c.c_id)) :: acc
            else acc)
          counters [])
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  (** The kind a registered counter was created with; readers of a
      {!dump} sum its counters by this. Raises [Invalid_argument] for a
      name no counter has. *)
  let kind name =
    match Mutex.protect reg_mutex (fun () -> Hashtbl.find_opt counters name) with
    | Some c -> c.c_kind
    | None -> invalid_arg (Printf.sprintf "Probe.kind: no counter %S" name)

  (** Every registered counter as [(name, kind)], sorted by name: the
      [optik_bench probes] subcommand prints it and the report tests
      walk it. *)
  let all () =
    Mutex.protect reg_mutex (fun () ->
        Hashtbl.fold (fun name c acc -> (name, c.c_kind) :: acc) counters [])
    |> List.sort compare

  (** Alias with the fleet-reset naming convention: probe cells are
      per-domain, so resetting them is all a world reset needs. *)
  let reset_world = reset_all
end
