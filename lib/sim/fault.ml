(** Deterministic fault injection for the simulator.

    A {!plan} is a seeded list of {!spec}s: at a given checkpoint
    ({!Rt.Rt_intf.fault_point}), optionally restricted to one thread,
    after a given number of hits, perform an {!action}:

    - {!Crash}: the thread never runs again. Locks it holds stay held —
      the adversary the lock-free vs blocking comparison is about.
    - {!Stall}: the thread disappears for N virtual cycles (page fault,
      preemption spike) and then resumes.
    - {!Storm}: opens a preemption-storm window; until it closes, the
      victim threads lose [duration] cycles at every checkpoint they
      reach — burst descheduling beyond the scheduler's fair
      multiprogramming model.

    Determinism: specs fire on checkpoint {e counts}, not wall time, and
    the only randomness is derived from the plan's [seed] by a pure hash
    (used when a spec leaves [hits = 0]). Two runs with the same plan,
    topology and workload produce identical schedules, identical fault
    times and identical results.

    Handlers run in the faulting thread's own context via the scheduler's
    fault hook, so a [Stall] burns that thread's virtual time and a
    [Crash] unwinds only that thread's fiber. *)

type point = Rt.Rt_intf.fault_point

type action =
  | Crash
  | Stall of int  (** disappear for N cycles, then resume *)
  | Storm of { victims : int list; duration : int }
      (** open a window of [duration] cycles during which every listed
          thread ([[]] = every thread) stalls to the end of the window at
          each checkpoint it reaches *)
  | Shard_crash of { shard : int; down_for : int }
      (** mark logical store [shard] crashed: its contents are
          conceptually lost (a harness observes this via
          {!shard_crash_count} and wipes the backing structure), and
          {!shard_down} reports it down until [down_for] cycles have
          elapsed — or, when [down_for = 0], until a {!Shard_recover}
          fires. Unlike {!Crash} this does not kill the reporting
          thread; it flips service-level state the KV layer polls. *)
  | Shard_recover of int
      (** bring logical store [shard] back up (no-op if it is up) *)
  | Resync_crash of { shard : int; down_for : int }
      (** like {!Shard_crash}, but checkpoint hits only count while the
          installed {!set_resync_probe} reports store [shard]'s pair as
          mid-resync — so [hits = N] means "the Nth checkpoint reached
          after a resync involving this store's pair starts", landing
          the crash deterministically inside the copy window no matter
          when that window opens. With no probe installed it never
          fires. *)

type spec = {
  f_tid : int option;  (** restrict to one thread; [None] = any thread *)
  f_point : point;
  f_hits : int;
      (** fire on the Nth matching checkpoint; 0 = derive a small count
          (1..48) deterministically from the plan seed *)
  f_action : action;
}

type plan = { seed : int; specs : spec list }

let crash ?tid ?(hits = 0) point =
  { f_tid = tid; f_point = point; f_hits = hits; f_action = Crash }

let stall ?tid ?(hits = 0) cycles point =
  { f_tid = tid; f_point = point; f_hits = hits; f_action = Stall cycles }

let storm ?tid ?(hits = 0) ?(victims = []) duration point =
  {
    f_tid = tid;
    f_point = point;
    f_hits = hits;
    f_action = Storm { victims; duration };
  }

let shard_crash ?tid ?(hits = 0) ?(down_for = 0) shard point =
  {
    f_tid = tid;
    f_point = point;
    f_hits = hits;
    f_action = Shard_crash { shard; down_for };
  }

let shard_recover ?tid ?(hits = 0) shard point =
  { f_tid = tid; f_point = point; f_hits = hits; f_action = Shard_recover shard }

let resync_crash ?tid ?(hits = 0) ?(down_for = 0) shard point =
  {
    f_tid = tid;
    f_point = point;
    f_hits = hits;
    f_action = Resync_crash { shard; down_for };
  }

let plan ~seed specs = { seed; specs }

(** One fired injection, as {!with_plan} returns it: which thread, at
    what virtual time, after how many global ops. *)
type event = { e_tid : int; e_clock : int; e_ops : int; e_spec : spec }

(* ------------------------------------------------------------------ *)

type armed = { spec : spec; mutable remaining : int; mutable fired : bool }

(* All of the engine's mutable state, one instance per domain (like the
   scheduler world it injects into): the armed plan, the open storm
   window, the fired log, the logical shard-store tables and the resync
   probe. A fleet worker domain starts with a pristine engine. *)
type fstate = {
  mutable active : armed array;
  mutable storm_window : (int * int list) option;
  mutable fired_log : event list;
  (* Logical shard-store state, keyed by store index. These tables
     survive [clear] (until the next [install]) so a harness can still
     observe unacknowledged crashes — and wipe the affected stores —
     after the run returns. *)
  shard_epochs : (int, int) Hashtbl.t;
  shard_deadlines : (int, int) Hashtbl.t;
  (* Is store [s]'s pair currently mid-resync? Installed by the KV
     service for the duration of a run; gates {!Resync_crash} hit
     counting. The default says "no", so resync-targeted specs are inert
     outside a service that arms the probe. *)
  mutable resync_probe : int -> bool;
}

let fkey : fstate Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        active = [||];
        storm_window = None;
        fired_log = [];
        shard_epochs = Hashtbl.create 16;
        shard_deadlines = Hashtbl.create 16;
        resync_probe = (fun _ -> false);
      })

let[@inline] fstate () = Domain.DLS.get fkey

let set_resync_probe f = (fstate ()).resync_probe <- f

(** How many times store [s] has crashed under the current plan. A
    service compares this against its last observed value to detect (and
    wipe after) crashes, including crash+auto-recover cycles that
    happened entirely between two of its own accesses. *)
let shard_crash_count s =
  Option.value ~default:0 (Hashtbl.find_opt (fstate ()).shard_epochs s)

(** Is store [s] currently down? Auto-recovery is lazy: a finite window
    is removed the first time it is consulted past its deadline (by the
    calling thread's clock, so different threads may briefly disagree —
    exactly like real failure detectors). *)
let shard_down s =
  let f = fstate () in
  match Hashtbl.find_opt f.shard_deadlines s with
  | None -> false
  | Some deadline ->
      if deadline <> max_int && Sched.now () >= deadline then begin
        Hashtbl.remove f.shard_deadlines s;
        false
      end
      else true

(* Pure splitmix-style hash of (seed, spec index): the default hit count
   for specs that leave [f_hits = 0]. Small (1..48) so the fault lands
   early in any realistic run. *)
let derived_hits seed i =
  let x = ((seed + 1) * 0x9E3779B1) lxor ((i + 1) * 0x85EBCA77) in
  let x = x lxor (x lsr 13) in
  let x = x * 0xC2B2AE35 land max_int in
  1 + ((x lxor (x lsr 16)) mod 48)

let handler p =
  let f = fstate () in
  let tid = Sched.tid () in
  (* A storm in progress stalls its victims at whatever checkpoint they
     reach next, until the window closes. *)
  (match f.storm_window with
  | Some (t_end, victims) ->
      let c = Sched.now () in
      if c >= t_end then f.storm_window <- None
      else if victims = [] || List.mem tid victims then Sched.work (t_end - c)
  | None -> ());
  Array.iter
    (fun a ->
      if
        (not a.fired)
        && a.spec.f_point = p
        && (match a.spec.f_tid with None -> true | Some t -> t = tid)
        && match a.spec.f_action with
           | Resync_crash { shard; _ } -> f.resync_probe shard
           | _ -> true
      then (
        a.remaining <- a.remaining - 1;
        if a.remaining <= 0 then (
          a.fired <- true;
          f.fired_log <-
            {
              e_tid = tid;
              e_clock = Sched.now ();
              e_ops = Sched.ops_so_far ();
              e_spec = a.spec;
            }
            :: f.fired_log;
          match a.spec.f_action with
          | Crash -> raise Sched.Crashed
          | Stall n -> Sched.work n
          | Storm { victims; duration } ->
              f.storm_window <- Some (Sched.now () + duration, victims)
          | Shard_crash { shard; down_for } | Resync_crash { shard; down_for }
            ->
              Hashtbl.replace f.shard_epochs shard
                (shard_crash_count shard + 1);
              Hashtbl.replace f.shard_deadlines shard
                (if down_for = 0 then max_int else Sched.now () + down_for)
          | Shard_recover shard -> Hashtbl.remove f.shard_deadlines shard)))
    f.active

let install p =
  let f = fstate () in
  f.fired_log <- [];
  f.storm_window <- None;
  Hashtbl.reset f.shard_epochs;
  Hashtbl.reset f.shard_deadlines;
  f.active <-
    Array.of_list
      (List.mapi
         (fun i sp ->
           let hits =
             if sp.f_hits > 0 then sp.f_hits else derived_hits p.seed i
           in
           { spec = sp; remaining = hits; fired = false })
         p.specs);
  Sched.set_fault_hook (Some handler)

(* Shard tables are deliberately NOT reset here: a shard crash that fired
   near the end of the run may still be unobserved by the service, which
   quiesces (compares epochs and wipes) after the run — and thus after
   [with_plan]'s cleanup — returns. *)
let clear () =
  let f = fstate () in
  Sched.set_fault_hook None;
  f.active <- [||];
  f.storm_window <- None;
  f.resync_probe <- (fun _ -> false)

(* [f ()] under plan [p], with the injections that fired, in order. *)
let with_plan p f =
  install p;
  Fun.protect ~finally:clear (fun () ->
      let r = f () in
      (r, List.rev (fstate ()).fired_log))

(* Back to process-pristine state, shard tables and fired log included —
   the engine's part of a fleet trial reset. *)
let reset_world () =
  let f = fstate () in
  Sched.set_fault_hook None;
  f.active <- [||];
  f.storm_window <- None;
  f.fired_log <- [];
  Hashtbl.reset f.shard_epochs;
  Hashtbl.reset f.shard_deadlines;
  f.resync_probe <- (fun _ -> false)

let point_of_name s =
  match List.find_opt (fun (_, n) -> n = s) Rt.Rt_intf.fault_points with
  | Some (p, _) -> p
  | None -> invalid_arg ("Fault.of_string: unknown checkpoint " ^ s)

let action_name = function
  | Crash -> "crash"
  | Stall n -> Printf.sprintf "stall(%d)" n
  | Storm { duration; _ } -> Printf.sprintf "storm(%d)" duration
  | Shard_crash { shard; down_for = 0 } -> Printf.sprintf "shardcrash(%d)" shard
  | Shard_crash { shard; down_for } ->
      Printf.sprintf "shardcrash(%d:%d)" shard down_for
  | Shard_recover shard -> Printf.sprintf "shardrecover(%d)" shard
  | Resync_crash { shard; down_for = 0 } ->
      Printf.sprintf "resynccrash(%d)" shard
  | Resync_crash { shard; down_for } ->
      Printf.sprintf "resynccrash(%d:%d)" shard down_for

(* ------------------------------------------------------------------ *)
(* Plan serialization, for replayable repro strings (the chaos engine's
   [--replay]).  Grammar, with no whitespace anywhere:

     plan   := SEED | SEED ';' spec (';' spec)*
     spec   := action '@' POINT (',t' TID)? (',h' HITS)?
     action := 'crash' | 'stall(' N ')'
             | 'storm(' N ')' | 'storm(' N ':v' TID ('.' TID)* ')'
             | 'shardcrash(' S ')' | 'shardcrash(' S ':' D ')'
             | 'shardrecover(' S ')'
             | 'resynccrash(' S ')' | 'resynccrash(' S ':' D ')'

   Omitted [,tN] means any thread; omitted [,hN] means the seed-derived
   hit count (f_hits = 0).  [to_string] and [of_string] round-trip
   exactly. *)

let spec_to_string sp =
  let action =
    match sp.f_action with
    | Crash -> "crash"
    | Stall n -> Printf.sprintf "stall(%d)" n
    | Storm { victims = []; duration } -> Printf.sprintf "storm(%d)" duration
    | Storm { victims; duration } ->
        Printf.sprintf "storm(%d:v%s)" duration
          (String.concat "." (List.map string_of_int victims))
    | (Shard_crash _ | Shard_recover _ | Resync_crash _) as a -> action_name a
  in
  Printf.sprintf "%s@%s%s%s" action (Rt.Rt_intf.fault_point_name sp.f_point)
    (match sp.f_tid with None -> "" | Some t -> Printf.sprintf ",t%d" t)
    (if sp.f_hits > 0 then Printf.sprintf ",h%d" sp.f_hits else "")

let to_string p =
  string_of_int p.seed
  ^ String.concat "" (List.map (fun sp -> ";" ^ spec_to_string sp) p.specs)

let parse_error fmt = Printf.ksprintf invalid_arg ("Fault.of_string: " ^^ fmt)

let parse_int what s =
  match int_of_string_opt s with
  | Some n -> n
  | None -> parse_error "bad %s %S" what s

(* A count of cycles or hits: a negative one would be a silent no-op. *)
let parse_count what s =
  let n = parse_int what s in
  if n < 0 then parse_error "%s must be >= 0, got %d" what n;
  n

(* "name(inner)" -> inner, for [name]; anything else is an error. *)
let parse_parens name s =
  let pre = name ^ "(" in
  let lp = String.length pre and l = String.length s in
  if l < lp + 1 || String.sub s 0 lp <> pre || s.[l - 1] <> ')' then
    parse_error "malformed action %S" s
  else String.sub s lp (l - lp - 1)

let action_of_string s =
  let has prefix = String.starts_with ~prefix s in
  (* [NAME(S)] or [NAME(S:D)]: a shard, and how long it stays down. *)
  let shard_down name =
    match String.split_on_char ':' (parse_parens name s) with
    | [ sh ] -> (parse_int "shard" sh, 0)
    | [ sh; d ] -> (parse_int "shard" sh, parse_count "down-for" d)
    | _ -> parse_error "malformed %s %S" name s
  in
  if s = "crash" then Crash
  else if has "stall(" then
    Stall (parse_count "stall cycles" (parse_parens "stall" s))
  else if has "storm(" then
    match String.split_on_char ':' (parse_parens "storm" s) with
    | [ d ] -> Storm { victims = []; duration = parse_count "storm duration" d }
    | [ d; v ] when String.length v > 1 && v.[0] = 'v' ->
        Storm
          {
            duration = parse_count "storm duration" d;
            victims =
              String.sub v 1 (String.length v - 1)
              |> String.split_on_char '.'
              |> List.map (parse_int "storm victim");
          }
    | _ -> parse_error "malformed storm %S" s
  else if has "shardcrash(" then
    let shard, down_for = shard_down "shardcrash" in
    Shard_crash { shard; down_for }
  else if has "shardrecover(" then
    Shard_recover (parse_int "shard" (parse_parens "shardrecover" s))
  else if has "resynccrash(" then
    let shard, down_for = shard_down "resynccrash" in
    Resync_crash { shard; down_for }
  else parse_error "unknown action %S" s

let spec_of_string s =
  match String.split_on_char ',' s with
  | [] -> parse_error "empty spec"
  | core :: flags ->
      let action_s, point_s =
        match String.index_opt core '@' with
        | Some i ->
            ( String.sub core 0 i,
              String.sub core (i + 1) (String.length core - i - 1) )
        | None -> parse_error "spec %S has no @checkpoint" core
      in
      let sp =
        {
          f_tid = None;
          f_point = point_of_name point_s;
          f_hits = 0;
          f_action = action_of_string action_s;
        }
      in
      List.fold_left
        (fun sp flag ->
          if String.length flag < 2 then parse_error "bad flag %S" flag
          else
            let v = String.sub flag 1 (String.length flag - 1) in
            match flag.[0] with
            | 't' -> { sp with f_tid = Some (parse_int "thread id" v) }
            | 'h' -> { sp with f_hits = parse_count "hit count" v }
            | _ -> parse_error "bad flag %S" flag)
        sp flags

let of_string s =
  match String.split_on_char ';' s with
  | [] -> parse_error "empty plan"
  | seed :: specs ->
      { seed = parse_int "seed" seed; specs = List.map spec_of_string specs }

(* A plan aims only at what the run has: each spec's [t] and storm
   victims at one of its [threads], each shard fault at one of its
   [stores] (a kv run's primaries and replicas; a structure trial has
   none). *)
let check_targets ~threads ~stores plan =
  List.iter
    (fun sp ->
      let aim what v n unit =
        if v < 0 || v >= n then
          invalid_arg
            (Printf.sprintf
               "Fault.check_targets: fault spec %S targets %s %d, but the \
                trial has %d %s"
               (spec_to_string sp) what v n unit)
      in
      Option.iter (fun t -> aim "thread" t threads "threads") sp.f_tid;
      match sp.f_action with
      | Storm { victims; _ } ->
          List.iter (fun v -> aim "victim thread" v threads "threads") victims
      | Shard_crash { shard; _ } | Shard_recover shard | Resync_crash { shard; _ }
        ->
          aim "store" shard stores "stores"
      | Crash | Stall _ -> ())
    plan.specs

let pp_event ppf e =
  Format.fprintf ppf "%s t%d at %s (clock=%d, op=%d)"
    (action_name e.e_spec.f_action)
    e.e_tid
    (Rt.Rt_intf.fault_point_name e.e_spec.f_point)
    e.e_clock e.e_ops
