(** The observability journal: a deterministic, virtual-time-stamped
    event log fed by the simulator backend's probes ([Sim_rt.Probe]) and
    by the scheduler's instrumentation checkpoints, plus per-cache-line
    contention accounting ("hot lines").

    The journal is a single recording session {e per domain}, matching
    the simulator's one-world-per-domain design: a harness calls {!start}
    before a simulated run and {!stop} afterwards to obtain the
    {!record}. While no recording is active every entry point is a cheap
    no-op (one flag check), so probes cost nothing on untraced runs —
    and they {e never} cost virtual time either way, which is what keeps
    traced and untraced runs cycle-identical.

    Outside a session the journal holds no per-line state at all: the
    allocation site of a cache line ({!with_site}) is stored on the
    simulator's line when it is created and passed back with each
    contention event, so an untraced process does not grow with the
    lines it allocates.

    The entry buffer is an arena: {!stop} hands out a copy of the live
    prefix and keeps the backing array, so repeated record/stop cycles
    (soak sweeps, fleet trials) reallocate nothing once the buffer has
    reached its high-water mark.

    Determinism: entries carry only virtual time, thread id and names —
    never cache-line ids or any other allocation-order-dependent value —
    so two same-seed runs produce byte-identical exports (see
    [Trace]).

    {2 The trace contract}

    A traced request is delimited by a [Req_begin (kind, id)] /
    [Req_end (class, id)] pair on one virtual thread; the id comes from
    {!next_req_id} and is deterministic. Between the markers the thread
    may journal:

    - {e phases}: [Phase_begin]/[Phase_end] pairs of a {!phase}. Phases
      may nest (resync runs inside routing); attribution charges each
      phase its {e self} time — the nested child's cycles are subtracted
      from the parent — so phase times sum to the span they cover.
    - {e elapsed phases}: [Phase_elapsed (p, cycles)] charges [cycles]
      that ended at the entry to [p] without a begin. Used for queueing
      delay, which elapses {e before} the request starts executing.
    - anything else (counter bumps, {!instant}s): attribution folds these
      into per-request flags and the timeline's event rates.

    A phase is closed by its [Phase_end] or by its thread's death: the
    scheduler journals [Instant (Thread_crash, None)] at the death
    timestamp, and every reader closes the thread's open phases and
    request there ({!walk}).

    {2 Zero cost when off}

    Every entry reaches the journal through the scheduler's [obs_emit],
    which stamps it with the calling thread's clock and tests
    {!recording} first. A kind whose arguments are constants (a phase
    begin or end, a storm) is a static block, so an untraced run pays one
    flag load for it; a kind with a run-time argument is built only under
    a [recording ()] test at the call site. Emissions never advance the
    virtual clock, so traced and untraced runs are cycle-identical. *)

(** The phases a traced request's cycles are split into. *)
type phase =
  | Queue  (** open-loop queueing: behind the intended arrival *)
  | Backoff  (** retry backoff wait *)
  | Route  (** shard routing + node health refresh *)
  | Store  (** the store traversal proper *)
  | Acquire  (** commit lock-set acquisition stall *)
  | Validate  (** read-set validation *)
  | Commit  (** write apply + ticket + lock release *)
  | Resync  (** inline anti-entropy repair charged to the request *)
  | Dual_write  (** extra write to a mid-resync copy *)

(** The service and scheduler instants. *)
type instant =
  | Retry  (** one retry attempt; kv's argument is the attempt number *)
  | Storm  (** a request issued inside a hot-key storm *)
  | Node_crash  (** the service observed a store crash; argument: store *)
  | Thread_crash  (** a fault killed the thread *)
  | Thread_finish  (** the thread's body returned *)

type kind =
  | Count of string * Rt.Rt_intf.counter_kind * int
      (** counter increment: name, kind, delta *)
  | Sample of string * int
      (** a latency sample: name, value; the runner journals each op's
          cycles as ["runner.op-cycles"] *)
  | Instant of instant * int option
  | Span_begin of string  (** [Probe.span]: a lock's named wait *)
  | Span_end of string
  | Phase_begin of phase
  | Phase_end of phase
  | Phase_elapsed of phase * int
      (** a phase of the given cycles that ended at this entry *)
  | Point of Rt.Rt_intf.fault_point
      (** an instrumentation checkpoint reported through [on_fault] *)
  | Req_begin of string * int
      (** a traced request starts: request kind ("get", "put",
          "transfer", ...), deterministic trace id ({!next_req_id}) *)
  | Req_end of string * int
      (** the request completes: its latency class name, same trace id *)

(* The names the exports and report sections print: the one place the
   typed vocabulary is spelled. *)
let phase_name = function
  | Queue -> "queue"
  | Backoff -> "backoff"
  | Route -> "route"
  | Store -> "store"
  | Acquire -> "acquire"
  | Validate -> "validate"
  | Commit -> "commit"
  | Resync -> "resync"
  | Dual_write -> "dual-write"

let instant_name = function
  | Retry -> "rq.retry"
  | Storm -> "rq.storm"
  | Node_crash -> "kv.node-crash"
  | Thread_crash -> "thread.crash"
  | Thread_finish -> "thread.finish"

(** A phase's span name in the exports, and its elapsed-phase event name. *)
let phase_span_name p = "phase:" ^ phase_name p

let phase_elapsed_name p = "phase=" ^ phase_name p

type entry = { at : int;  (** virtual cycles *) tid : int; kind : kind }

(* ------------------------------------------------------------------ *)
(* Per-line contention accounting                                      *)

type line_stat = {
  ls_id : int;
  ls_site : string option;  (** allocating structure/field, if labeled *)
  mutable ls_transfers : int;  (** coherence transfers (fetch from afar) *)
  mutable ls_cas_fails : int;  (** failed CAS landing on this line *)
  mutable ls_bounces : int;  (** ownership moved from another context *)
  mutable ls_stalls : int;  (** serialized RMWs queued behind [busy_until] *)
}

type record = {
  entries : entry array;  (** in execution order *)
  lines : line_stat list;  (** lines with recorded activity, ascending id *)
}

(* Virtual time cut into [nwindows] equal windows, shared by the
   profile's series and the request timelines: the horizon is the last
   entry's timestamp, clamped to at least 1, and the width is
   ceil(horizon / nwindows), so every entry falls in some window. *)
type windows = { horizon : int; nwindows : int; width : int }

let windows ~n (r : record) =
  let horizon = Array.fold_left (fun h e -> max h e.at) 1 r.entries in
  let nwindows = max 1 n in
  { horizon; nwindows; width = (horizon + nwindows - 1) / nwindows }

let window_index w at = min (w.nwindows - 1) (max 0 (at / w.width))

(* ------------------------------------------------------------------ *)
(* The per-thread frame walk                                           *)

(** What an entry does to its thread's stack of open frames: open one,
    close the innermost one if it satisfies the predicate, or neither. *)
type 'f step = Open of 'f | Close of ('f -> bool) | Neither

type 'f open_frame = { frame : 'f; start : int; mutable child : int }

(** [walk r ~step ~close ~entry] runs through [r]'s entries keeping, per
    thread, a stack of the frames [step] opens. A close that does not
    match the thread's innermost open frame is dropped. A thread's
    [Instant (Thread_crash, _)] closes all its open frames, innermost
    first, at the death timestamp; frames still open when the record ends
    close at its last timestamp, by ascending thread id. [close] gets
    each closed frame with its interval and its self cycles (its own
    minus those of the frames nested in it); [entry] then sees every
    entry, after the frames it closed. *)
let walk (r : record) ~(step : kind -> 'f step)
    ~(close :
       tid:int -> 'f -> start:int -> stop:int -> self:int -> crashed:bool -> unit)
    ~(entry : entry -> unit) =
  let stacks : (int, 'f open_frame list) Hashtbl.t = Hashtbl.create 16 in
  let stack tid = Option.value ~default:[] (Hashtbl.find_opt stacks tid) in
  let pop tid o rest ~stop ~crashed =
    let dur = stop - o.start in
    (match rest with p :: _ -> p.child <- p.child + dur | [] -> ());
    close ~tid o.frame ~start:o.start ~stop ~self:(dur - o.child) ~crashed
  in
  let close_all tid ~stop ~crashed =
    let rec go = function
      | [] -> ()
      | o :: rest ->
          pop tid o rest ~stop ~crashed;
          go rest
    in
    go (stack tid);
    Hashtbl.remove stacks tid
  in
  let last = ref 0 in
  Array.iter
    (fun (e : entry) ->
      if e.at > !last then last := e.at;
      (match e.kind with
      | Instant (Thread_crash, _) -> close_all e.tid ~stop:e.at ~crashed:true
      | k -> (
          match (step k, stack e.tid) with
          | Open f, st ->
              Hashtbl.replace stacks e.tid ({ frame = f; start = e.at; child = 0 } :: st)
          | Close matches, o :: rest when matches o.frame ->
              Hashtbl.replace stacks e.tid rest;
              pop e.tid o rest ~stop:e.at ~crashed:false
          | _ -> ()));
      entry e)
    r.entries;
  Hashtbl.fold (fun tid _ acc -> tid :: acc) stacks []
  |> List.sort compare
  |> List.iter (fun tid -> close_all tid ~stop:!last ~crashed:false)

(* ------------------------------------------------------------------ *)
(* The per-domain journal state                                        *)

let dummy_entry = { at = 0; tid = 0; kind = Instant (Thread_finish, None) }

(* Everything the journal mutates, one instance per domain: the
   allocation-site scope ([Probe.with_site]; no line->site table — the
   site travels on the simulator's line), the recording flag, the
   growable entry buffer, and the per-line contention stats. A fresh
   domain starts with a pristine journal, so fleet worker domains record
   independently. *)
type jstate = {
  mutable j_site : string option;
  mutable j_recording : bool;
  mutable j_buf : entry array;
  mutable j_len : int;
  j_lines : (int, line_stat) Hashtbl.t;
  mutable j_next_req : int;
      (** next trace id; per recording session, so same-seed runs hand
          out identical ids regardless of what recorded before them *)
}

let jkey : jstate Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        j_site = None;
        j_recording = false;
        j_buf = [||];
        j_len = 0;
        j_lines = Hashtbl.create 64;
        j_next_req = 1;
      })

let[@inline] jstate () = Domain.DLS.get jkey

(* ------------------------------------------------------------------ *)
(* Allocation-site attribution                                         *)

let with_site site f =
  let j = jstate () in
  let saved = j.j_site in
  j.j_site <- Some site;
  Fun.protect ~finally:(fun () -> j.j_site <- saved) f

let current_site () = (jstate ()).j_site

(* ------------------------------------------------------------------ *)
(* The recorder                                                        *)

let recording () = (jstate ()).j_recording

(* Deterministic trace ids: the simulator interleaves its virtual
   threads on one OS thread, so the order of [next_req_id] calls — hence
   the ids themselves — is a pure function of the seed. Reset by
   {!start} so every recording session numbers its requests from 1. *)
let next_req_id () =
  let j = jstate () in
  let id = j.j_next_req in
  j.j_next_req <- id + 1;
  id

let push j e =
  let cap = Array.length j.j_buf in
  if j.j_len = cap then begin
    let cap' = if cap = 0 then 1024 else 2 * cap in
    let b = Array.make cap' dummy_entry in
    Array.blit j.j_buf 0 b 0 cap;
    j.j_buf <- b
  end;
  j.j_buf.(j.j_len) <- e;
  j.j_len <- j.j_len + 1

let emit ~at ~tid kind =
  let j = jstate () in
  if j.j_recording then push j { at; tid; kind }

let stat_of j ~site id =
  match Hashtbl.find_opt j.j_lines id with
  | Some s -> s
  | None ->
      let s =
        {
          ls_id = id;
          ls_site = site;
          ls_transfers = 0;
          ls_cas_fails = 0;
          ls_bounces = 0;
          ls_stalls = 0;
        }
      in
      Hashtbl.add j.j_lines id s;
      s

(* The [on_*] accounting hooks are recording-gated at the caller (the
   scheduler's cost model), so they can assume an active session. [site]
   is the line's allocation site, carried on the simulator's line. *)
let on_transfer ~site id =
  let s = stat_of (jstate ()) ~site id in
  s.ls_transfers <- s.ls_transfers + 1

let on_cas_fail ~site id =
  let s = stat_of (jstate ()) ~site id in
  s.ls_cas_fails <- s.ls_cas_fails + 1

let on_bounce ~site id =
  let s = stat_of (jstate ()) ~site id in
  s.ls_bounces <- s.ls_bounces + 1

let on_stall ~site id =
  let s = stat_of (jstate ()) ~site id in
  s.ls_stalls <- s.ls_stalls + 1

let start () =
  let j = jstate () in
  j.j_len <- 0;
  Hashtbl.reset j.j_lines;
  j.j_next_req <- 1;
  j.j_recording <- true

let stop () =
  let j = jstate () in
  j.j_recording <- false;
  let entries = Array.sub j.j_buf 0 j.j_len in
  (* Keep the backing array (the arena) but drop the entry references so
     a finished session does not pin its names/blocks until the next. *)
  Array.fill j.j_buf 0 j.j_len dummy_entry;
  j.j_len <- 0;
  let lines =
    Hashtbl.fold (fun _ s acc -> s :: acc) j.j_lines []
    |> List.sort (fun a b -> compare a.ls_id b.ls_id)
  in
  Hashtbl.reset j.j_lines;
  { entries; lines }

(* ------------------------------------------------------------------ *)
(* World reset                                                         *)

(* Back to process-pristine state: any in-flight recording is abandoned,
   the site scope is left, and the entry arena is released. Part of the
   fleet runner's per-trial reset. *)
let reset_world () =
  let j = jstate () in
  j.j_site <- None;
  j.j_recording <- false;
  j.j_buf <- [||];
  j.j_len <- 0;
  j.j_next_req <- 1;
  Hashtbl.reset j.j_lines
