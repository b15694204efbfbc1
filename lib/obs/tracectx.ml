(** Request-scoped trace context: the vocabulary and conventions that
    turn the flat {!Journal} stream into per-request causal traces.

    {2 The contract}

    A traced request is delimited by a [Req_begin (kind, id)] /
    [Req_end (class, id)] pair on one virtual thread; the id comes from
    {!Journal.next_req_id} and is deterministic (the simulator
    interleaves all virtual threads on one OS thread, so same-seed runs
    number requests identically). Between the markers the thread may
    journal:

    - {e phase spans}: ordinary [Span_begin]/[Span_end] entries whose
      name carries the {!phase_prefix} ("phase:"). Phases may nest
      (resync runs inside routing); attribution charges each phase its
      {e self} time — the nested child's cycles are subtracted from the
      parent — so phase times sum to the span they cover.
    - {e precomputed phases}: an [Instant ("phase=NAME", Some cycles)]
      charges [cycles] to phase [NAME] without a span. Used for queueing
      delay, which elapses {e before} the request starts executing.
    - anything else (counter bumps, retry/storm instants): attribution
      folds these into per-request flags and the timeline's event rates.

    What may run inside a phase span: anything that stays on the
    emitting thread and terminates or crashes — a span is closed either
    by its [Span_end] or by the thread's death (the scheduler journals
    [Instant ("thread.crash", None)] at the death timestamp, and both
    the Chrome exporter and the attribution fold close open spans and
    requests there).

    {2 Zero cost when off}

    Every emission is gated on {!Journal.recording} {e at the call
    site}, before the kind constructor is allocated — the same PR 4
    discipline as the probes. An untraced run pays one flag load per
    would-be entry and allocates nothing, and emissions never advance
    the virtual clock either way, so traced and untraced runs are
    cycle-identical. *)

(* The typed phases the service and transaction layers emit. Fixing the
   vocabulary here (rather than scattering string literals) keeps the
   emitters, the attribution fold and the report sections agreeing on
   names. *)
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

let phase_prefix = "phase:"
let inline_prefix = "phase="

(** The span name a phase travels under in the journal; emitters pass
    this to [Probe.span_begin]/[span_end]. *)
let span_name p = phase_prefix ^ phase_name p

(** [phase_of_span name] recognizes a phase span: [Some "backoff"] for
    ["phase:backoff"], [None] for any other span. *)
let phase_of_span name =
  let n = String.length phase_prefix in
  if
    String.length name > n
    && String.equal (String.sub name 0 n) phase_prefix
  then Some (String.sub name n (String.length name - n))
  else None

(** Same for the precomputed-duration instants ("phase=NAME"). *)
let phase_of_inline name =
  let n = String.length inline_prefix in
  if
    String.length name > n
    && String.equal (String.sub name 0 n) inline_prefix
  then Some (String.sub name n (String.length name - n))
  else None

(* Event names shared between emitters and analyzers:
   - ev_retry: one retry attempt; arg = attempt number
   - ev_storm: request issued inside a hot-key storm
   - ev_node_crash: the service observed a store crash; arg = store id
   - ev_thread_crash: the scheduler journals a fault-killed thread *)
let ev_retry = "rq.retry"
let ev_storm = "rq.storm"
let ev_node_crash = "kv.node-crash"
let ev_thread_crash = "thread.crash"

(** Fresh deterministic trace id (delegates to the journal's per-session
    counter). Only meaningful while a recording is active. *)
let next_id = Journal.next_req_id

(* ------------------------------------------------------------------ *)
(* Outcome derivation                                                  *)

(** The outcome taxonomy the "why is p99 slow" section splits on. A
    request's outcome is derived, not emitted: the class name on
    [Req_end] decides deadline misses and sheds, and the kinds of the
    counters the request bumped while open decide the rest — a
    [Failover] counter makes it [failed-over], a [Retry], [Abort] or
    [Snapshot_retry] counter makes it [retried]. A structure's own
    [Restart]s (a lock-free traversal re-walking) do not count: they are
    the structure's business, not a service-level retry. *)
let outcomes = [ "ok"; "retried"; "failed-over"; "deadline"; "shed"; "crashed" ]

let outcome ~cls ~retried ~failed_over =
  if String.equal cls "timeout" then "deadline"
  else if String.equal cls "shed" then "shed"
  else if failed_over then "failed-over"
  else if retried then "retried"
  else "ok"
