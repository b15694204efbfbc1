(** Linearizability checking for small concurrent histories, crash-aware.

    Pair with the simulator: record each operation's invocation/response
    timestamps with [Sim.Sched.now ()] (use [~read_slack:0] for strict
    timestamps, or widen intervals by the slack) and feed the history to
    {!Make.check}. The checker searches for a total order that respects
    real-time precedence and replays correctly against a sequential
    specification. Operations whose thread crashed mid-call have no
    response; the checker may include them (the op took effect just
    before the crash) or exclude them (it never did) — see
    {!Make.pending}. Intended for the adversarial small histories
    property tests and the chaos engine generate; the search is
    exponential in the worst case, and oversized histories return
    {!Make.result.Too_large} rather than raising. *)

module type SPEC = sig
  type state
  type input
  type output

  val init : state
  (** Initial state; persistent values make backtracking free. *)

  val apply : state -> input -> state * output
  val equal_output : output -> output -> bool
  val pp_input : Format.formatter -> input -> unit
  val pp_output : Format.formatter -> output -> unit
end

module Make (Spec : SPEC) : sig
  type event = {
    tid : int;
    inv : int;  (** invocation timestamp *)
    res : int;  (** response timestamp; must be [> inv] *)
    input : Spec.input;
    output : Spec.output;
  }

  type pending = {
    p_tid : int;
    p_inv : int;  (** invocation timestamp; the thread crashed before responding *)
    p_input : Spec.input;
  }
  (** An operation that was invoked but never responded (its thread
      crashed, or the run was aborted mid-call). *)

  type step = Completed of event | Included of pending

  type result =
    | Witness of step list
        (** a valid linearization: every completed event, plus the subset
            of pending operations the checker chose to include *)
    | No_witness  (** no linearization exists — a real violation *)
    | Too_large
        (** more than {!max_events} operations; the search was not
            attempted (callers should treat this as "unchecked") *)

  val max_events : int
  (** Search capacity: completed + pending operations must fit in a
      bitmask (62). *)

  val pp_event : Format.formatter -> event -> unit
  val pp_pending : Format.formatter -> pending -> unit
  val pp_step : Format.formatter -> step -> unit

  val check :
    ?init:Spec.state -> ?pending:pending list -> event list -> result
  (** [check ?pending history] searches for a linearization of the
      completed [history] plus {e any subset} of [pending]
      (include-or-exclude: a crashed operation may or may not have taken
      effect). An included pending operation constrains only the state —
      it produced no observable output — and, having never responded,
      nothing is real-time-ordered after it. *)

  val pp_history : Format.formatter -> event list -> unit
  val pp_pendings : Format.formatter -> pending list -> unit
end

(** {1 Sequential specifications for this library's structures} *)

(** Search structures: int keys and values; mirrors
    {!Dstruct.Dstruct_intf.SET_OPS} results. *)
module Set_spec : sig
  module M : Map.S with type key = int

  type state = int M.t
  type input = Search of int | Insert of int * int | Delete of int
  type output = Found of int | Absent | Ok | Dup

  include
    SPEC with type state := state and type input := input and type output := output
end

(** Queues and stacks: [Put] adds a value, [Take] removes the front
    one. The state lists the pool front first — the oldest value of a
    FIFO queue ([lifo = false]), the newest of a LIFO stack. *)
module Pool_spec (_ : sig
  val lifo : bool
end) : sig
  type state = int list
  type input = Put of int | Take
  type output = Unit | Got of int | Empty

  include
    SPEC with type state := state and type input := input and type output := output
end
