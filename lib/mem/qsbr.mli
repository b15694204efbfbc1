(** Quiescent-state-based memory reclamation — the [ssmem] substitute
    (§3.3 of the paper). See the implementation header for the protocol.

    Usage contract per thread (identified by [Rt.tid ()]):
    bracket every data-structure operation with {!Make.op_begin} /
    {!Make.op_end} (or call {!Make.quiescent} at other quiescent points),
    and {!Make.retire} unlinked nodes from inside the operation that
    unlinked them. An object is passed to [free] only after every thread
    that was inside an operation at retirement time has finished it. *)

val default_max_threads : int
(** The thread-id bound an instance gets when {!Make.create} is given no
    [max_threads]: 128. *)

module Make (Rt : Rt.Rt_intf.RT) : sig
  type 'a t

  val create :
    ?max_threads:int ->
    ?batch_size:int ->
    ?stall_obs:int ->
    ?free:('a -> unit) ->
    unit ->
    'a t
  (** [free] defaults to a no-op: in OCaml, reclamation is logical and
      the GC does the physical freeing; the callback exists for free-list
      recycling and for tests observing reclamation timing.
      [batch_size] (default 64) is how many retirees accumulate before a
      batch is sealed with a stamp snapshot.
      [stall_obs] (default 0 = off) bounds the damage of a crashed or
      stalled thread that never quiesces: after that many consecutive
      reclaim attempts observe the same thread blocking the oldest batch
      with an unchanged stamp, the thread is declared dead and its stamp
      no longer blocks reclamation. Safe here because reclamation is
      logical (see the implementation header).
      [max_threads] (default 128) bounds the thread ids that may use the
      instance; every operation by a thread id at or past it raises
      [Invalid_argument] naming the id and the bound. Per-thread state
      is built on first use: [create] reserves the stamps' cells
      ({!Rt.Rt_intf.RT.cells}) but allocates no retire slot or stall
      state, so an instance no thread touches stays small. *)

  val op_begin : 'a t -> unit
  (** Enter an operation. Raises [Invalid_argument] if already inside
      one (misuse detection). *)

  val op_end : 'a t -> unit

  val quiescent : 'a t -> unit
  (** Announce a quiescent point outside any bracketed operation. *)

  val retire : 'a t -> 'a -> unit
  (** Hand an unlinked object to the reclaimer. Must be called by the
      thread that unlinked it, inside the unlinking operation. *)

  val flush : 'a t -> unit
  (** Seal the calling thread's current batch and reclaim whatever is
      safe. Useful at shutdown and in tests. *)

  val declare_dead : 'a t -> int -> unit
  (** [declare_dead t i] tells the reclaimer thread [i] will never
      advance its stamp again (crashed, or known descheduled forever):
      its stamp stops blocking reclamation, and batches it blocked become
      reclaimable on the next attempt. Harnesses call this with the
      watchdog's crash reports; [stall_obs] is the automatic variant. *)

  val stalled : 'a t -> int list
  (** Threads the reclaimer currently believes are stuck: declared dead
      (manually or via [stall_obs]), or observed blocking the reclamation
      frontier with an unchanged stamp on at least two consecutive
      reclaim attempts. *)

  type stats = { retired : int; freed : int; pending : int }

  val stats : 'a t -> stats
  (** Aggregate across threads; [retired = freed + pending] always —
      including after stall declarations, whose forced frees count into
      [freed]. *)
end
