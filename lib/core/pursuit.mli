(** The NACK pursuit ladder of §2.2.1, shared by {!Receiver} and the
    aggregate receiver population.

    One pursuit per missing sequence number.  A pursuit is NACKed to
    the hierarchy level it sits at; each unanswered round
    ([K_nack_escalate]) walks the ladder: retry at the same level up to
    [nack_retry_limit] times, climb to the next level (secondary → … →
    primary), ask the source [Who_is_primary] once the whole hierarchy
    failed (the primary may have moved, §2.2.3), and finally abandon.

    The table is a plain [Hashtbl] filled in arrival order, so the
    grouping of due seqs per level (and hence NACK contents and action
    order) is deterministic for a given input. *)

type address = Lbrm_wire.Message.address
type seq = Lbrm_util.Seqno.t

type t

val create : unit -> t

val open_ : t -> now:float -> seq list -> seq list
(** Start pursuing every seq not already pursued, at level 0 and due
    for the next NACK; returns those fresh seqs. *)

val close : t -> now:float -> seq -> Io.action list
(** A pursued seq arrived: stop pursuing it, cancel its escalation
    timer and report [N_recovered] with the time since it was opened.
    [[]] if it was not pursued. *)

val forget : t -> seq -> unit
(** Drop a pursuit without a notice (the seq turned up otherwise). *)

val level : t -> seq -> int option
(** The hierarchy level a seq is pursued at, if it is pursued. *)

val nack_round : t -> seq -> int
(** The flush that last NACKed a seq: seqs with the same round at the
    same level went out in one NACK.  Rounds grow with every
    {!fold_due}; 0 if the seq was never NACKed (or is not pursued). *)

val restart_all : t -> bool
(** Send every pursuit back to level 0, due; whether there was any. *)

val drop_level0 : t -> unit
(** The level-0 logger left the hierarchy: every pursuit moves one
    level down (level 0 stays 0). *)

val fold_due :
  t -> select:(seq -> 'a option) -> (level:int -> 'a list -> 'b -> 'b) -> 'b -> 'b
(** Collect the pursuits due for a NACK whose seq [select] keeps, count
    one attempt for each and clear their due flag, then fold over the
    groups, one per level.  [select] is called once per due pursuit. *)

val escalation_timers : Config.t -> seq list -> Io.action list
(** [K_nack_escalate] for every seq of a NACK just sent. *)

val escalate :
  t ->
  Config.t ->
  levels:int ->
  source:address ->
  give_up:(seq -> unit) ->
  seq ->
  Io.action list
(** One unanswered round for a pursued seq: retry, climb, ask the
    source, or abandon.  On abandon the pursuit is removed, [give_up]
    runs (the caller writes the loss off), and the escalation timer is
    cancelled with an [N_gave_up] notice. *)

val on_primary_is :
  t -> address list -> address -> address list * Io.action list
(** The source answered [Who_is_primary]: [logger] replaces the last
    level of the hierarchy and every pursuit is re-requested now. *)
