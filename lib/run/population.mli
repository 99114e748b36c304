(** Protocol adapter for an aggregate receiver population.

    Wraps a {!Lbrm_sim.Site_population} statistical model in the wire
    protocol: one agent stands in for the whole site population on the
    data group, with {!Lbrm.Receiver}'s recovery semantics plus
    multiplicity —

    - gap detection via sequence gaps and heartbeat [note_exists],
      MaxIT silence watchdog with latest queries;
    - batched NACKs on the receiver's own ladder, {!Lbrm.Pursuit}
      (retry, level escalation, [Who_is_primary], abandon), per
      {e distinct} gap, not per modeled receiver; to preserve the
      logger's unicast-vs-site-remulticast decision (§2.2.1's request
      threshold), a gap missed by [m] receivers is represented by
      [min m remcast_request_threshold] wire NACKs per round;
    - every arriving payload is offered to the model, which samples how
      many receivers (and which tracers) get it; sampled tracer
      outcomes are handed to [on_feed] so the embedding can inject them
      into real receiver machines.

    Deliberate simplifications, documented here and in DESIGN.md: the
    population pins its logger hierarchy (no expanding-ring
    rediscovery — escalation past a dead secondary reaches the primary
    instead) and does not subscribe to the §7 retransmission channel.
    Statistical acknowledgement needs no adaptation: designated ackers
    are secondary loggers, which stay real machines. *)

type address = Lbrm_wire.Message.address

type t

val create :
  ?sink:Lbrm.Trace.sink ->
  cfg:Lbrm.Config.t ->
  self:address ->
  source:address ->
  loggers:address list ->
  model:Lbrm_sim.Site_population.t ->
  on_feed:(tracer:int -> now:float -> src:address -> Lbrm_wire.Message.t -> unit) ->
  unit ->
  t
(** [loggers] is the recovery hierarchy, nearest first (non-empty).
    [on_feed ~tracer] fires, during message handling, once per tracer
    the model sampled as receiving the payload being processed. *)

val handle_message :
  t -> now:float -> src:address -> Lbrm_wire.Message.t -> Lbrm.Io.action list

val handle_timer : t -> now:float -> Lbrm.Io.timer_key -> Lbrm.Io.action list

val start : t -> now:float -> Lbrm.Io.action list
(** Arm the MaxIT silence watchdog. *)

val handlers :
  ?on_notice:(now:float -> Lbrm.Io.notice -> unit) -> t -> Handlers.t

val model : t -> Lbrm_sim.Site_population.t
val size : t -> int
val missing : t -> int  (** receivers-still-missing over live gaps *)

val delivered : t -> int  (** aggregate receiver-packet deliveries *)

val recovered : t -> int
val gave_up : t -> int

val nacks_sent : t -> int  (** wire NACK messages *)

val nacks_represented : t -> int
(** Receiver-NACKs the wire messages stood for (multiplicity-weighted:
    what [size] individual receivers would have sent in round one). *)
