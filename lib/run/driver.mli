(** The one interpreter of {!Lbrm.Io.action}.

    Every runtime — the simulator ({!Sim_runtime}), the flow
    multiplexer ({!Mux}) and real sockets ({!Udp_runtime}) — hosts its
    agents through this module.  The driver owns what is the same
    everywhere: the per-agent timer table (re-arming a live key
    replaces it, [Cancel_timer] and {!crash} cancel), [Deliver]/[Notify]
    dispatch to the agent's callbacks, and the message/timer → actions
    loop.  A runtime supplies only a {!backend}: its clock, its
    transport, its timer service and its accounting, so the driver
    never knows which runtime it serves. *)

type ('ctx, 'h) backend = {
  now : unit -> float;
  send : 'ctx -> Lbrm.Io.dest -> Lbrm_wire.Message.t -> unit;
  arm : float -> (unit -> unit) -> 'h;
      (** [arm delay fire] schedules [fire] after [delay] seconds and
          returns a handle for {!field-cancel} *)
  cancel : 'h -> unit;  (** never called on a handle that already fired *)
  join : 'ctx -> int -> unit;
  leave : 'ctx -> int -> unit;
  received : 'ctx -> Lbrm_wire.Message.t -> unit;
      (** accounting, before the agent sees an arriving message *)
  delivered : 'ctx -> recovered:bool -> unit;  (** … before [Deliver] *)
  noticed : 'ctx -> Lbrm.Io.notice -> unit;  (** … before [Notify] *)
}
(** A runtime's services.  ['ctx] names the hosted agent to them (a
    node, a flow, a socket), so one backend can serve every agent of a
    runtime; ['h] is the runtime's timer handle. *)

type ('ctx, 'h) t
(** One hosted agent: its backend and context, handlers and live
    timers. *)

val create : ('ctx, 'h) backend -> 'ctx -> Handlers.t -> ('ctx, 'h) t

val perform : ('ctx, 'h) t -> Lbrm.Io.action list -> unit
(** Execute actions in order on behalf of the agent. *)

val on_message :
  ('ctx, 'h) t -> src:Lbrm_wire.Message.address -> Lbrm_wire.Message.t -> unit
(** Hand an arriving message to the agent and execute its reply. *)

val crash : ('ctx, 'h) t -> unit
(** Cancel every live timer: the agent loses its soft state. *)
