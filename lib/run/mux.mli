(** Many LBRM flows multiplexed onto the hosts of one simulated network.

    DIS runs thousands of fine-grained groups, "each containing a single
    data source" (§1), and the paper notes that "a single logging
    process may serve as the primary logger for one group and as the
    secondary logger for another" (§2.2.1, footnote 5).  This runtime
    makes that concrete: every datagram is an {!envelope} — a flow id in
    front of an ordinary message — and each host runs one sub-agent per
    flow, with timers and traffic namespaced by flow.

    Conventions: each flow's {!Lbrm.Config.t} must use multicast group
    ids unique to that flow (simplest: [group = 2 * flow],
    [discovery_group = 2 * flow + 1]); the flow id itself is the
    envelope tag. *)

type envelope = { flow : int; msg : Lbrm_wire.Message.t }

val wire_size : envelope -> int
(** Message wire size + 4 flow-id bytes. *)

type t
(** A multiplexed deployment over one simulated topology. *)

val create :
  engine:Lbrm_sim.Engine.t -> topo:Lbrm_sim.Topo.t -> trace:Lbrm_sim.Trace.t -> t

val net : t -> envelope Lbrm_sim.Net.t
val engine : t -> Lbrm_sim.Engine.t
val trace : t -> Lbrm_sim.Trace.t

val attach :
  t -> node:Lbrm_sim.Topo.node_id -> flow:int -> Handlers.t -> unit
(** Install a sub-agent for [flow] on a host.  A host may carry many
    flows; at most one sub-agent per (node, flow). *)

val join : t -> group:int -> node:Lbrm_sim.Topo.node_id -> unit

val perform :
  t -> node:Lbrm_sim.Topo.node_id -> flow:int -> Lbrm.Io.action list -> unit
(** Execute actions on behalf of a sub-agent (start/app sends). *)

val crash : t -> node:Lbrm_sim.Topo.node_id -> unit
(** Cancel every pending timer of every flow's sub-agent on the host —
    a crashed process loses its soft state for all the groups it
    serves. *)

val run : ?until:float -> t -> unit
val now : t -> float
