module Net = Lbrm_sim.Net
module Engine = Lbrm_sim.Engine
module Trace = Lbrm_sim.Trace
module Metrics = Lbrm_util.Metrics
module Message = Lbrm_wire.Message
open Lbrm.Io

let record_notice trace notice =
  match notice with
  | N_gap seqs -> Trace.incr ~by:(List.length seqs) trace "loss.gaps"
  | N_silence _ -> Trace.incr trace "loss.silence"
  | N_recovered { latency; _ } ->
      Trace.incr trace "loss.recovered";
      Trace.observe trace "recovery_latency" latency
  | N_gave_up _ -> Trace.incr trace "loss.gave_up"
  | N_primary_suspected -> Trace.incr trace "failover.suspected"
  | N_new_primary _ -> Trace.incr trace "failover.promoted"
  | N_epoch _ -> Trace.incr trace "statack.epochs"
  | N_remulticast _ -> Trace.incr trace "statack.remulticast"
  | N_estimate n -> Trace.observe trace "statack.estimate" n
  | N_discovery _ -> Trace.incr trace "discovery.finished"
  | N_feedback { missing; _ } ->
      if missing > 0 then Trace.incr trace "statack.feedback_loss"

type node = Lbrm_sim.Topo.node_id

type t = {
  net : Message.t Net.t;
  trace : Trace.t;
  agents : (node, (node, Engine.timer) Driver.t) Hashtbl.t;
  with_metrics : bool;
  (* Per-node registries outlive agent replacement (crash/restart):
     the restarted process keeps accumulating into the same registry. *)
  node_metrics : (node, Metrics.t) Hashtbl.t;
  (* One backend serves every node; its counters are the shared trace
     plus, when enabled, the node's registry. *)
  backend : (node, Engine.timer) Driver.backend;
}

let backend ~net ~trace ~with_metrics ~node_metrics =
  let engine = Net.engine net in
  let count node name =
    if with_metrics then
      match Hashtbl.find_opt node_metrics node with
      | Some m -> Metrics.incr (Metrics.counter m name)
      | None -> ()
  in
  let count_kind prefix node msg =
    let name = prefix ^ Message.kind msg in
    Trace.incr trace name;
    count node name
  in
  {
    Driver.now = (fun () -> Engine.now engine);
    send =
      (fun node dest msg ->
        count_kind "sent." node msg;
        match dest with
        | To_addr addr -> Net.unicast net ~src:node ~dst:addr msg
        | To_group { group; ttl } -> Net.multicast net ?ttl ~src:node ~group msg);
    arm =
      (fun delay fire ->
        Engine.schedule_kind engine ~kind:Engine.kind_timer ~delay fire);
    cancel = Engine.cancel engine;
    join = (fun node group -> Net.join net ~group node);
    leave = (fun node group -> Net.leave net ~group node);
    received = count_kind "recv.";
    delivered =
      (fun node ~recovered ->
        Trace.incr trace "app.delivered";
        if recovered then Trace.incr trace "app.recovered";
        count node "app.delivered";
        if recovered then count node "app.recovered");
    noticed = (fun _ notice -> record_notice trace notice);
  }

let create ?(agent_metrics = false) ~net ~trace () =
  let node_metrics = Hashtbl.create 64 in
  {
    net;
    trace;
    agents = Hashtbl.create 64;
    with_metrics = agent_metrics;
    node_metrics;
    backend =
      backend ~net ~trace ~with_metrics:agent_metrics ~node_metrics;
  }

let register_metrics t node =
  if t.with_metrics && not (Hashtbl.mem t.node_metrics node) then
    Hashtbl.replace t.node_metrics node (Metrics.create ())

let agent_metrics t =
  Hashtbl.fold (fun node m acc -> (node, m) :: acc) t.node_metrics []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
let net t = t.net
let engine t = Net.engine t.net
let trace t = t.trace
let now t = Engine.now (engine t)
let join t ~group ~node = Net.join t.net ~group node

let perform t ~node actions =
  match Hashtbl.find_opt t.agents node with
  | None -> ()
  | Some driver -> Driver.perform driver actions

let add_agent t ~node handlers =
  assert (not (Hashtbl.mem t.agents node));
  register_metrics t node;
  let driver = Driver.create t.backend node handlers in
  Hashtbl.replace t.agents node driver;
  Net.set_handler t.net node (fun ~now:_ ~src msg ->
      Driver.on_message driver ~src msg)

let inject t ~node ~src msg =
  match Hashtbl.find_opt t.agents node with
  | None -> ()
  | Some driver -> Driver.on_message driver ~src msg

let crash t ~node =
  match Hashtbl.find_opt t.agents node with
  | None -> ()
  | Some driver -> Driver.crash driver

let replace_agent t ~node handlers =
  (match Hashtbl.find_opt t.agents node with
  | None -> ()
  | Some driver ->
      Driver.crash driver;
      Hashtbl.remove t.agents node);
  add_agent t ~node handlers

let run ?until t = Engine.run ?until (engine t)
