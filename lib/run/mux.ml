module Net = Lbrm_sim.Net
module Engine = Lbrm_sim.Engine
module Trace = Lbrm_sim.Trace
module Message = Lbrm_wire.Message
open Lbrm.Io

type envelope = { flow : int; msg : Message.t }

let wire_size e = 4 + Message.wire_size e.msg

(* A sub-agent as the backend sees it. *)
type sub = { node : Lbrm_sim.Topo.node_id; flow : int }

type t = {
  net : envelope Net.t;
  trace : Trace.t;
  agents : (Lbrm_sim.Topo.node_id * int, (sub, Engine.timer) Driver.t) Hashtbl.t;
  hosts_wired : (Lbrm_sim.Topo.node_id, unit) Hashtbl.t;
  backend : (sub, Engine.timer) Driver.backend;
}

(* Every datagram carries its flow id; counters ride on the backend. *)
let backend net trace =
  let engine = Net.engine net in
  {
    Driver.now = (fun () -> Engine.now engine);
    send =
      (fun { node; flow } dest msg ->
        Trace.incr trace ("sent." ^ Message.kind msg);
        let env = { flow; msg } in
        match dest with
        | To_addr addr -> Net.unicast net ~src:node ~dst:addr env
        | To_group { group; ttl } -> Net.multicast net ?ttl ~src:node ~group env);
    arm = (fun delay fire -> Engine.schedule engine ~delay fire);
    cancel = Engine.cancel engine;
    join = (fun { node; _ } group -> Net.join net ~group node);
    leave = (fun { node; _ } group -> Net.leave net ~group node);
    received = (fun _ msg -> Trace.incr trace ("recv." ^ Message.kind msg));
    delivered = (fun _ ~recovered:_ -> Trace.incr trace "app.delivered");
    noticed =
      (fun _ -> function
        | N_recovered { latency; _ } ->
            Trace.incr trace "loss.recovered";
            Trace.observe trace "recovery_latency" latency
        | N_gap seqs -> Trace.incr ~by:(List.length seqs) trace "loss.gaps"
        | _ -> ());
  }

let create ~engine ~topo ~trace =
  let net = Net.create ~engine ~topo ~size_of:wire_size () in
  {
    net;
    trace;
    agents = Hashtbl.create 64;
    hosts_wired = Hashtbl.create 64;
    backend = backend net trace;
  }

let net t = t.net
let engine t = Net.engine t.net
let trace t = t.trace
let now t = Engine.now (engine t)
let join t ~group ~node = Net.join t.net ~group node

let dispatch t node ~src (env : envelope) =
  match Hashtbl.find_opt t.agents (node, env.flow) with
  | None -> () (* not participating in that flow *)
  | Some driver -> Driver.on_message driver ~src env.msg

let attach t ~node ~flow handlers =
  assert (not (Hashtbl.mem t.agents (node, flow)));
  Hashtbl.replace t.agents (node, flow)
    (Driver.create t.backend { node; flow } handlers);
  if not (Hashtbl.mem t.hosts_wired node) then begin
    Hashtbl.replace t.hosts_wired node ();
    Net.set_handler t.net node (fun ~now:_ ~src env -> dispatch t node ~src env)
  end

let perform t ~node ~flow actions =
  match Hashtbl.find_opt t.agents (node, flow) with
  | None -> ()
  | Some driver -> Driver.perform driver actions

let crash t ~node =
  Hashtbl.iter
    (fun (n, _) driver -> if n = node then Driver.crash driver)
    t.agents

let run ?until t = Engine.run ?until (engine t)
