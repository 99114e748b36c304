(* The runtime layer itself: action execution semantics (timer re-arm,
   cancellation, Join/Leave), handler combination, and the canonical
   deployments' bookkeeping. *)

module Sim_runtime = Lbrm_run.Sim_runtime
module Mux = Lbrm_run.Mux
module Udp_runtime = Lbrm_run.Udp_runtime
module Handlers = Lbrm_run.Handlers
module Scenario = Lbrm_run.Scenario
module Engine = Lbrm_sim.Engine
module Net = Lbrm_sim.Net
module Builders = Lbrm_sim.Builders
module Trace = Lbrm_sim.Trace
module Message = Lbrm_wire.Message
module Io = Lbrm.Io

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

let mk_runtime () =
  let topo, _, hosts = Builders.lan ~hosts:3 () in
  let engine = Engine.create ~seed:71 () in
  let net = Net.create ~engine ~topo ~size_of:Message.wire_size () in
  let trace = Trace.create () in
  (Sim_runtime.create ~net ~trace (), hosts)

let null_handlers ?(on_timer = fun ~now:_ _ -> []) () =
  {
    Handlers.on_message = (fun ~now:_ ~src:_ _ -> []);
    on_timer;
    on_deliver = None;
    on_notice = None;
  }

let join_leave_actions () =
  let rt, hosts = mk_runtime () in
  let got = ref 0 in
  Sim_runtime.add_agent rt ~node:hosts.(0) (null_handlers ());
  Sim_runtime.add_agent rt ~node:hosts.(1)
    {
      (null_handlers ()) with
      Handlers.on_message = (fun ~now:_ ~src:_ _ -> incr got; []);
    };
  (* Agent 1 joins group 5 via an action, gets one multicast, leaves,
     misses the second. *)
  Sim_runtime.perform rt ~node:hosts.(1) [ Io.Join 5 ];
  Sim_runtime.perform rt ~node:hosts.(0)
    [ Io.Send (Io.To_group { group = 5; ttl = None }, Message.Who_is_primary) ];
  Sim_runtime.run rt;
  checki "received while joined" 1 !got;
  Sim_runtime.perform rt ~node:hosts.(1) [ Io.Leave 5 ];
  Sim_runtime.perform rt ~node:hosts.(0)
    [ Io.Send (Io.To_group { group = 5; ttl = None }, Message.Who_is_primary) ];
  Sim_runtime.run rt;
  checki "not received after leaving" 1 !got

let combined_handlers_merge () =
  let calls = ref [] in
  let mk tag =
    {
      Handlers.on_message =
        (fun ~now:_ ~src:_ _ ->
          calls := (tag ^ ".msg") :: !calls;
          []);
      on_timer =
        (fun ~now:_ _ ->
          calls := (tag ^ ".timer") :: !calls;
          []);
      on_deliver =
        Some
          (fun ~now:_ ~seq:_ ~payload:_ ~recovered:_ ->
            calls := (tag ^ ".deliver") :: !calls);
      on_notice =
        Some (fun ~now:_ _ -> calls := (tag ^ ".notice") :: !calls);
    }
  in
  let h = Handlers.combine (mk "a") (mk "b") in
  ignore (h.Handlers.on_message ~now:0. ~src:1 Message.Who_is_primary);
  ignore (h.Handlers.on_timer ~now:0. (Io.K_app "t"));
  (Option.get h.Handlers.on_deliver) ~now:0. ~seq:1 ~payload:"" ~recovered:false;
  (Option.get h.Handlers.on_notice) ~now:0. (Io.N_silence 1.);
  Alcotest.check
    (Alcotest.list Alcotest.string)
    "both sides saw every event"
    [ "a.msg"; "b.msg"; "a.timer"; "b.timer"; "a.deliver"; "b.deliver";
      "a.notice"; "b.notice" ]
    (List.rev !calls)

let trace_records_sends_and_deliveries () =
  let rt, hosts = mk_runtime () in
  Sim_runtime.add_agent rt ~node:hosts.(0) (null_handlers ());
  Sim_runtime.add_agent rt ~node:hosts.(1) (null_handlers ());
  Sim_runtime.perform rt ~node:hosts.(0)
    [
      Io.Send (Io.To_addr hosts.(1), Message.Nack { seqs = [ 1 ] });
      Io.Deliver { seq = 1; payload = "x"; recovered = true };
      Io.Notify (Io.N_gap [ 1; 2 ]);
    ];
  Sim_runtime.run rt;
  let trace = Sim_runtime.trace rt in
  checki "send counted by kind" 1 (Trace.get trace "sent.nack");
  checki "receive counted" 1 (Trace.get trace "recv.nack");
  checki "delivery counted" 1 (Trace.get trace "app.delivered");
  checki "recovered counted" 1 (Trace.get trace "app.recovered");
  checki "gap notice counted" 2 (Trace.get trace "loss.gaps")

let scenario_bookkeeping () =
  let d =
    Scenario.standard ~cfg:{ Lbrm.Config.default with stat_ack_enabled = false }
      ~sites:2 ~receivers_per_site:3 ()
  in
  checki "secondaries per site" 2 (Array.length d.secondaries);
  checki "receivers total" 6 (Array.length d.receivers);
  checki "site 1 receivers" 3 (List.length (Scenario.site_receivers d ~site:1));
  checkb "payload generator honours size" true
    (String.length (Scenario.payload_of_size 128 7) = 128);
  Scenario.drive_periodic d ~interval:1. ~count:3 ();
  Scenario.run d ~until:10.;
  checkb "delivered_everywhere tracks" true (Scenario.delivered_everywhere d 3);
  checkb "unknown seq not everywhere" false (Scenario.delivered_everywhere d 9)

(* --- one scripted agent through every backend ---------------------------- *)

(* A backend under test: two hosted agents (0 and 1), driven in script
   time units of [unit] seconds of the backend's own clock. *)
type rig = {
  unit : float;
  perform : int -> Io.action list -> unit;
  run : float -> unit; (* advance this many units *)
  crash : int -> unit;
}

type seen = {
  mutable timers : (float * Io.timer_key) list;
  mutable delivered : (int * string * bool) list;
  mutable notices : Io.notice list;
  mutable messages : int;
}

let scripted_agent seen =
  {
    Handlers.on_message =
      (fun ~now:_ ~src:_ _ ->
        seen.messages <- seen.messages + 1;
        [ Io.Deliver { seq = 9; payload = "m"; recovered = false } ]);
    on_timer =
      (fun ~now key ->
        seen.timers <- (now, key) :: seen.timers;
        []);
    on_deliver =
      Some
        (fun ~now:_ ~seq ~payload ~recovered ->
          seen.delivered <- (seq, payload, recovered) :: seen.delivered);
    on_notice = Some (fun ~now:_ n -> seen.notices <- n :: seen.notices);
  }

let conformance (make : Handlers.t array -> rig) =
  let a = { timers = []; delivered = []; notices = []; messages = 0 } in
  let b = { timers = []; delivered = []; notices = []; messages = 0 } in
  let rig = make [| scripted_agent a; scripted_agent b |] in
  let k name = Io.K_app name and u x = x *. rig.unit in
  rig.perform 0
    [
      Io.Set_timer (k "x", u 1.0);
      Io.Set_timer (k "x", u 2.0) (* re-arm replaces *);
      Io.Set_timer (k "y", u 0.5);
      Io.Cancel_timer (k "y");
      Io.Deliver { seq = 1; payload = "p"; recovered = true };
      Io.Notify (Io.N_gap [ 1; 2 ]);
    ];
  Alcotest.(check (list (triple int string bool)))
    "Deliver reaches on_deliver" [ (1, "p", true) ] a.delivered;
  checkb "Notify reaches on_notice" true (a.notices = [ Io.N_gap [ 1; 2 ] ]);
  rig.run 3.0;
  (match a.timers with
  | [ (at, Io.K_app "x") ] ->
      checkb "re-armed deadline" true (at >= 1.999 *. rig.unit)
  | _ -> Alcotest.fail "expected exactly one firing, of x");
  (* Join/Leave: agent 1 hears a group send only while joined; its
     reply actions run through the same dispatch. *)
  let mcast = Io.Send (Io.To_group { group = 5; ttl = None }, Message.Who_is_primary) in
  rig.perform 1 [ Io.Join 5 ];
  rig.perform 0 [ mcast ];
  rig.run 1.0;
  checki "received while joined" 1 b.messages;
  checkb "reply actions executed" true (b.delivered = [ (9, "m", false) ]);
  rig.perform 1 [ Io.Leave 5 ];
  rig.perform 0 [ mcast ];
  rig.run 1.0;
  checki "not received after leaving" 1 b.messages;
  (* A crash cancels every live timer. *)
  rig.perform 0 [ Io.Set_timer (k "z", u 0.5); Io.Set_timer (k "w", u 1.0) ];
  rig.crash 0;
  rig.run 2.0;
  checki "no timer fires after a crash" 1 (List.length a.timers)

let sim_rig handlers =
  let rt, hosts = mk_runtime () in
  Array.iteri (fun i h -> Sim_runtime.add_agent rt ~node:hosts.(i) h) handlers;
  {
    unit = 1.;
    perform = (fun i acts -> Sim_runtime.perform rt ~node:hosts.(i) acts);
    run =
      (fun units -> Sim_runtime.run rt ~until:(Sim_runtime.now rt +. units));
    crash = (fun i -> Sim_runtime.crash rt ~node:hosts.(i));
  }

let mux_rig handlers =
  let topo, _, hosts = Builders.lan ~hosts:3 () in
  let engine = Engine.create ~seed:71 () in
  let mux = Mux.create ~engine ~topo ~trace:(Trace.create ()) in
  Array.iteri (fun i h -> Mux.attach mux ~node:hosts.(i) ~flow:3 h) handlers;
  {
    unit = 1.;
    perform = (fun i acts -> Mux.perform mux ~node:hosts.(i) ~flow:3 acts);
    run = (fun units -> Mux.run mux ~until:(Mux.now mux +. units));
    crash = (fun i -> Mux.crash mux ~node:hosts.(i));
  }

(* Loopback sockets may be unavailable in a sandbox: skip, not fail. *)
let sockets_available () =
  match Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 with
  | s -> (
      match Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0)) with
      | () ->
          Unix.close s;
          true
      | exception Unix.Unix_error _ ->
          Unix.close s;
          false)
  | exception Unix.Unix_error _ -> false

(* Wall-clock backend: one script unit is 20 ms; closing the runtime is
   its crash (every agent's timers are cancelled). *)
let udp_rig handlers =
  let unit = 0.02 in
  let rt = Udp_runtime.create () in
  Array.iteri (fun i h -> Udp_runtime.add_agent rt ~port:(48700 + i) h) handlers;
  {
    unit;
    perform = (fun i acts -> Udp_runtime.perform rt ~port:(48700 + i) acts);
    run = (fun units -> Udp_runtime.run_for rt ~seconds:(units *. unit));
    crash = (fun _ -> Udp_runtime.close rt);
  }

let () =
  Alcotest.run "run"
    [
      ( "conformance",
        [
          Alcotest.test_case "sim backend" `Quick (fun () -> conformance sim_rig);
          Alcotest.test_case "mux backend" `Quick (fun () -> conformance mux_rig);
          Alcotest.test_case "udp backend" `Quick (fun () ->
              if not (sockets_available ()) then Alcotest.skip ();
              conformance udp_rig);
        ] );
      ( "sim-runtime",
        [
          Alcotest.test_case "join/leave actions" `Quick join_leave_actions;
          Alcotest.test_case "trace records activity" `Quick
            trace_records_sends_and_deliveries;
        ] );
      ( "handlers",
        [ Alcotest.test_case "combine merges" `Quick combined_handlers_merge ] );
      ( "scenario",
        [ Alcotest.test_case "bookkeeping" `Quick scenario_bookkeeping ] );
    ]
