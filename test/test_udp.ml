(* The real-socket runtime: LBRM agents over loopback UDP datagrams.
   These tests bind actual sockets and run for wall-clock fractions of a
   second; loss is injected at the send hook (loopback never drops). *)

module U = Lbrm_run.Udp_runtime
module H = Lbrm_run.Handlers

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

(* Sandboxes without loopback sockets skip (not fail) every test here:
   socket availability is an environment fact, not a regression. *)
let sockets_available =
  lazy
    (match Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 with
    | s -> (
        match Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0)) with
        | () ->
            Unix.close s;
            true
        | exception Unix.Unix_error _ ->
            Unix.close s;
            false)
    | exception Unix.Unix_error _ -> false)

let require_sockets () =
  if not (Lazy.force sockets_available) then Alcotest.skip ()

(* Small heartbeat intervals so recovery fits in a short wall-clock run. *)
let cfg =
  {
    Lbrm.Config.default with
    stat_ack_enabled = false;
    h_min = 0.05;
    nack_delay = 0.01;
    nack_timeout = 0.15;
    deposit_timeout = 0.2;
  }

type session = {
  rt : U.t;
  source : Lbrm.Source.t;
  src_port : int;
  receivers : (Lbrm.Receiver.t * int) list;
}

let make_session ?(cfg = cfg) ?use_mmsg ?suspect_after ?dead_after ~base_port
    ~loss ~receiver_count () =
  let rt = U.create ~loss ~seed:3 ?use_mmsg ?suspect_after ?dead_after () in
  let src_port = base_port in
  let primary_port = base_port + 1 in
  let secondary_port = base_port + 2 in
  let source = Lbrm.Source.create cfg ~self:src_port ~primary:primary_port () in
  let primary =
    Lbrm.Logger.create cfg ~self:primary_port ~source:src_port
      ~rng:(Lbrm_util.Rng.create ~seed:1) ()
  in
  let secondary =
    Lbrm.Logger.create cfg ~self:secondary_port ~source:src_port
      ~parent:primary_port
      ~rng:(Lbrm_util.Rng.create ~seed:2) ()
  in
  U.add_agent rt ~port:src_port (H.of_source source);
  U.add_agent rt ~port:primary_port (H.of_logger primary);
  U.add_agent rt ~port:secondary_port (H.of_logger secondary);
  let receivers =
    List.init receiver_count (fun i ->
        let port = base_port + 3 + i in
        let r =
          Lbrm.Receiver.create cfg ~self:port ~source:src_port
            ~loggers:[ secondary_port; primary_port ]
        in
        U.add_agent rt ~port (H.of_receiver r);
        (r, port))
  in
  let group = cfg.group in
  U.join rt ~group ~port:primary_port;
  U.join rt ~group ~port:secondary_port;
  List.iter (fun (_, p) -> U.join rt ~group ~port:p) receivers;
  U.perform rt ~port:src_port (Lbrm.Source.start source ~now:(U.now rt));
  List.iter
    (fun (r, port) -> U.perform rt ~port (Lbrm.Receiver.start r ~now:(U.now rt)))
    receivers;
  { rt; source; src_port; receivers }

let send s payload =
  U.perform s.rt ~port:s.src_port
    (Lbrm.Source.send s.source ~now:(U.now s.rt) payload)

let lossless_udp () =
  require_sockets ();
  let s = make_session ~base_port:48100 ~loss:0. ~receiver_count:3 () in
  for i = 1 to 5 do
    send s (Printf.sprintf "udp-%d" i);
    U.run_for s.rt ~seconds:0.03
  done;
  U.run_for s.rt ~seconds:0.3;
  List.iter
    (fun (r, _) -> checki "all delivered" 5 (Lbrm.Receiver.delivered r))
    s.receivers;
  checkb "no drops injected" true (U.datagrams_dropped s.rt = 0);
  U.close s.rt

let lossy_udp_recovers () =
  require_sockets ();
  let s = make_session ~base_port:48200 ~loss:0.3 ~receiver_count:3 () in
  for i = 1 to 8 do
    send s (Printf.sprintf "udp-%d" i);
    U.run_for s.rt ~seconds:0.05
  done;
  (* Give loss detection (heartbeats) and NACK service time to finish. *)
  U.run_for s.rt ~seconds:1.5;
  List.iter
    (fun (r, port) ->
      checki (Printf.sprintf "receiver %d complete" port) 8
        (Lbrm.Receiver.delivered r))
    s.receivers;
  checkb "losses were actually injected" true (U.datagrams_dropped s.rt > 0);
  checkb "recovery actually happened" true
    (List.exists (fun (r, _) -> Lbrm.Receiver.recovered r > 0) s.receivers);
  U.close s.rt

let fallback_path_recovers () =
  require_sockets ();
  (* Same lossy scenario, forced onto the portable per-datagram
     sendto/recvfrom path: recovery must not depend on the stubs.  The
     retry limit is raised so an unlucky loss pattern cannot make a
     receiver abandon a pursuit (give-up is legitimate protocol
     behaviour at the default limit, but this test asserts completion). *)
  let cfg = { cfg with nack_retry_limit = 20 } in
  let s =
    make_session ~cfg ~use_mmsg:false ~base_port:48400 ~loss:0.3
      ~receiver_count:2 ()
  in
  checkb "portable path active" false (U.mmsg_active s.rt);
  for i = 1 to 5 do
    send s (Printf.sprintf "fb-%d" i);
    U.run_for s.rt ~seconds:0.05
  done;
  (* Settle until complete (bounded): recovery of a trailing loss can
     need a couple of heartbeat rounds under wall-clock scheduling. *)
  let complete () =
    List.for_all (fun (r, _) -> Lbrm.Receiver.delivered r = 5) s.receivers
  in
  let deadline = U.now s.rt +. 6.0 in
  while (not (complete ())) && U.now s.rt < deadline do
    U.run_for s.rt ~seconds:0.2
  done;
  List.iter
    (fun (r, port) ->
      checki (Printf.sprintf "receiver %d complete" port) 5
        (Lbrm.Receiver.delivered r))
    s.receivers;
  U.close s.rt

let peer_states_follow_traffic () =
  require_sockets ();
  (* Liveness thresholds tightened far below the heartbeat interval:
     traffic keeps everyone Active; stopping the world decays peers to
     Suspect/Dead; fresh datagrams revive them. *)
  let module P = Lbrm_run.Peer_manager in
  let s =
    make_session ~suspect_after:0.25 ~dead_after:0.7 ~base_port:48500 ~loss:0.
      ~receiver_count:2 ()
  in
  for i = 1 to 3 do
    send s (Printf.sprintf "live-%d" i);
    U.run_for s.rt ~seconds:0.05
  done;
  let pm = U.peers s.rt in
  (* Peers that transmit (source, loggers) are Active; receivers stay
     silent by design — receiver-reliability means no ACK traffic — so
     they are registered but never promoted past Connecting. *)
  checkb "source active" true (P.state pm ~port:s.src_port = Some P.Active);
  checkb "primary logger active" true
    (P.state pm ~port:(s.src_port + 1) = Some P.Active);
  List.iter
    (fun (_, port) ->
      Alcotest.(check bool)
        (Printf.sprintf "silent receiver %d registered, not active" port)
        true
        (P.state pm ~port = Some P.Connecting))
    s.receivers;
  (* Source heartbeats stop reaching anyone: sleep out the dead
     threshold without running the loop, then let one sweep observe
     the silence.  (run_for ticks internally.) *)
  Unix.sleepf 0.8;
  U.run_for s.rt ~seconds:0.05;
  let _, _, suspect, dead = P.counts pm in
  checkb "silence decayed peers" true (suspect + dead > 0);
  (* Traffic revives: transitions are also mirrored into runtime
     metrics by the on_transition hook. *)
  send s "revive";
  U.run_for s.rt ~seconds:0.3;
  checkb "source revived" true (P.state pm ~port:s.src_port = Some P.Active);
  let m = U.runtime_metrics s.rt in
  checkb "transitions surfaced as metrics" true
    (Lbrm_util.Metrics.value (Lbrm_util.Metrics.counter m "peer.to_active") > 0);
  U.close s.rt

let encode_failure_is_not_loss () =
  require_sockets ();
  (* An unencodable message (over-long NACK list) must land in the
     encode-failure counter and tx.encode_failed metric — never in
     [dropped], which is reserved for injected loss. *)
  let rt = U.create () in
  let handlers =
    {
      H.on_message = (fun ~now:_ ~src:_ _ -> []);
      on_timer = (fun ~now:_ _ -> []);
      on_deliver = None;
      on_notice = None;
    }
  in
  U.add_agent rt ~port:48600 handlers;
  U.add_agent rt ~port:48601 handlers;
  let too_long = List.init 65537 (fun i -> i) in
  U.perform rt ~port:48600
    [
      Lbrm.Io.Send (Lbrm.Io.To_addr 48601, Lbrm_wire.Message.Nack { seqs = too_long });
      Lbrm.Io.Send
        (Lbrm.Io.To_addr 48601, Lbrm_wire.Message.Replica_ack { seq = 1 });
    ];
  U.run_for rt ~seconds:0.05;
  checki "encode failure counted" 1 (U.encode_failures rt);
  checki "not counted as loss" 0 (U.datagrams_dropped rt);
  checki "valid sibling still sent" 1 (U.datagrams_sent rt);
  let m = U.runtime_metrics rt in
  checki "tx.encode_failed metric" 1
    (Lbrm_util.Metrics.value (Lbrm_util.Metrics.counter m "tx.encode_failed"));
  U.close rt

let () =
  Alcotest.run "udp"
    [
      ( "udp-runtime",
        [
          Alcotest.test_case "lossless delivery" `Quick lossless_udp;
          Alcotest.test_case "recovery under 30% loss" `Quick
            lossy_udp_recovers;
          Alcotest.test_case "recovery on the portable fallback" `Quick
            fallback_path_recovers;
          Alcotest.test_case "peer states follow traffic" `Quick
            peer_states_follow_traffic;
          Alcotest.test_case "encode failure is not loss" `Quick
            encode_failure_is_not_loss;
        ] );
    ]
