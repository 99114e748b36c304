(* Multi-flow multiplexing: one logging process serving several groups
   in different roles (§2.2.1 footnote 5). *)

module Mux = Lbrm_run.Mux
module H = Lbrm_run.Handlers
module Engine = Lbrm_sim.Engine
module Builders = Lbrm_sim.Builders
module Topo = Lbrm_sim.Topo
module Loss = Lbrm_sim.Loss
module Trace = Lbrm_sim.Trace
module Rng = Lbrm_util.Rng

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

(* Two flows across two sites.  The host [shared] is simultaneously the
   *secondary* logger of flow 1 and the *primary* logger of flow 2. *)
let dual_role_logger () =
  let cfg_of flow =
    {
      Lbrm.Config.default with
      stat_ack_enabled = false;
      group = 2 * flow;
      discovery_group = (2 * flow) + 1;
    }
  in
  let cfg1 = cfg_of 1 and cfg2 = cfg_of 2 in
  let wan = Builders.dis_wan ~sites:2 ~hosts_per_site:5 () in
  let engine = Engine.create ~seed:61 () in
  let trace = Trace.create () in
  let mux = Mux.create ~engine ~topo:wan.topo ~trace in
  let rng = Rng.create ~seed:5 in
  let shared = Builders.host wan ~site:1 0 in

  (* Flow 1: source and primary at site 0; [shared] is its site-1
     secondary; receivers at site 1. *)
  let src1 = Builders.host wan ~site:0 1 in
  let prim1 = Builders.host wan ~site:0 2 in
  let source1 = Lbrm.Source.create cfg1 ~self:src1 ~primary:prim1 () in
  let primary1 =
    Lbrm.Logger.create cfg1 ~self:prim1 ~source:src1 ~rng:(Rng.split rng) ()
  in
  let secondary1 =
    Lbrm.Logger.create cfg1 ~self:shared ~source:src1 ~parent:prim1
      ~rng:(Rng.split rng) ()
  in
  let recv1 =
    List.map
      (fun i ->
        let node = Builders.host wan ~site:1 i in
        ( Lbrm.Receiver.create cfg1 ~self:node ~source:src1
            ~loggers:[ shared; prim1 ],
          node ))
      [ 3; 4 ]
  in

  (* Flow 2: source at site 1; [shared] is its PRIMARY; secondary at
     site 0 serving site-0 receivers. *)
  let src2 = Builders.host wan ~site:1 1 in
  let sec2 = Builders.host wan ~site:0 0 in
  let source2 = Lbrm.Source.create cfg2 ~self:src2 ~primary:shared () in
  let primary2 =
    Lbrm.Logger.create cfg2 ~self:shared ~source:src2 ~rng:(Rng.split rng) ()
  in
  let secondary2 =
    Lbrm.Logger.create cfg2 ~self:sec2 ~source:src2 ~parent:shared
      ~rng:(Rng.split rng) ()
  in
  let recv2 =
    List.map
      (fun i ->
        let node = Builders.host wan ~site:0 i in
        ( Lbrm.Receiver.create cfg2 ~self:node ~source:src2
            ~loggers:[ sec2; shared ],
          node ))
      [ 3; 4 ]
  in

  (* Wire everything up. *)
  Mux.attach mux ~node:src1 ~flow:1 (H.of_source source1);
  Mux.attach mux ~node:prim1 ~flow:1 (H.of_logger primary1);
  Mux.attach mux ~node:shared ~flow:1 (H.of_logger secondary1);
  List.iter
    (fun (r, node) -> Mux.attach mux ~node ~flow:1 (H.of_receiver r))
    recv1;
  Mux.attach mux ~node:src2 ~flow:2 (H.of_source source2);
  Mux.attach mux ~node:shared ~flow:2 (H.of_logger primary2);
  Mux.attach mux ~node:sec2 ~flow:2 (H.of_logger secondary2);
  List.iter
    (fun (r, node) -> Mux.attach mux ~node ~flow:2 (H.of_receiver r))
    recv2;
  List.iter
    (fun node -> Mux.join mux ~group:cfg1.group ~node)
    (prim1 :: shared :: List.map snd recv1);
  List.iter
    (fun node -> Mux.join mux ~group:cfg2.group ~node)
    (shared :: sec2 :: List.map snd recv2);
  Mux.perform mux ~node:src1 ~flow:1 (Lbrm.Source.start source1 ~now:0.);
  Mux.perform mux ~node:src2 ~flow:2 (Lbrm.Source.start source2 ~now:0.);
  List.iter
    (fun (r, node) ->
      Mux.perform mux ~node ~flow:1 (Lbrm.Receiver.start r ~now:0.))
    recv1;
  List.iter
    (fun (r, node) ->
      Mux.perform mux ~node ~flow:2 (Lbrm.Receiver.start r ~now:0.))
    recv2;

  (* Flow 1's receivers sit behind site 1's tail: break it briefly so
     the shared host serves repairs as flow-1 secondary.  Flow 2 data
     flows the other way (site 1 -> site 0). *)
  Topo.set_link_loss wan.sites.(1).Builders.tail_down
    (Loss.burst_windows [ (1.9, 2.1) ]);
  for i = 1 to 6 do
    ignore
      (Engine.schedule engine ~delay:(float_of_int i) (fun () ->
           Mux.perform mux ~node:src1 ~flow:1
             (Lbrm.Source.send source1 ~now:(Engine.now engine)
                (Printf.sprintf "flow1-%d" i));
           Mux.perform mux ~node:src2 ~flow:2
             (Lbrm.Source.send source2 ~now:(Engine.now engine)
                (Printf.sprintf "flow2-%d" i))))
  done;
  Mux.run ~until:30. mux;

  (* Both flows complete. *)
  List.iter
    (fun (r, _) -> checki "flow1 receiver complete" 6 (Lbrm.Receiver.delivered r))
    recv1;
  List.iter
    (fun (r, _) -> checki "flow2 receiver complete" 6 (Lbrm.Receiver.delivered r))
    recv2;
  (* The shared host really played both roles. *)
  checkb "shared host is flow-2 primary" true (Lbrm.Logger.is_primary primary2);
  checkb "shared host is flow-1 secondary" false
    (Lbrm.Logger.is_primary secondary1);
  checki "flow-2 primary logged all deposits" 6
    (Lbrm.Log_store.count (Lbrm.Logger.store primary2));
  checkb "flow-1 secondary served repairs" true
    (Lbrm.Logger.requests_served secondary1 > 0);
  (* Flow isolation: flow-1's secondary never logged flow-2 data. *)
  checkb "no cross-flow contamination" true
    (Lbrm.Log_store.count (Lbrm.Logger.store secondary1) = 6)

let () =
  Alcotest.run "mux"
    [
      ( "mux",
        [
          Alcotest.test_case "dual-role logging process" `Quick
            dual_role_logger;
        ] );
    ]
