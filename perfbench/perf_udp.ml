(* udp_loopback: one Udp_runtime on 127.0.0.1 hosting the source, a
   primary logger, one secondary logger and 8 receivers, with 1%
   injected loss on every outgoing datagram.

   The load is a closed loop: the generator keeps at most [window]
   packets in flight, a packet leaving flight once every receiver has
   it.  A round sends [warmup] packets as part of set-up (sockets,
   peers and pools reach steady state), then times [packets] more, from
   the first timed send to the last, and drains untimed until every
   receiver has every packet. *)

module U = Lbrm_run.Udp_runtime
module H = Lbrm_run.Handlers
module Message = Lbrm_wire.Message
module Codec = Lbrm_wire.Codec
module C = Perf_check

let receivers = 8
let window = 2048
let warmup = 1000
let packets = 20_000
let loss = 0.01
let payload_bytes = 128
let burst = 64 (* most sends handed to the runtime per select pass *)

let cfg =
  {
    Lbrm.Config.default with
    stat_ack_enabled = false;
    h_min = 0.05;
    nack_delay = 0.01;
    nack_timeout = 0.15;
    deposit_timeout = 0.2;
  }

(* Ports: source, primary, secondary, then the receivers.  The block is
   picked from the process id and moved along if a port is taken. *)
let agents = 3 + receivers

let rec bind_all ~seed ~base ~attempts install =
  let rt = U.create ~loss ~seed () in
  match install rt base with
  | () -> rt
  | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) when attempts > 1 ->
      U.close rt;
      bind_all ~seed ~base:(base + agents) ~attempts:(attempts - 1) install

(* ---- wrapped handlers: site traffic and, when traced, machine time --- *)

type machine = Source | Logger | Receiver

let machine_label = function
  | Source -> "machines.source.s"
  | Logger -> "machines.logger.s"
  | Receiver -> "machines.receiver.s"

(* The deployment has two sides, as in Figure 1: the source and the
   primary logger in the WAN, the secondary logger and the receivers
   at one site.  Bytes of messages arriving across the two sides are
   what a tail circuit between them would carry. *)
type meter = {
  mutable tail_bytes : int;
  busy : float array;  (* seconds inside handlers, per machine *)
  mutable capture : Message.t list;  (* outgoing messages, traced only *)
  mutable captured : int;
}

let capture_max = 50_000

(* Traced rounds keep the datagrams the machines send, one entry per
   datagram (a group send fans out to every member but the sender), for
   the codec replay. *)
let capture meter ~slot actions =
  let keep m =
    if meter.captured < capture_max then begin
      meter.capture <- m :: meter.capture;
      meter.captured <- meter.captured + 1
    end
  in
  List.iter
    (function
      | Lbrm.Io.Send (Lbrm.Io.To_addr _, m) -> keep m
      | Lbrm.Io.Send (Lbrm.Io.To_group _, m) ->
          (* the data group is both loggers and the receivers; the
             source is not a member *)
          for _ = 1 to receivers + if slot = 0 then 2 else 1 do
            keep m
          done
      | _ -> ())
    actions

let charge meter slot t0 actions =
  meter.busy.(slot) <- meter.busy.(slot) +. (Perf_round.now () -. t0);
  capture meter ~slot actions;
  actions

let wrap meter ~traced ~machine ~site_side ~in_site (h : H.t) =
  let slot = match machine with Source -> 0 | Logger -> 1 | Receiver -> 2 in
  let timed f =
    if traced then begin
      let t0 = Perf_round.now () in
      charge meter slot t0 (f ())
    end
    else f ()
  in
  {
    h with
    H.on_message =
      (fun ~now ~src msg ->
        if in_site src <> site_side then
          meter.tail_bytes <- meter.tail_bytes + Message.wire_size msg;
        timed (fun () -> h.H.on_message ~now ~src msg));
    on_timer = (fun ~now key -> timed (fun () -> h.H.on_timer ~now key));
  }

(* ---- codec replay of the captured message mix ------------------------ *)

let codec_replay msgs =
  let msgs = Array.of_list msgs in
  let n = Array.length msgs in
  if n = 0 then (0., 0., 0.)
  else begin
    let buf = Bytes.create 65536 in
    let lens = Array.make n 0 in
    let reps = Stdlib.max 1 (200_000 / n) in
    let t0 = Perf_round.now () in
    for _ = 1 to reps do
      Array.iteri
        (fun i m ->
          match Codec.encode_at buf ~pos:0 ~limit:(Bytes.length buf) m with
          | Ok len -> lens.(i) <- len
          | Error _ -> lens.(i) <- -1)
        msgs
    done;
    let encode_ns = 1e9 *. (Perf_round.now () -. t0) /. float_of_int (reps * n) in
    let encoded =
      Array.map
        (fun m ->
          match Codec.encode m with Ok s -> Bytes.of_string s | Error _ -> Bytes.empty)
        msgs
    in
    let t0 = Perf_round.now () in
    for _ = 1 to reps do
      Array.iter (fun b -> ignore (Codec.decode_bytes b : (Message.t, Codec.error) result)) encoded
    done;
    let decode_ns = 1e9 *. (Perf_round.now () -. t0) /. float_of_int (reps * n) in
    let bytes = Array.fold_left (fun acc l -> acc + Stdlib.max 0 l) 0 lens in
    (encode_ns, decode_ns, float_of_int bytes /. float_of_int n)
  end

(* ---- one round ------------------------------------------------------- *)

let round ~seed ~index ~traced =
  let t0 = Perf_round.now () in
  let total = warmup + packets in
  (* Payload of seq s: its number in 8 bytes, then 120 seeded bytes. *)
  let rs = Random.State.make [| seed; 3; index |] in
  let seed = Hashtbl.hash (seed, 3, index) in
  let pool = Bytes.init 8192 (fun _ -> Char.chr (Random.State.int rs 256)) in
  let payloads =
    Array.init (total + 1) (fun s ->
        if s = 0 then ""
        else begin
          let b = Bytes.create payload_bytes in
          Bytes.set_int64_be b 0 (Int64.of_int s);
          Bytes.blit pool (Random.State.int rs (8192 - payload_bytes)) b 8 (payload_bytes - 8);
          Bytes.unsafe_to_string b
        end)
  in
  (* Loopback adds no propagation delay to bound latency by, and NACK
     batching lets a repair beat the NACK delay; nothing may arrive
     before it was sent. *)
  let min_latency _ ~recovered:_ = 0. in
  let check = C.create ~receivers ~payloads ~min_latency in
  let repair_service = C.Sample.create () in
  let have = Array.make (total + 1) 0 in
  let complete = ref 0 in
  let meter =
    { tail_bytes = 0; busy = Array.make 3 0.; capture = []; captured = 0 }
  in
  let source_ref = ref None and loggers_ref = ref [] and receivers_ref = ref [] in
  let install rt base =
    let src = base and primary = base + 1 and secondary = base + 2 in
    let in_site port = port >= secondary && port < base + agents in
    let add ~machine ~port h =
      U.add_agent rt ~port
        (wrap meter ~traced ~machine ~site_side:(in_site port) ~in_site h)
    in
    let source = Lbrm.Source.create cfg ~self:src ~primary () in
    let p =
      Lbrm.Logger.create cfg ~self:primary ~source:src ~rng:(Lbrm_util.Rng.create ~seed) ()
    in
    let s =
      Lbrm.Logger.create cfg ~self:secondary ~source:src ~parent:primary
        ~rng:(Lbrm_util.Rng.create ~seed:(seed + 1)) ()
    in
    add ~machine:Source ~port:src (H.of_source source);
    add ~machine:Logger ~port:primary (H.of_logger p);
    add ~machine:Logger ~port:secondary (H.of_logger s);
    let rs =
      List.init receivers (fun i ->
          let port = base + 3 + i in
          let r =
            Lbrm.Receiver.create cfg ~self:port ~source:src ~loggers:[ secondary; primary ]
          in
          let on_deliver ~now ~seq ~payload ~recovered =
            C.deliver check ~receiver:i ~seq ~payload ~recovered ~now;
            if seq >= 1 && seq <= total then begin
              have.(seq) <- have.(seq) + 1;
              if have.(seq) = receivers then incr complete
            end
          in
          let on_notice ~now:_ = function
            | Lbrm.Io.N_recovered { seq; latency } when seq > warmup ->
                C.Sample.add repair_service latency
            | _ -> ()
          in
          add ~machine:Receiver ~port (H.of_receiver ~on_deliver ~on_notice r);
          (r, port))
    in
    List.iter (fun port -> U.join rt ~group:cfg.Lbrm.Config.group ~port)
      (primary :: secondary :: List.map snd rs);
    (* The secondary answers the receivers' expanding-ring search for a
       nearby logger.  Loopback ignores TTL, so the primary, which a
       scoped search would not reach, stays out of the group. *)
    U.join rt ~group:cfg.Lbrm.Config.discovery_group ~port:secondary;
    source_ref := Some (source, src);
    loggers_ref := [ p; s ];
    receivers_ref := rs
  in
  let rt =
    bind_all ~seed ~base:(20_000 + (Unix.getpid () mod 2000 * 16)) ~attempts:8 install
  in
  let source, src =
    match !source_ref with Some x -> x | None -> failwith "udp_loopback: no source"
  in
  U.perform rt ~port:src (Lbrm.Source.start source ~now:(U.now rt));
  List.iter
    (fun (r, port) -> U.perform rt ~port (Lbrm.Receiver.start r ~now:(U.now rt)))
    !receivers_ref;
  (* Closed loop: send while fewer than [window] packets are in flight,
     until seq [last] is handed over. *)
  let next = ref 1 in
  let pump ~last =
    while !next <= last do
      let in_flight = !next - 1 - !complete in
      let n = Stdlib.min (Stdlib.min burst (window - in_flight)) (last + 1 - !next) in
      if n > 0 then begin
        let now = U.now rt in
        let t0 = Perf_round.now () in
        let actions =
          List.concat
            (List.init n (fun k ->
                 let seq = !next + k in
                 C.sent check ~seq ~now;
                 Lbrm.Source.send source ~now payloads.(seq)))
        in
        let actions = if traced then charge meter 0 t0 actions else actions in
        next := !next + n;
        U.perform rt ~port:src actions
      end;
      U.run_for rt ~seconds:0.0002
    done
  in
  (* The warm-up's repairs finish inside the timed phase; its latencies
     are left out. *)
  pump ~last:warmup;
  C.sample_from check (warmup + 1);
  let fl = float_of_int in
  let machine_counts () =
    Perf_round.machine_counts source ~loggers:!loggers_ref
      ~receivers:(List.map fst !receivers_ref)
  in
  let machines0 = machine_counts () in
  let st0 = U.stats rt in
  let tiers0 = Lbrm_run.Sockmsg.tx_tiers () in
  meter.tail_bytes <- 0;
  Array.fill meter.busy 0 3 0.;
  let delivered0 = check.C.deliveries in
  let setup_s = Perf_round.now () -. t0 in
  (* Timed: from the first timed send to the last.  The closed loop
     keeps deliveries in step with sends; the drain that follows waits
     mostly on repair timers and is not timed. *)
  let (), wall_s, cpu, minor_words, major_collections =
    Perf_round.timed (fun () -> pump ~last:total)
  in
  let deliveries = check.C.deliveries - delivered0 in
  let tail_bytes = meter.tail_bytes in
  let busy = Array.copy meter.busy in
  let machines1 = machine_counts () in
  let st = U.stats rt in
  let tiers1 = Lbrm_run.Sockmsg.tx_tiers () in
  let drain_until = U.now rt +. 30. in
  while !complete < total && U.now rt < drain_until do
    U.run_for rt ~seconds:0.001
  done;
  let g0, m0, s0 = tiers0 in
  let g1, m1, s1 = tiers1 in
  U.close rt;
  let encode_ns, decode_ns, bytes_per_datagram =
    if traced then codec_replay meter.capture else (0., 0., 0.)
  in
  let counts =
    List.map2
      (fun (k, v1) (_, v0) -> (k, v1 -. v0))
      machines1 machines0
    @ [
      ("sockmsg.tx_batches", fl (st.U.tx_batches - st0.U.tx_batches));
      ("sockmsg.tx_datagrams", fl (st.U.tx_datagrams - st0.U.tx_datagrams));
      ("sockmsg.rx_batches", fl (st.U.rx_batches - st0.U.rx_batches));
      ("sockmsg.rx_datagrams", fl (st.U.rx_datagrams - st0.U.rx_datagrams));
      ("sockmsg.tx.gso", fl (g1 - g0));
      ("sockmsg.tx.mmsg", fl (m1 - m0));
      ("sockmsg.tx.sendto", fl (s1 - s0));
      ("buf_pool.fallbacks", fl (st.U.pool_fallbacks - st0.U.pool_fallbacks));
      ("buf_pool.max_outstanding", fl st.U.pool_max_outstanding);
      ("udp_runtime.injected_drops", fl (st.U.dropped - st0.U.dropped));
    ]
  in
  let spans =
    if not traced then []
    else
      [
        (machine_label Source, busy.(0));
        (machine_label Logger, busy.(1));
        (machine_label Receiver, busy.(2));
        ("codec.encode_ns", encode_ns);
        ("codec.decode_ns", decode_ns);
        ("codec.bytes_per_datagram", bytes_per_datagram);
      ]
  in
  let errors =
    C.delivery_errors check
    @ C.zero ~what:"encode failures" (st.U.encode_failures - st0.U.encode_failures)
    @ C.positive ~what:"udp_runtime.injected_drops" (st.U.dropped - st0.U.dropped)
    @ C.positive ~what:"recovered deliveries" (C.Sample.count check.C.repair_lat)
    @ C.positive ~what:"first-transmission deliveries" (C.Sample.count check.C.first_lat)
    @ C.positive ~what:"N_recovered notices" (C.Sample.count repair_service)
  in
  let attempted = receivers * total in
  {
    Perf_round.setup_s;
    wall_s;
    cpu_user_s = cpu.Perf_round.user;
    cpu_sys_s = cpu.Perf_round.sys;
    deliveries;
    attempted;
    failed = C.missing check;
    errors;
    minor_words;
    major_collections;
    latency =
      [
        ("vt_repair_p50_s", C.Sample.percentile check.C.repair_lat 50.);
        ("vt_repair_p99_s", C.Sample.percentile check.C.repair_lat 99.);
        ("repair_p50_ms", 1e3 *. C.Sample.percentile repair_service 50.);
        ("delivery_p50_ms", 1e3 *. C.Sample.percentile check.C.first_lat 50.);
        ("delivery_p99_ms", 1e3 *. C.Sample.percentile check.C.first_lat 99.);
        ("tail_bytes_per_delivery", fl tail_bytes /. fl (Stdlib.max 1 deliveries));
      ];
    counts;
    spans;
  }
