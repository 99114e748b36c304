module Codec = Lbrm_wire.Codec
module Message = Lbrm_wire.Message
module Heap = Lbrm_util.Heap
module Metrics = Lbrm_util.Metrics
module Rng = Lbrm_util.Rng
module Trace = Lbrm.Trace
open Lbrm.Io

(* An agent's transport side; its timers and callbacks live in its
   driver. *)
type agent = {
  port : int;
  socket : Unix.file_descr;
  metrics : Metrics.t;
  (* kind -> interned counter, so the per-datagram accounting path never
     builds a "sent.<kind>" string *)
  sent_kind : (string, Metrics.counter) Hashtbl.t;
  recv_kind : (string, Metrics.counter) Hashtbl.t;
}

type hosted = {
  agent : agent;
  driver : (agent, (unit -> unit) Heap.handle) Driver.t;
}

type stats = {
  sent : int;
  dropped : int;
  encode_failures : int;
  oversize : int;
  tx_batches : int;
  tx_datagrams : int;
  rx_batches : int;
  rx_datagrams : int;
  rx_truncated : int;
  pool_leases : int;
  pool_fallbacks : int;
  pool_max_outstanding : int;
}

type t = {
  ip : int; (* host-order IPv4 of bind_ip for the sendmmsg stub *)
  loss : float;
  rng : Rng.t;
  started : float; (* monotonic epoch *)
  use_mmsg : bool;
  use_gso : bool;
  batch : int;
  pool : Buf_pool.t;
  region : Bytes.t; (* = Buf_pool.region pool *)
  peers : Peer_manager.t;
  sink : Trace.sink;
  runtime_metrics : Metrics.t;
  agents : (int, hosted) Hashtbl.t;
  by_socket : (Unix.file_descr, hosted) Hashtbl.t;
  timer_heap : (unit -> unit) Heap.t; (* driver timers at mono deadline *)
  sockaddr_of : int -> Unix.sockaddr; (* cached ADDR_INET per port *)
  (* Transmit stage: up to [batch] encoded datagrams (pooled slots, all
     bound to [tx_fd]'s socket) flushed in one sendmmsg. *)
  mutable tx_fd : Unix.file_descr; (* meaningful iff tx_count > 0 *)
  tx_bufs : Buf_pool.buf array;
  tx_offs : int array;
  tx_lens : int array;
  tx_ports : int array;
  mutable tx_count : int;
  (* Receive ring: [batch] slots leased once at create and scattered
     into by every recvmmsg; decoded views alias them until the next
     drain refills. *)
  rx_offs : int array;
  rx_lens : int array;
  rx_ports : int array;
  mutable sent : int;
  mutable dropped : int;
  mutable encode_failures : int;
  mutable oversize : int;
  mutable tx_batches : int;
  mutable tx_datagrams : int;
  mutable rx_batches : int;
  mutable rx_datagrams : int;
  mutable rx_truncated : int;
  wbuf : Codec.Writer.t; (* growable scratch for oversize messages *)
}

let mono_now () = Sockmsg.monotonic_now ()

let create ?(bind_ip = "127.0.0.1") ?(loss = 0.) ?(seed = 1) ?(batch = 64)
    ?(pool_slots = 256) ?(slot_size = 2048) ?(use_mmsg = true) ?(use_gso = true)
    ?(sink = Trace.null ()) ?suspect_after ?dead_after () =
  let batch = max 1 (min batch Sockmsg.batch_max) in
  (* The receive ring owns [batch] slots for the process lifetime and
     the transmit stage leases up to [batch] more, so the pool must
     always have that many plus headroom for application retainers. *)
  let pool_slots = max pool_slots ((2 * batch) + 8) in
  let pool = Buf_pool.create ~slots:pool_slots ~slot_size () in
  let started = mono_now () in
  let ip, ip_known =
    match Sockmsg.ipv4_of_string bind_ip with
    | Some ip -> (ip, true)
    | None -> (0, false)
  in
  let runtime_metrics = Metrics.create () in
  let peers =
    Peer_manager.create ?suspect_after ?dead_after
      ~on_transition:(fun ~port ~before ~after ->
        Metrics.incr
          (Metrics.counter runtime_metrics
             ("peer.to_" ^ Peer_manager.state_label after));
        if Trace.is_on sink then
          Trace.emit sink
            ~at:(mono_now () -. started)
            ~node:port
            (Trace.Peer_state
               {
                 peer = port;
                 before = Peer_manager.state_label before;
                 after = Peer_manager.state_label after;
               }))
      ()
  in
  let addr_cache = Hashtbl.create 64 in
  let sockaddr_of port =
    try Hashtbl.find addr_cache port
    with Not_found ->
      let a = Unix.ADDR_INET (Unix.inet_addr_of_string bind_ip, port) in
      Hashtbl.add addr_cache port a;
      a
  in
  let rx_bufs =
    Array.init batch (fun _ ->
        (Buf_pool.lease pool
        [@lint.owns "rx ring slot, held for the runtime's lifetime"]))
  in
  assert (Array.for_all Buf_pool.pooled rx_bufs);
  (* Seed value for the stage arrays; only indices < tx_count are live. *)
  let[@lint.owns "seed value for the tx stage arrays; released right here"] b0 =
    Buf_pool.lease pool
  in
  let tx_bufs = Array.make batch b0 in
  Buf_pool.release pool b0;
  {
    ip;
    loss;
    rng = Rng.create ~seed;
    started;
    use_mmsg = use_mmsg && Sockmsg.mmsg_available && ip_known;
    use_gso;
    batch;
    pool;
    region = Buf_pool.region pool;
    peers;
    sink;
    runtime_metrics;
    agents = Hashtbl.create 16;
    by_socket = Hashtbl.create 16;
    timer_heap = Heap.create ~dummy:ignore;
    sockaddr_of;
    tx_fd = Unix.stdin;
    tx_bufs;
    tx_offs = Array.make batch 0;
    tx_lens = Array.make batch 0;
    tx_ports = Array.make batch 0;
    tx_count = 0;
    rx_offs = Array.map (fun b -> b.Buf_pool.off) rx_bufs;
    rx_lens = Array.make batch 0;
    rx_ports = Array.make batch 0;
    sent = 0;
    dropped = 0;
    encode_failures = 0;
    oversize = 0;
    tx_batches = 0;
    tx_datagrams = 0;
    rx_batches = 0;
    rx_datagrams = 0;
    rx_truncated = 0;
    wbuf = Codec.Writer.create ~size:4096 ();
  }

let now t = mono_now () -. t.started
let mmsg_active t = t.use_mmsg
let gso_active t = t.use_mmsg && t.use_gso && Sockmsg.gso_available ()
let peers t = t.peers
let runtime_metrics t = t.runtime_metrics

let join t ~group ~port = Peer_manager.join t.peers ~group ~port ~now:(now t)
let leave t ~group ~port = Peer_manager.leave t.peers ~group ~port

let datagrams_sent t = t.sent
let datagrams_dropped t = t.dropped
let encode_failures t = t.encode_failures

let stats t =
  {
    sent = t.sent;
    dropped = t.dropped;
    encode_failures = t.encode_failures;
    oversize = t.oversize;
    tx_batches = t.tx_batches;
    tx_datagrams = t.tx_datagrams;
    rx_batches = t.rx_batches;
    rx_datagrams = t.rx_datagrams;
    rx_truncated = t.rx_truncated;
    pool_leases = Buf_pool.leases t.pool;
    pool_fallbacks = Buf_pool.fallback_allocs t.pool;
    pool_max_outstanding = Buf_pool.max_outstanding t.pool;
  }

let agent_metrics t =
  Hashtbl.fold (fun port h acc -> (port, h.agent.metrics) :: acc) t.agents []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let kind_counter cache metrics prefix kind =
  try Hashtbl.find cache kind
  with Not_found ->
    let c = Metrics.counter metrics (prefix ^ kind) in
    Hashtbl.add cache kind c;
    c

(* --- transmit --------------------------------------------------------- *)

let flush_tx t =
  if t.tx_count > 0 then begin
    Sockmsg.send_batch ~use_mmsg:t.use_mmsg ~use_gso:t.use_gso t.tx_fd t.region
      ~offs:t.tx_offs ~lens:t.tx_lens ~ports:t.tx_ports ~count:t.tx_count
      ~ip:t.ip ~sockaddr:t.sockaddr_of;
    for i = 0 to t.tx_count - 1 do
      Buf_pool.release t.pool t.tx_bufs.(i)
    done;
    t.tx_batches <- t.tx_batches + 1;
    t.tx_datagrams <- t.tx_datagrams + t.tx_count;
    t.tx_count <- 0
  end

let encode_failure t agent msg =
  t.encode_failures <- t.encode_failures + 1;
  Metrics.incr (Metrics.counter t.runtime_metrics "tx.encode_failed");
  if Trace.is_on t.sink then
    Trace.emit t.sink ~at:(now t) ~node:agent.port
      (Trace.Encode_failed
         { kind = Message.kind msg; size = Message.body_size msg })

(* Messages too big for a pool slot (jumbo application payloads) take a
   growable-writer + one-shot-send slow path rather than failing. *)
let send_oversize t agent ~dst msg =
  let w = t.wbuf in
  Codec.Writer.reset w;
  match Codec.encode_into w msg with
  | Error _ -> encode_failure t agent msg
  | Ok () ->
      t.oversize <- t.oversize + 1;
      t.sent <- t.sent + 1;
      Metrics.incr
        (kind_counter agent.sent_kind agent.metrics "sent." (Message.kind msg));
      Sockmsg.send_one agent.socket (Codec.Writer.buffer w) ~off:0
        ~len:(Codec.Writer.length w) (t.sockaddr_of dst)

let send_datagram t agent ~dst msg =
  Peer_manager.note_sent t.peers ~port:dst ~now:(now t);
  if t.loss > 0. && Rng.bernoulli t.rng ~p:t.loss then
    t.dropped <- t.dropped + 1
  else begin
    (* The stage is bound to one socket per flush; agents interleave
       rarely (only via nested perform), so this almost never fires. *)
    if t.tx_count > 0 && t.tx_fd <> agent.socket then flush_tx t;
    let b = Buf_pool.lease t.pool in
    if Message.body_size msg > b.Buf_pool.cap then begin
      Buf_pool.release t.pool b;
      send_oversize t agent ~dst msg
    end
    else if Buf_pool.pooled b then begin
      match
        Codec.encode_at b.Buf_pool.bytes ~pos:b.Buf_pool.off
          ~limit:(b.Buf_pool.off + b.Buf_pool.cap)
          msg
      with
      | Error _ ->
          Buf_pool.release t.pool b;
          encode_failure t agent msg
      | Ok size ->
          t.tx_fd <- agent.socket;
          let i = t.tx_count in
          t.tx_bufs.(i) <-
            (b [@lint.owns "staged for flush_tx, which releases after sendmmsg"]);
          t.tx_offs.(i) <- b.Buf_pool.off;
          t.tx_lens.(i) <- size;
          t.tx_ports.(i) <- dst;
          t.tx_count <- i + 1;
          t.sent <- t.sent + 1;
          Metrics.incr
            (kind_counter agent.sent_kind agent.metrics "sent."
               (Message.kind msg));
          if t.tx_count >= t.batch then flush_tx t
    end
    else begin
      (* Pool exhausted: encode into the fallback buffer and send it
         one-shot (it is not region-backed, so it cannot join a batch). *)
      (match
         Codec.encode_at b.Buf_pool.bytes ~pos:0 ~limit:b.Buf_pool.cap msg
       with
      | Error _ -> encode_failure t agent msg
      | Ok size ->
          t.sent <- t.sent + 1;
          Metrics.incr
            (kind_counter agent.sent_kind agent.metrics "sent."
               (Message.kind msg));
          Sockmsg.send_one agent.socket b.Buf_pool.bytes ~off:0 ~len:size
            (t.sockaddr_of dst));
      (* Fallback buffers are not pooled, so this is a contractual no-op,
         but it closes the lease/release bracket on this path too. *)
      Buf_pool.release t.pool b
    end
  end

(* --- agents --------------------------------------------------------- *)

let backend t =
  {
    Driver.now = (fun () -> now t);
    send =
      (fun agent dest msg ->
        match dest with
        | To_addr dst -> send_datagram t agent ~dst msg
        | To_group { group; ttl = _ } ->
            (* Unicast fan-out over live members; TTL scoping is
               meaningless here.  Dead peers are skipped — a crashed host
               stops costing a datagram per multicast — while Suspect
               ones keep receiving (senders never gate on receiver
               health). *)
            Peer_manager.iter_live_members t.peers ~group ~except:agent.port
              (fun port -> send_datagram t agent ~dst:port msg));
    arm = (fun delay fire -> Heap.add t.timer_heap ~prio:(now t +. delay) fire);
    cancel = (fun h -> ignore (Heap.remove t.timer_heap h));
    join = (fun agent group -> join t ~group ~port:agent.port);
    leave = (fun agent group -> leave t ~group ~port:agent.port);
    (* per-kind receive counters are interned in the drain loop *)
    received = (fun _ _ -> ());
    delivered =
      (fun agent ~recovered ->
        Metrics.incr (Metrics.counter agent.metrics "app.delivered");
        if recovered then
          Metrics.incr (Metrics.counter agent.metrics "app.recovered"));
    noticed = (fun _ _ -> ());
  }

let perform t ~port actions =
  match Hashtbl.find_opt t.agents port with
  | None -> ()
  | Some h ->
      Driver.perform h.driver actions;
      flush_tx t

let add_agent t ~port handlers =
  assert (not (Hashtbl.mem t.agents port));
  let socket = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Unix.setsockopt socket Unix.SO_REUSEADDR true;
  Unix.bind socket (t.sockaddr_of port);
  Unix.set_nonblock socket;
  let agent =
    {
      port;
      socket;
      metrics = Metrics.create ();
      sent_kind = Hashtbl.create 16;
      recv_kind = Hashtbl.create 16;
    }
  in
  let h = { agent; driver = Driver.create (backend t) agent handlers } in
  Hashtbl.replace t.agents port h;
  Hashtbl.replace t.by_socket socket h

(* --- receive ---------------------------------------------------------- *)

let slot_len t = Buf_pool.slot_size t.pool

let drain_socket t { agent; driver } =
  let continue = ref true in
  while !continue do
    let n =
      Sockmsg.recv_batch ~use_mmsg:t.use_mmsg agent.socket t.region
        ~offs:t.rx_offs ~slot:(slot_len t) ~count:t.batch ~lens:t.rx_lens
        ~ports:t.rx_ports
    in
    if n = 0 then continue := false
    else begin
      t.rx_batches <- t.rx_batches + 1;
      t.rx_datagrams <- t.rx_datagrams + n;
      for i = 0 to n - 1 do
        let len = t.rx_lens.(i) in
        if len < 0 then begin
          (* Datagram bigger than a receive slot: dropped, counted. *)
          t.rx_truncated <- t.rx_truncated + 1;
          Metrics.incr (Metrics.counter t.runtime_metrics "rx.truncated")
        end
        else begin
          (* Decode in place from slot [i] of the pool region.  Payload
             views alias the slot, which is safe because all of this
             datagram's actions — including re-encoding forwards (the
             transmit stage copies bytes immediately) and [to_owned] at
             retention points — run to completion before the next
             [recv_batch] refills the ring. *)
          let src_port = t.rx_ports.(i) in
          match Codec.decode_bytes ~pos:t.rx_offs.(i) ~len t.region with
          | Ok msg ->
              Peer_manager.note_recv t.peers ~port:src_port ~now:(now t);
              Metrics.incr
                (kind_counter agent.recv_kind agent.metrics "recv."
                   (Message.kind msg));
              Driver.on_message driver ~src:src_port msg
          | Error _ ->
              (* malformed datagram: drop *)
              Metrics.incr (Metrics.counter t.runtime_metrics "rx.malformed")
        end
      done
    end
  done;
  flush_tx t

let fire_due_timers t =
  let continue = ref true in
  while !continue do
    match Heap.peek t.timer_heap with
    | Some (deadline, _) when deadline <= now t -> (
        match Heap.pop t.timer_heap with
        | Some (_, fire) -> fire ()
        | None -> continue := false)
    | _ -> continue := false
  done;
  flush_tx t

let run_for t ~seconds =
  let stop_at = now t +. seconds in
  let sockets () = Hashtbl.fold (fun s _ acc -> s :: acc) t.by_socket [] in
  while now t < stop_at do
    fire_due_timers t;
    Peer_manager.tick t.peers ~now:(now t);
    let timeout =
      let until_stop = stop_at -. now t in
      let until_timer =
        match Heap.peek t.timer_heap with
        | Some (deadline, _) -> Float.max 0. (deadline -. now t)
        | None -> until_stop
      in
      Float.max 0.0005 (Float.min until_stop until_timer)
    in
    match Unix.select (sockets ()) [] [] timeout with
    | readable, _, _ ->
        List.iter
          (fun s ->
            match Hashtbl.find_opt t.by_socket s with
            | Some h -> drain_socket t h
            | None -> ())
          readable
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  fire_due_timers t

let close t =
  flush_tx t;
  Hashtbl.iter
    (fun _ h ->
      Driver.crash h.driver;
      Unix.close h.agent.socket)
    t.agents;
  Hashtbl.reset t.agents;
  Hashtbl.reset t.by_socket
