module Message = Lbrm_wire.Message
module Payload = Lbrm_wire.Payload
module Seqno = Lbrm_util.Seqno
module Gap_tracker = Lbrm_util.Gap_tracker
module Rng = Lbrm_util.Rng
open Io

type address = Message.address
type seq = Seqno.t

type request_window = {
  mutable count : int;
  mutable multicast_done : bool;
}

type t = {
  cfg : Config.t;
  self : address;
  sink : Trace.sink;
  source : address;
  mutable parent : address option;
  mutable replicas : address list;
  mutable succ : address option; (* ring replication: next hop, None = tail *)
  store : Log_store.t;
  mutable archive : Archive.t option; (* disk tier fed by store eviction *)
  mutable archive_write_errors : int;
  mutable archive_reads : int; (* retransmissions served from disk *)
  mutable floor : seq; (* tiered memory+disk contiguous floor (archive only) *)
  tracker : Gap_tracker.t; (* what this logger knows exists *)
  recovered_here : (seq, unit) Hashtbl.t; (* packets we had to pull *)
  pending_up : (seq, address list ref) Hashtbl.t; (* awaiting parent *)
  uplink_asked : (seq, float) Hashtbl.t; (* last time we asked the parent *)
  uplink_retries : (seq, int) Hashtbl.t; (* unanswered parent asks per seq *)
  requests : (seq, request_window) Hashtbl.t;
  replica_acked : (address, seq) Hashtbl.t;
  designated : (int, unit) Hashtbl.t; (* epochs we ack *)
  rng : Rng.t;
  mutable requests_served : int;
  mutable remulticasts : int;
  mutable uplink_nacks : int;
  mutable on_rchannel : bool; (* subscribed to the retransmission channel *)
}

(* Whether [seq] is logged here, in memory or on disk. *)
let logged t seq =
  Log_store.mem t.store seq
  || match t.archive with Some a -> Archive.mem a seq | None -> false

(* Advance the tiered contiguous floor across memory and disk.  Only
   meaningful with an archive attached; the archive's persisted
   low-water mark gives the starting jump, then membership in either
   tier extends it.  Monotone: a floor never moves backward, and after
   a restart it resumes from what the archive durably recorded — never
   from the first post-rejoin sequence. *)
let advance_floor t =
  match t.archive with
  | None -> ()
  | Some a ->
      let lw = Archive.low_water a in
      if lw > t.floor then t.floor <- lw;
      let progressing = ref true in
      while !progressing do
        let next = t.floor + 1 in
        if logged t next then
          t.floor <- next
        else progressing := false
      done

(* The durability floor this logger reports (Log_ack / Replica_ack /
   Ring_ack / Quorum_ack / Replica_status).  Without a disk tier it is
   the in-memory contiguous mark, as before; with one it is the tiered
   floor, which survives restarts via the archive's low-water mark. *)
let durable_floor t =
  match t.archive with
  | None -> Option.value ~default:0 (Log_store.highest_contiguous t.store)
  | Some _ -> t.floor

let create cfg ~self ~source ?parent ?(replicas = []) ?succ ?archive ~rng
    ?(sink = Trace.null ()) () =
  (* The eviction hook closes over the logger record (created below) so
     a failing disk tier can be disabled in place: one [Fs_error] and
     the logger counts it, traces it, and keeps serving from memory. *)
  let cell = ref None in
  let on_evict =
    match archive with
    | None -> None
    | Some a ->
        Some
          (fun (e : Log_store.entry) ->
            match !cell with
            | None -> ()
            | Some t -> (
                match t.archive with
                | None -> () (* disk tier already degraded *)
                | Some _ -> (
                    let sealed_before = Archive.rotations a in
                    try
                      Archive.append a ~seq:e.seq ~epoch:e.epoch
                        ~payload:e.payload;
                      if
                        Archive.rotations a > sealed_before
                        && Trace.is_on t.sink
                      then
                        Trace.emit t.sink ~at:e.logged_at ~node:t.self
                          (Trace.Segment_rotated
                             { segment = Archive.last_sealed a })
                    with Archive.Fs_error _ ->
                      t.archive <- None;
                      t.archive_write_errors <- t.archive_write_errors + 1;
                      if Trace.is_on t.sink then
                        Trace.emit t.sink ~at:e.logged_at ~node:t.self
                          (Trace.Archive_degraded { seq = e.seq }))))
  in
  let t =
    {
      cfg;
      self;
      sink;
      source;
      parent;
      replicas;
      succ;
      store = Log_store.create ?on_evict ~retention:cfg.retention ();
      archive;
      archive_write_errors = 0;
      archive_reads = 0;
      floor = 0;
    tracker = Gap_tracker.create ();
    recovered_here = Hashtbl.create 16;
    pending_up = Hashtbl.create 16;
    uplink_asked = Hashtbl.create 16;
    uplink_retries = Hashtbl.create 16;
    requests = Hashtbl.create 32;
    replica_acked = Hashtbl.create 4;
    designated = Hashtbl.create 4;
    rng;
      requests_served = 0;
      remulticasts = 0;
      uplink_nacks = 0;
      on_rchannel = false;
    }
  in
  cell := Some t;
  advance_floor t;
  t

let is_primary t = t.parent = None
let trace t ~now ev = Trace.emit t.sink ~at:now ~node:t.self ev
let store t = t.store
let self t = t.self
let requests_served t = t.requests_served
let remulticasts t = t.remulticasts
let uplink_nacks t = t.uplink_nacks
let archive_write_errors t = t.archive_write_errors
let archive_reads t = t.archive_reads
let archive_enabled t = match t.archive with Some _ -> true | None -> false
let successor t = t.succ

(* Whole-segment reclamation: drop every sealed segment wholly below
   [floor] (the retention policy's durability floor).  Returns the
   number of segments reclaimed. *)
let compact_archive t ~now ~floor =
  match t.archive with
  | None -> 0
  | Some a ->
      let removed = Archive.compact a ~floor in
      List.iter
        (fun id ->
          if Trace.is_on t.sink then
            trace t ~now (Trace.Segment_compacted { segment = id }))
        removed;
      List.length removed

let designated_for t =
  Hashtbl.fold (fun e () acc -> e :: acc) t.designated []
  |> List.sort Int.compare

(* --- upward recovery (secondary's own completeness) ------------------- *)

(* One upward request per seq per timeout window, whether triggered by
   our own gap-chase or by a receiver's NACK — this is what keeps the
   paper's "one retransmission request per site" true. *)
let ask_parent t ~now seqs =
  let fresh =
    List.filter
      (fun s ->
        match Hashtbl.find_opt t.uplink_asked s with
        | Some at -> now -. at >= 0.9 *. t.cfg.uplink_nack_timeout
        | None -> true)
      seqs
  in
  match (t.parent, fresh) with
  | None, _ | _, [] -> []
  | Some parent, fresh ->
      List.iter (fun s -> Hashtbl.replace t.uplink_asked s now) fresh;
      t.uplink_nacks <- t.uplink_nacks + 1;
      if Trace.is_on t.sink then
        trace t ~now (Trace.Uplink_nack { dest = parent; seqs = fresh });
      Io.send_to parent (Message.Nack { seqs = fresh })
      :: List.map
           (fun s -> Set_timer (K_uplink_nack s, t.cfg.uplink_nack_timeout))
           fresh

(* Time a packet can still appear on the retransmission channel. *)
let rchannel_window t =
  let rec total k acc =
    if k >= t.cfg.rchannel_copies then acc
    else
      total (k + 1) (acc +. (t.cfg.h_min *. (t.cfg.backoff ** float_of_int k)))
  in
  total 0 0.

let note_gaps t newly_missing =
  (* Pull our own losses from the parent so the site log stays complete;
     a short delay batches bursts (and is the paper's "only one request
     to the primary originates from each site").  With a retransmission
     channel configured, subscribe there first and only chase the parent
     for packets the channel no longer carries. *)
  match newly_missing with
  | [] -> []
  | _ ->
      let delay, join =
        match t.cfg.rchannel_group with
        | None ->
            (* 2.3.2: when statistical acking runs and t_wait exceeds
               h_min, give the source its chance to re-multicast before
               asking the parent (t_wait - h_min after the revealing
               heartbeat). *)
            let statack_grace =
              if t.cfg.stat_ack_enabled then
                Float.max 0. (t.cfg.t_wait_init -. t.cfg.h_min)
              else 0.
            in
            (t.cfg.nack_delay +. statack_grace, [])
        | Some channel ->
            t.on_rchannel <- true;
            (rchannel_window t +. t.cfg.nack_delay, [ Join channel ])
      in
      join
      @ List.map (fun s -> Set_timer (K_uplink_nack s, delay)) newly_missing

(* --- serving requests -------------------------------------------------- *)

let request_window t seq =
  match Hashtbl.find_opt t.requests seq with
  | Some w -> w
  | None ->
      let w = { count = 0; multicast_done = false } in
      Hashtbl.replace t.requests seq w;
      w

let retrans_msg (e : Log_store.entry) =
  Message.Retrans
    { seq = e.seq; epoch = e.epoch; payload = Payload.of_string e.payload }

(* In-memory store first, disk archive second.  The payload string the
   archive hands back is the exact bytes read from the segment file;
   [retrans_msg] wraps it as a view, so nothing on this path copies. *)
let lookup t ~now seq =
  match Log_store.get t.store ~now seq with
  | Some e -> Some e
  | None -> (
      match t.archive with
      | None -> None
      | Some a -> (
          match Archive.find a seq with
          | Some (epoch, payload) ->
              t.archive_reads <- t.archive_reads + 1;
              if Trace.is_on t.sink then
                trace t ~now (Trace.Archive_read { seq });
              Some { Log_store.seq; epoch; payload; logged_at = now }
          | None -> None))

(* Decide unicast vs site-scoped multicast for a repair (§2.2.1): a
   *secondary* logger re-multicasts into its site when enough requests
   for the same packet arrive within a window, or — since its own loss
   suggests the whole site lost the packet — at a lower threshold for
   packets it had to recover.  The primary never scope-multicasts:
   requesters are spread across sites, and mass loss at the source's
   side is the statistical-acknowledgement machinery's job (§2.3). *)
let serve t ~now ~requester (e : Log_store.entry) =
  let w = request_window t e.seq in
  w.count <- w.count + 1;
  let threshold =
    if Hashtbl.mem t.recovered_here e.seq then
      Stdlib.max 2 (t.cfg.remcast_request_threshold / 2)
    else t.cfg.remcast_request_threshold
  in
  t.requests_served <- t.requests_served + 1;
  let actions =
    if (not (is_primary t)) && w.count >= threshold && not w.multicast_done
    then begin
      w.multicast_done <- true;
      t.remulticasts <- t.remulticasts + 1;
      if Trace.is_on t.sink then
        trace t ~now (Trace.Retrans { seq = e.seq; mode = Trace.R_site_mcast });
      [
        Io.send ~ttl:t.cfg.site_ttl ~group:t.cfg.group (retrans_msg e);
        Set_timer (K_remcast e.seq, t.cfg.remcast_window);
      ]
    end
    else begin
      if Trace.is_on t.sink then
        trace t ~now
          (Trace.Retrans { seq = e.seq; mode = Trace.R_unicast requester });
      [ Io.send_to requester (retrans_msg e) ]
    end
  in
  if w.count = 1 then
    Set_timer (K_remcast e.seq, t.cfg.remcast_window) :: actions
  else actions

let on_nack t ~now ~src seqs =
  match seqs with
  | [] -> (
      (* Latest query. *)
      match Log_store.newest t.store with
      | Some e ->
          t.requests_served <- t.requests_served + 1;
          if Trace.is_on t.sink then
            trace t ~now (Trace.Retrans { seq = e.seq; mode = Trace.R_unicast src });
          [ Io.send_to src (retrans_msg e) ]
      | None -> [])
  | seqs ->
      List.concat_map
        (fun seq ->
          match lookup t ~now seq with
          | Some e -> serve t ~now ~requester:src e
          | None ->
              (* We do not have it either: remember the requester and
                 chase the packet up the hierarchy. *)
              let waiters =
                match Hashtbl.find_opt t.pending_up seq with
                | Some l -> l
                | None ->
                    let l = ref [] in
                    Hashtbl.add t.pending_up seq l;
                    l
              in
              if not (List.mem src !waiters) then waiters := src :: !waiters;
              if List.length !waiters = 1 then ask_parent t ~now [ seq ]
              else [])
        seqs

(* --- logging the data plane ------------------------------------------- *)

let maybe_stat_ack t ~epoch ~seq =
  if Hashtbl.mem t.designated epoch then
    [
      Io.send_to t.source (Message.Stat_ack { epoch; seq; logger = t.self });
    ]
  else []

let maybe_leave_channel t =
  match t.cfg.rchannel_group with
  | Some channel
    when t.on_rchannel && Gap_tracker.missing_count t.tracker = 0 ->
      t.on_rchannel <- false;
      [ Leave channel ]
  | _ -> []

(* [payload] arrives as a view over the receive path; the store owns its
   entries, so copy out exactly once here. *)
let log_packet t ~now ~seq ~epoch ~payload ~recovered =
  let fresh =
    Log_store.add t.store ~now ~seq ~epoch ~payload:(Payload.to_owned payload)
  in
  if fresh && Trace.is_on t.sink then
    trace t ~now (Trace.Log_write { seq; recovered });
  advance_floor t;
  Hashtbl.remove t.uplink_asked seq;
  Hashtbl.remove t.uplink_retries seq;
  if recovered then Hashtbl.replace t.recovered_here seq ();
  match Gap_tracker.note t.tracker seq with
  | Gap_opened gaps -> note_gaps t gaps
  | Fills_gap -> maybe_leave_channel t
  | First | In_order | Duplicate -> []

(* Answer everyone waiting on [seq] once it is logged, from memory or,
   for a packet the store sent straight to disk on arrival (older than
   its window), from the archive. *)
let serve_waiters t ~now seq =
  match Hashtbl.find_opt t.pending_up seq with
  | None -> []
  | Some waiters -> (
      match lookup t ~now seq with
      | None -> []
      | Some e ->
          Hashtbl.remove t.pending_up seq;
          let ws = !waiters in
          t.requests_served <- t.requests_served + List.length ws;
          Cancel_timer (K_uplink_nack seq)
          ::
          (if
             (not (is_primary t))
             && List.length ws >= t.cfg.remcast_request_threshold
           then begin
             t.remulticasts <- t.remulticasts + 1;
             if Trace.is_on t.sink then
               trace t ~now (Trace.Retrans { seq; mode = Trace.R_site_mcast });
             [ Io.send ~ttl:t.cfg.site_ttl ~group:t.cfg.group (retrans_msg e) ]
           end
           else
             List.map
               (fun wtr ->
                 if Trace.is_on t.sink then
                   trace t ~now
                     (Trace.Retrans { seq; mode = Trace.R_unicast wtr });
                 Io.send_to wtr (retrans_msg e))
               ws))

let on_data t ~now ~seq ~epoch ~payload =
  let log_actions = log_packet t ~now ~seq ~epoch ~payload ~recovered:false in
  let stat = maybe_stat_ack t ~epoch ~seq in
  log_actions @ stat @ serve_waiters t ~now seq

let on_heartbeat t ~now ~seq ~epoch ~payload =
  match payload with
  | Some p when seq > 0 -> on_data t ~now ~seq ~epoch ~payload:p
  | _ ->
      if seq = 0 then []
      else
        let newly = Gap_tracker.note_exists t.tracker seq in
        note_gaps t newly

(* --- primary duties ---------------------------------------------------- *)

let best_replica_seq t =
  (* §2.2.3: the replica sequence number reported to the source is the
     most up-to-date replica's contiguous mark; with no replicas the
     primary's own mark stands in. *)
  let own = durable_floor t in
  match t.replicas with
  | [] -> own
  | replicas ->
      List.fold_left
        (fun acc r ->
          let s = Option.value ~default:0 (Hashtbl.find_opt t.replica_acked r) in
          Seqno.max acc s)
        0 replicas

let log_ack t =
  Message.Log_ack
    { primary_seq = durable_floor t; replica_seq = best_replica_seq t }

let on_deposit t ~now ~seq ~epoch ~payload =
  let fresh =
    Log_store.add t.store ~now ~seq ~epoch ~payload:(Payload.to_owned payload)
  in
  ignore (Gap_tracker.note t.tracker seq);
  advance_floor t;
  let to_replicas =
    if fresh then
      List.concat_map
        (fun r ->
          [ Io.send_to r (Message.Replica_update { seq; epoch; payload }) ])
        t.replicas
      @ (if t.replicas <> [] then
           [ Set_timer (K_replica_retry seq, t.cfg.deposit_timeout) ]
         else [])
    else []
  in
  (Io.send_to t.source (log_ack t) :: to_replicas) @ serve_waiters t ~now seq

let on_replica_retry t seq =
  (* Some replica still lacks [seq]: resend and re-arm until they all
     have it (replica failure is tolerated — Log_ack reports the best
     replica, and fail-over picks that one). *)
  let laggards =
    List.filter
      (fun r ->
        let acked =
          Option.value ~default:0 (Hashtbl.find_opt t.replica_acked r)
        in
        Seqno.(acked < seq))
      t.replicas
  in
  match laggards with
  | [] -> []
  | _ -> (
      match Log_store.get t.store ~now:0. seq with
      | None -> []
      | Some e ->
          List.map
            (fun r ->
              Io.send_to r
                (Message.Replica_update
                   {
                     seq = e.seq;
                     epoch = e.epoch;
                     payload = Payload.of_string e.payload;
                   }))
            laggards
          @ [ Set_timer (K_replica_retry seq, t.cfg.deposit_timeout) ])

(* --- replica duties ----------------------------------------------------- *)

let on_replica_update t ~now ~src ~seq ~epoch ~payload =
  ignore
    (Log_store.add t.store ~now ~seq ~epoch ~payload:(Payload.to_owned payload));
  ignore (Gap_tracker.note t.tracker seq);
  advance_floor t;
  [ Io.send_to src (Message.Replica_ack { seq = durable_floor t }) ]

(* --- ring and quorum replication duties --------------------------------- *)

(* Ring member: log, then pass the deposit down the chain; the tail
   acks the source with its contiguous floor — which, because every
   upstream member logged before forwarding, is the whole ring's
   durability mark.  Duplicates are forwarded too: a source retry
   re-walks the chain and repairs whatever a downstream member lost. *)
let on_ring_forward t ~now ~seq ~epoch ~payload =
  let fresh =
    Log_store.add t.store ~now ~seq ~epoch ~payload:(Payload.to_owned payload)
  in
  if fresh && Trace.is_on t.sink then
    trace t ~now (Trace.Log_write { seq; recovered = false });
  advance_floor t;
  (* A dropped forward upstream shows as a gap here; chase it through the
     parent so the chain self-heals even before the source's retry
     re-walks it. *)
  let gap_actions =
    match Gap_tracker.note t.tracker seq with
    | Gap_opened gaps -> note_gaps t gaps
    | Fills_gap -> maybe_leave_channel t
    | First | In_order | Duplicate -> []
  in
  let waiters = gap_actions @ serve_waiters t ~now seq in
  match t.succ with
  | Some next ->
      if Trace.is_on t.sink then
        trace t ~now (Trace.Ring_forwarded { seq; dest = next });
      Io.send_to next (Message.Ring_forward { seq; epoch; payload }) :: waiters
  | None ->
      Io.send_to t.source (Message.Ring_ack { seq = durable_floor t })
      :: waiters

(* Quorum member: every member (primary or not) logs the multicast
   deposit and acks its own contiguous floor straight back to the
   source, which counts floors toward the majority. *)
let on_quorum_deposit t ~now ~seq ~epoch ~payload =
  let fresh =
    Log_store.add t.store ~now ~seq ~epoch ~payload:(Payload.to_owned payload)
  in
  if fresh && Trace.is_on t.sink then
    trace t ~now (Trace.Log_write { seq; recovered = false });
  advance_floor t;
  (* A lost deposit multicast shows as a gap; chase it through the
     parent so this member's floor (and thus the quorum) keeps moving. *)
  let gap_actions =
    match Gap_tracker.note t.tracker seq with
    | Gap_opened gaps -> note_gaps t gaps
    | Fills_gap -> maybe_leave_channel t
    | First | In_order | Duplicate -> []
  in
  let floor = durable_floor t in
  if Trace.is_on t.sink then trace t ~now (Trace.Quorum_acked { seq; floor });
  let waiters = gap_actions @ serve_waiters t ~now seq in
  Io.send_to t.source (Message.Quorum_ack { seq = floor }) :: waiters

(* --- dispatch ------------------------------------------------------------ *)

let handle_message t ~now ~src msg =
  match msg with
  | Message.Data { seq; epoch; payload } -> on_data t ~now ~seq ~epoch ~payload
  | Message.Heartbeat { seq; epoch; payload; _ } ->
      on_heartbeat t ~now ~seq ~epoch ~payload
  | Message.Nack { seqs } -> on_nack t ~now ~src seqs
  | Message.Retrans { seq; epoch; payload } ->
      (* From our parent (or a sibling's site multicast): log it, pass it
         on to whoever is waiting, and stat-ack if designated. *)
      let log_actions =
        log_packet t ~now ~seq ~epoch ~payload ~recovered:true
      in
      let stat = maybe_stat_ack t ~epoch ~seq in
      log_actions @ stat @ serve_waiters t ~now seq
  | Message.Log_deposit { seq; epoch; payload } -> (
      match t.cfg.replication with
      | Config.R_quorum -> on_quorum_deposit t ~now ~seq ~epoch ~payload
      | Config.R_primary | Config.R_ring ->
          if is_primary t then on_deposit t ~now ~seq ~epoch ~payload else [])
  | Message.Ring_forward { seq; epoch; payload } -> (
      match t.cfg.replication with
      | Config.R_ring -> on_ring_forward t ~now ~seq ~epoch ~payload
      | Config.R_primary | Config.R_quorum -> [])
  | Message.Ring_set { succ; head } ->
      (* Ring repair: adopt the new successor and re-home on the new
         head (demoting an old head that survived with a lower floor). *)
      t.succ <- succ;
      t.parent <- (if head = t.self then None else Some head);
      []
  | Message.Replica_update { seq; epoch; payload } ->
      on_replica_update t ~now ~src ~seq ~epoch ~payload
  | Message.Replica_ack { seq } ->
      let prev = Option.value ~default:0 (Hashtbl.find_opt t.replica_acked src) in
      if Seqno.(seq > prev) then Hashtbl.replace t.replica_acked src seq;
      if is_primary t then [ Io.send_to t.source (log_ack t) ] else []
  | Message.Replica_query ->
      [ Io.send_to src (Message.Replica_status { seq = durable_floor t }) ]
  | Message.Promote { replicas } ->
      t.parent <- None;
      t.replicas <- replicas;
      []
  | Message.Primary_is { logger } ->
      (* Answer to the Who_is_primary we send after repeated unanswered
         uplink NACKs: our parent is dead and the primary moved.
         Re-home; the armed K_uplink_nack timers will re-ask the new
         parent. *)
      if logger = t.self then t.parent <- None
      else if not (is_primary t) then t.parent <- Some logger;
      []
  | Message.Acker_select { epoch; p_ack } ->
      if (not (is_primary t)) && Rng.bernoulli t.rng ~p:p_ack then begin
        Hashtbl.replace t.designated epoch ();
        (* Drop stale epochs. *)
        Hashtbl.iter
          (fun e () -> if e < epoch - 1 then Hashtbl.remove t.designated e)
          (Hashtbl.copy t.designated);
        [ Io.send_to t.source (Message.Acker_reply { epoch; logger = t.self }) ]
      end
      else []
  | Message.Probe { round; p } ->
      if (not (is_primary t)) && Rng.bernoulli t.rng ~p then
        [ Io.send_to t.source (Message.Probe_reply { round; logger = t.self }) ]
      else []
  | Message.Discovery_query { nonce } ->
      [ Io.send_to src (Message.Discovery_reply { nonce; logger = t.self }) ]
  | Message.Replica_status _ | Message.Log_ack _ | Message.Acker_reply _
  | Message.Stat_ack _ | Message.Probe_reply _ | Message.Discovery_reply _
  | Message.Who_is_primary | Message.Ring_ack _ | Message.Quorum_ack _ ->
      []

let handle_timer t ~now key =
  match key with
  | K_uplink_nack seq ->
      (* Either our own gap-chase delay expired or a parent request went
         unanswered: (re)try if the packet is still absent. *)
      if logged t seq then begin
        Hashtbl.remove t.uplink_asked seq;
        Hashtbl.remove t.uplink_retries seq;
        []
      end
      else begin
        let n = 1 + Option.value ~default:0 (Hashtbl.find_opt t.uplink_retries seq) in
        Hashtbl.replace t.uplink_retries seq n;
        let ask = ask_parent t ~now [ seq ] in
        (* The parent has been silent for a whole retry budget: it may
           be dead and replaced (§2.2.3).  Ask the source who the
           primary is now; every further budget's worth of silence asks
           again. *)
        if
          (not (is_primary t))
          && n mod Stdlib.max 1 t.cfg.nack_retry_limit = 0
        then Io.send_to t.source Message.Who_is_primary :: ask
        else ask
      end
  | K_remcast seq ->
      Hashtbl.remove t.requests seq;
      []
  | K_replica_retry seq -> on_replica_retry t seq
  | _ -> []
