module Message = Lbrm_wire.Message
module Payload = Lbrm_wire.Payload
module Seqno = Lbrm_util.Seqno
open Io

type address = Message.address
type seq = Seqno.t

type t = {
  cfg : Config.t;
  self : address;
  sink : Trace.sink;
  rep : Replication.t; (* deposit routing, ack policy, fail-over *)
  hb : Heartbeat.t;
  stat : Stat_ack.t;
  mutable seq : seq; (* last data seq; 0 = none *)
  mutable epoch : int;
  mutable hb_index : int;
  mutable last_payload : string;
  retained : (seq, string * int) Hashtbl.t; (* payload, epoch at send *)
  rchannel_buf : (seq, string) Hashtbl.t; (* awaiting channel copies *)
  mutable released : seq;
  mutable evict_floor : seq; (* cap eviction already swept up to here *)
  mutable heartbeats_sent : int;
  mutable data_multicasts : int;
}

let create cfg ~self ~primary ?(replicas = []) ?initial_estimate
    ?(sink = Trace.null ()) () =
  let retained = Hashtbl.create 64 in
  let retained_above floor =
    Hashtbl.fold
      (fun seq _ n -> if Seqno.(seq > floor) then n + 1 else n)
      retained 0
  in
  {
    cfg;
    self;
    sink;
    rep = Replication.create cfg ~self ~primary ~replicas ~retained_above ~sink ();
    hb = Heartbeat.of_config cfg;
    stat = Stat_ack.create cfg ~self ?initial_estimate ~sink ();
    seq = 0;
    epoch = 0;
    hb_index = 0;
    last_payload = "";
    retained;
    rchannel_buf = Hashtbl.create 64;
    released = 0;
    evict_floor = 0;
    heartbeats_sent = 0;
    data_multicasts = 0;
  }

let last_seq t = t.seq
let current_epoch t = t.epoch
let primary t = Replication.primary t.rep
let retained t = Hashtbl.length t.retained

let retained_seqs t =
  List.sort Seqno.compare (Hashtbl.fold (fun s _ acc -> s :: acc) t.retained [])
let released t = t.released
let durable t = Replication.durable t.rep
let stat t = t.stat
let heartbeats_sent t = t.heartbeats_sent
let data_multicasts t = t.data_multicasts
let failovers t = Replication.failovers t.rep

let group t = t.cfg.group

let trace t ~now ev = Trace.emit t.sink ~at:now ~node:t.self ev

(* Translate stat-ack events into source behaviour. *)
let apply_events t ~now events =
  List.concat_map
    (fun (ev : Stat_ack.event) ->
      match ev with
      | Epoch_started { epoch; expected; p_ack } ->
          t.epoch <- epoch;
          [ Notify (N_epoch { epoch; expected_acks = expected; p_ack }) ]
      | Probing_done est -> [ Notify (N_estimate est) ]
      | Feedback { seq; missing; expected } ->
          [ Notify (N_feedback { seq; missing; expected }) ]
      | Tracking_done seq ->
          (* §2.3.2: payloads are retained for the stat-ack window even
             after the log replicas hold them; now both conditions met. *)
          if Seqno.(seq <= t.released) then Hashtbl.remove t.retained seq;
          []
      | Remulticast seq -> (
          match Hashtbl.find_opt t.retained seq with
          | None -> [] (* already released: receivers recover via loggers *)
          | Some (payload, _) ->
              t.data_multicasts <- t.data_multicasts + 1;
              if Trace.is_on t.sink then
                trace t ~now (Trace.Retrans { seq; mode = Trace.R_stat });
              [
                Notify (N_remulticast seq);
                Io.send ~group:(group t)
                  (Message.Data
                     { seq; epoch = t.epoch; payload = Payload.of_string payload });
              ]))
    events

(* Soft cap on the replay table (§2.3.2 meets fail-over): entries that
   the log infrastructure has both acknowledged and made durable are
   only being retained for a potential stat-ack re-multicast, so once
   the table outgrows [source_retain_max] they are evicted anyway — a
   re-multicast for an evicted seq degrades to logger recovery.  The
   [evict_floor] mark makes the sweep amortized O(1): a long outage
   freezes the floor, so the (futile) scan runs once, not per send. *)
let enforce_retain_bound t =
  let cap = t.cfg.source_retain_max in
  if cap > 0 && Hashtbl.length t.retained > cap then begin
    let acked = Replication.acked t.rep in
    let floor = if Seqno.(acked < t.released) then acked else t.released in
    if Seqno.(floor > t.evict_floor) then begin
      t.evict_floor <- floor;
      let evict =
        Hashtbl.fold
          (fun seq _ acc -> if Seqno.(seq <= floor) then seq :: acc else acc)
          t.retained []
      in
      List.iter (Hashtbl.remove t.retained) evict
    end
  end

(* Translate replication events (durability floor advanced, fail-over
   outcomes) into source behaviour: release replay buffers, notify, and
   re-deposit everything a newly promoted leader lacks. *)
let apply_rep_events t ~now events =
  List.concat_map
    (fun (ev : Replication.event) ->
      match ev with
      | Replication.E_release floor ->
          (* Buffers at or below the durability floor can be released
             (§2.2.3) — unless statistical acking still needs them for
             a potential re-multicast (§2.3.2); [Tracking_done] releases
             those.  Only the seqs the floor newly covers are visited,
             so an ack costs O(newly released), not O(retained). *)
          if Seqno.(floor > t.released) then begin
            let seq = ref (Seqno.succ t.released) in
            while Seqno.(!seq <= floor) do
              if not (Stat_ack.is_pending t.stat !seq) then
                Hashtbl.remove t.retained !seq;
              seq := Seqno.succ !seq
            done;
            t.released <- floor
          end;
          enforce_retain_bound t;
          []
      | Replication.E_suspected -> [ Notify N_primary_suspected ]
      | Replication.E_kept primary -> [ Notify (N_new_primary primary) ]
      | Replication.E_promoted { primary; floor } ->
          (* Reliably hand every retained packet above [floor] to the
             new leader, with fresh retry clocks. *)
          let redeposits =
            Hashtbl.fold
              (fun seq (payload, epoch) acc ->
                if Seqno.(seq > floor) then
                  Replication.deposit t.rep ~now ~seq ~epoch ~payload @ acc
                else acc)
              t.retained []
          in
          Notify (N_new_primary primary) :: redeposits)
    events

let arm_heartbeat t = Set_timer (K_heartbeat, Heartbeat.next_delay t.hb)

let start t ~now =
  let stat_actions, events = Stat_ack.start t.stat ~now in
  (arm_heartbeat t :: stat_actions) @ apply_events t ~now events

let send t ~now payload =
  t.seq <- Seqno.succ t.seq;
  let seq = t.seq in
  t.last_payload <- payload;
  Hashtbl.replace t.retained seq (payload, t.epoch);
  enforce_retain_bound t;
  Heartbeat.on_data t.hb;
  t.data_multicasts <- t.data_multicasts + 1;
  if Trace.is_on t.sink then trace t ~now (Trace.Send { seq });
  let deposit = Replication.deposit t.rep ~now ~seq ~epoch:t.epoch ~payload in
  let stat_actions = Stat_ack.on_data_sent t.stat ~now seq in
  let rchannel_actions =
    match t.cfg.rchannel_group with
    | None -> []
    | Some _ ->
        Hashtbl.replace t.rchannel_buf seq payload;
        [ Set_timer (K_rchannel (seq, 0), t.cfg.h_min) ]
  in
  (Io.send ~group:(group t)
     (Message.Data { seq; epoch = t.epoch; payload = Payload.of_string payload })
  :: deposit)
  @ [ arm_heartbeat t ] @ rchannel_actions @ stat_actions

(* --- heartbeats ------------------------------------------------------ *)

let heartbeat_payload t =
  if
    t.cfg.heartbeat_payload_max > 0
    && t.seq > 0
    && String.length t.last_payload <= t.cfg.heartbeat_payload_max
  then Some (Payload.of_string t.last_payload)
  else None

let on_heartbeat_due t ~now =
  t.hb_index <- t.hb_index + 1;
  t.heartbeats_sent <- t.heartbeats_sent + 1;
  let msg =
    Message.Heartbeat
      {
        seq = t.seq;
        hb_index = t.hb_index;
        epoch = t.epoch;
        payload = heartbeat_payload t;
      }
  in
  Heartbeat.on_heartbeat t.hb;
  (* The heartbeat machine's observable state is its backed-off
     interval: [interval] is the phase after this beat. *)
  if Trace.is_on t.sink then
    trace t ~now
      (Trace.Heartbeat_phase
         { hb_index = t.hb_index; interval = Heartbeat.interval t.hb; seq = t.seq });
  [ Io.send ~group:(group t) msg; arm_heartbeat t ]

(* --- dispatch --------------------------------------------------------- *)

let handle_message t ~now ~src msg =
  match Stat_ack.on_message t.stat ~now ~src msg with
  | Some (actions, events) -> actions @ apply_events t ~now events
  | None -> (
      match Replication.on_message t.rep ~now ~src msg with
      | Some (actions, events) -> actions @ apply_rep_events t ~now events
      | None -> (
          match msg with
          | Message.Who_is_primary ->
              [
                Io.send_to src
                  (Message.Primary_is { logger = Replication.primary t.rep });
              ]
          | _ -> []))

let handle_timer t ~now key =
  match Stat_ack.on_timer t.stat ~now key with
  | Some (actions, events) -> actions @ apply_events t ~now events
  | None -> (
      match
        Replication.on_timer t.rep ~now key
          ~lookup:(Hashtbl.find_opt t.retained)
      with
      | Some (actions, events) -> actions @ apply_rep_events t ~now events
      | None -> (
          match key with
          | K_heartbeat -> on_heartbeat_due t ~now
          | K_rchannel (seq, k) -> (
              (* §7: re-multicast the packet on the retransmission channel
                 [rchannel_copies] times with exponentially growing gaps. *)
              match
                (t.cfg.rchannel_group, Hashtbl.find_opt t.rchannel_buf seq)
              with
              | Some channel, Some payload ->
                  if Trace.is_on t.sink then
                    trace t ~now (Trace.Retrans { seq; mode = Trace.R_rchannel });
                  let copy =
                    Io.send ~group:channel
                      (Message.Retrans
                         { seq; epoch = t.epoch; payload = Payload.of_string payload })
                  in
                  if k + 1 >= t.cfg.rchannel_copies then begin
                    Hashtbl.remove t.rchannel_buf seq;
                    [ copy ]
                  end
                  else
                    [
                      copy;
                      Set_timer
                        ( K_rchannel (seq, k + 1),
                          t.cfg.h_min *. (t.cfg.backoff ** float_of_int (k + 1))
                        );
                    ]
              | _ -> [])
          | _ -> []))
