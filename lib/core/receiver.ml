module Message = Lbrm_wire.Message
module Payload = Lbrm_wire.Payload
module Seqno = Lbrm_util.Seqno
module Gap_tracker = Lbrm_util.Gap_tracker
open Io

type address = Message.address
type seq = Seqno.t

type t = {
  cfg : Config.t;
  self : address;
  sink : Trace.sink;
  source : address;
  mutable loggers : address list;
  tracker : Gap_tracker.t;
  pursuits : Pursuit.t;
  mutable last_heard : float;
  mutable delivered : int;
  mutable recovered : int;
  mutable gave_up : int;
  mutable nacks_sent : int;
  mutable on_rchannel : bool; (* currently subscribed to the channel *)
  (* re-discovery of a replacement nearest logger (§2.2.1): armed when
     the current level-0 logger stops answering *)
  mutable discovery : Discovery.t option;
  mutable level0_failures : int; (* consecutive unanswered level-0 NACKs *)
  mutable level0_counted : int; (* Pursuit round of the last one counted *)
  mutable rediscoveries : int;
}

let create ?(sink = Trace.null ()) cfg ~self ~source ~loggers =
  assert (loggers <> []);
  {
    cfg;
    self;
    sink;
    source;
    loggers;
    tracker =
      (let tr = Gap_tracker.create () in
       (* Streams start at seq 1: priming a floor of 0 makes the very
          first arrival open a gap for any earlier packets. *)
       if cfg.recover_from_start then ignore (Gap_tracker.note tr 0);
       tr);
    pursuits = Pursuit.create ();
    last_heard = 0.;
    delivered = 0;
    recovered = 0;
    gave_up = 0;
    nacks_sent = 0;
    on_rchannel = false;
    discovery = None;
    level0_failures = 0;
    level0_counted = 0;
    rediscoveries = 0;
  }

let highest_seen t = Option.value ~default:0 (Gap_tracker.highest t.tracker)
let missing t = Gap_tracker.missing t.tracker
let delivered t = t.delivered
let recovered t = t.recovered
let gave_up t = t.gave_up
let nacks_sent t = t.nacks_sent
let set_loggers t loggers = if loggers <> [] then t.loggers <- loggers
let last_heard t = t.last_heard
let loggers t = t.loggers
let rediscoveries t = t.rediscoveries
let discovering t = Option.is_some t.discovery

let logger_at t level = List.nth_opt t.loggers level
let trace t ~now ev = Trace.emit t.sink ~at:now ~node:t.self ev
let levels t = List.length t.loggers

let arm_silence t = Set_timer (K_silence, t.cfg.max_it)

let heard t ~now =
  t.last_heard <- now;
  arm_silence t

(* --- loss pursuit ----------------------------------------------------- *)

(* How long a fresh packet can still appear on the retransmission
   channel: the sum of the exponentially backed-off copy gaps. *)
let rchannel_window t =
  let rec total k acc =
    if k >= t.cfg.rchannel_copies then acc
    else total (k + 1) (acc +. (t.cfg.h_min *. (t.cfg.backoff ** float_of_int k)))
  in
  total 0 0.

let open_pursuits t ~now seqs =
  match Pursuit.open_ t.pursuits ~now seqs with
  | [] -> []
  | fresh ->
      if Trace.is_on t.sink then trace t ~now (Trace.Gap_detected { seqs = fresh });
      let recovery =
        match t.cfg.rchannel_group with
        | None -> [ Set_timer (K_nack_flush, t.cfg.nack_delay) ]
        | Some channel ->
            (* 7: subscribe to the retransmission channel instead of
               requesting; fall back to NACK service only for packets
               the channel no longer carries. *)
            t.on_rchannel <- true;
            [
              Join channel;
              Set_timer (K_nack_flush, rchannel_window t +. t.cfg.nack_delay);
            ]
      in
      Notify (N_gap fresh) :: recovery

let maybe_leave_channel t =
  match t.cfg.rchannel_group with
  | Some channel
    when t.on_rchannel && Gap_tracker.missing_count t.tracker = 0 ->
      t.on_rchannel <- false;
      [ Leave channel ]
  | _ -> []

let close_pursuit t ~now seq =
  match Pursuit.close t.pursuits ~now seq with
  | [] -> []
  | closed -> closed @ maybe_leave_channel t

let give_up t ~now seq =
  Gap_tracker.abandon t.tracker seq;
  t.gave_up <- t.gave_up + 1;
  if Trace.is_on t.sink then trace t ~now (Trace.Gave_up { seq })

(* --- nearest-logger re-discovery (§2.2.1) ----------------------------- *)

(* The chosen secondary stopped answering: drop it from the hierarchy
   (keeping at least a last-resort level) and restart the expanding-ring
   search instead of retrying it forever. *)
let begin_rediscovery t ~now =
  match t.discovery with
  | Some _ -> []
  | None ->
      t.level0_failures <- 0;
      (match t.loggers with
      | _ :: (_ :: _ as rest) ->
          t.loggers <- rest;
          Pursuit.drop_level0 t.pursuits
      | _ -> ());
      let dsc = Discovery.create t.cfg in
      t.discovery <- Some dsc;
      if Trace.is_on t.sink then trace t ~now (Trace.Rediscovery Trace.D_started);
      Discovery.start dsc ~now

(* A new nearest logger answered the ring search: put it at the front of
   the hierarchy and re-request everything still missing from it. *)
let adopt_logger t ~now logger =
  t.rediscoveries <- t.rediscoveries + 1;
  if Trace.is_on t.sink then
    trace t ~now (Trace.Rediscovery (Trace.D_adopted logger));
  t.level0_failures <- 0;
  t.loggers <- logger :: List.filter (fun a -> a <> logger) t.loggers;
  if Pursuit.restart_all t.pursuits then [ Set_timer (K_nack_flush, 0.) ]
  else []

let finish_discovery t ~now =
  match t.discovery with
  | Some dsc when Discovery.finished dsc -> (
      t.discovery <- None;
      match Discovery.result dsc with
      | Some logger -> adopt_logger t ~now logger
      | None ->
          (* ring exhausted: keep what is left of the hierarchy *)
          if Trace.is_on t.sink then
            trace t ~now (Trace.Rediscovery Trace.D_exhausted);
          [])
  | Some _ | None -> []

(* Called once per level-0 NACK that went unanswered for a full
   [nack_timeout]. *)
let note_level0_failure t ~now =
  t.level0_failures <- t.level0_failures + 1;
  if t.level0_failures >= t.cfg.retrans_retry_limit && Option.is_none t.discovery
  then begin_rediscovery t ~now
  else []

(* Send one NACK per hierarchy level covering every seq pursued there. *)
let flush_nacks t ~now =
  Pursuit.fold_due t.pursuits
    ~select:(fun seq ->
      if Gap_tracker.is_missing t.tracker seq then Some seq else None)
    (fun ~level seqs acc ->
      match logger_at t level with
      | None -> acc
      | Some logger ->
          t.nacks_sent <- t.nacks_sent + 1;
          let seqs = List.sort Seqno.compare seqs in
          if Trace.is_on t.sink then
            trace t ~now (Trace.Nack_sent { dest = logger; level; seqs });
          Io.send_to logger (Message.Nack { seqs })
          :: Pursuit.escalation_timers t.cfg seqs
          @ acc)
    []

let escalate t ~now seq =
  match Pursuit.level t.pursuits seq with
  | None -> []
  | Some _ when not (Gap_tracker.is_missing t.tracker seq) ->
      Pursuit.forget t.pursuits seq;
      []
  | Some level ->
      (* The NACK that last carried this seq went unanswered.  At level 0
         it counts once toward the re-discovery fallback, however many
         seqs it carried (their escalations fire together, in round
         order). *)
      let round = Pursuit.nack_round t.pursuits seq in
      let redisc =
        if level = 0 && round > t.level0_counted then begin
          t.level0_counted <- round;
          note_level0_failure t ~now
        end
        else []
      in
      Pursuit.escalate t.pursuits t.cfg ~levels:(levels t) ~source:t.source
        ~give_up:(give_up t ~now) seq
      @ redisc

(* --- data-plane arrivals ---------------------------------------------- *)

(* The application boundary owns its payloads: copy out of the wire view
   here, and only for packets that are actually delivered (duplicates
   never pay for it). *)
let deliver t ~now seq payload ~recovered:rec_ =
  t.delivered <- t.delivered + 1;
  if rec_ then t.recovered <- t.recovered + 1;
  if Trace.is_on t.sink then
    trace t ~now (Trace.Deliver { seq; recovered = rec_ });
  Deliver { seq; payload = Payload.to_owned payload; recovered = rec_ }
  :: close_pursuit t ~now seq

let on_data t ~now ~seq ~payload =
  match Gap_tracker.note t.tracker seq with
  | First | In_order -> deliver t ~now seq payload ~recovered:false
  | Fills_gap -> deliver t ~now seq payload ~recovered:true
  | Duplicate -> []
  | Gap_opened gaps ->
      deliver t ~now seq payload ~recovered:false @ open_pursuits t ~now gaps

let on_heartbeat t ~now ~seq ~payload =
  match payload with
  | Some p when seq > 0 -> on_data t ~now ~seq ~payload:p
  | _ ->
      if seq = 0 then [] (* source alive but nothing sent yet *)
      else
        let newly = Gap_tracker.note_exists t.tracker seq in
        open_pursuits t ~now newly

let on_retrans t ~now ~seq ~payload =
  match Gap_tracker.note t.tracker seq with
  | Fills_gap -> deliver t ~now seq payload ~recovered:true
  | First | In_order ->
      (* A latest-query response for data we never knew existed. *)
      deliver t ~now seq payload ~recovered:true
  | Gap_opened gaps ->
      deliver t ~now seq payload ~recovered:true @ open_pursuits t ~now gaps
  | Duplicate -> []

(* --- dispatch ---------------------------------------------------------- *)

let handle_message t ~now ~src msg =
  match msg with
  | Message.Data { seq; payload; _ } ->
      heard t ~now :: on_data t ~now ~seq ~payload
  | Message.Heartbeat { seq; payload; _ } ->
      heard t ~now :: on_heartbeat t ~now ~seq ~payload
  | Message.Retrans { seq; payload; _ } ->
      (* The nearest logger proving itself alive clears the
         re-discovery failure count. *)
      if logger_at t 0 = Some src then t.level0_failures <- 0;
      heard t ~now :: on_retrans t ~now ~seq ~payload
  | Message.Discovery_reply _ -> (
      match t.discovery with
      | None -> []
      | Some dsc -> (
          match Discovery.handle_message dsc ~now ~src msg with
          | None -> []
          | Some acts -> acts @ finish_discovery t ~now))
  | Message.Primary_is { logger } ->
      let loggers, actions = Pursuit.on_primary_is t.pursuits t.loggers logger in
      t.loggers <- loggers;
      actions
  | _ -> []

let start t ~now =
  ignore now;
  [ arm_silence t ]

let handle_timer t ~now key =
  match key with
  | K_nack_flush -> flush_nacks t ~now
  | K_nack_escalate seq -> escalate t ~now seq
  | K_discovery _ -> (
      match t.discovery with
      | None -> []
      | Some dsc -> (
          match Discovery.handle_timer dsc ~now key with
          | None -> []
          | Some acts -> acts @ finish_discovery t ~now))
  | K_silence ->
      (* MaxIT passed with nothing heard: ask the nearest logger what
         the latest packet is, in case we missed everything. *)
      let ask =
        match logger_at t 0 with
        | Some logger when highest_seen t > 0 || t.last_heard > 0. ->
            t.nacks_sent <- t.nacks_sent + 1;
            if Trace.is_on t.sink then
              trace t ~now (Trace.Nack_sent { dest = logger; level = 0; seqs = [] });
            [ Io.send_to logger (Message.Nack { seqs = [] }) ]
        | _ -> []
      in
      if Trace.is_on t.sink then
        trace t ~now (Trace.Silence { elapsed = now -. t.last_heard });
      (* Prolonged total silence can also mean the nearest logger died
         with the flow idle: past the deadline, go looking for a live
         one instead of NACKing a corpse forever. *)
      let redisc =
        if
          t.last_heard > 0.
          && now -. t.last_heard >= t.cfg.rediscovery_silence
          && Option.is_none t.discovery
        then begin_rediscovery t ~now
        else []
      in
      (Notify (N_silence (now -. t.last_heard)) :: ask)
      @ redisc @ [ arm_silence t ]
  | _ -> []
