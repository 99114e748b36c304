module Message = Lbrm_wire.Message
module Site_population = Lbrm_sim.Site_population
module Trace = Lbrm.Trace
open Lbrm.Io

type address = Message.address

type t = {
  cfg : Lbrm.Config.t;
  self : address;
  sink : Trace.sink;
  source : address;
  mutable loggers : address list;
  model : Site_population.t;
  (* One pursuit per distinct missing seq, whatever its multiplicity,
     on Receiver's ladder minus rediscovery: a population pins its
     hierarchy, so a dead secondary is escalated past, not replaced. *)
  pursuits : Lbrm.Pursuit.t;
  mutable last_heard : float;
  mutable nacks_sent : int;
  mutable nacks_represented : int;
  on_feed : tracer:int -> now:float -> src:address -> Message.t -> unit;
}

let create ?(sink = Trace.null ()) ~cfg ~self ~source ~loggers ~model ~on_feed
    () =
  assert (loggers <> []);
  {
    cfg;
    self;
    sink;
    source;
    loggers;
    model;
    pursuits = Lbrm.Pursuit.create ();
    last_heard = 0.;
    nacks_sent = 0;
    nacks_represented = 0;
    on_feed;
  }

let model t = t.model
let size t = Site_population.size t.model
let missing t = Site_population.missing t.model
let delivered t = Site_population.delivered t.model
let recovered t = Site_population.recovered t.model
let gave_up t = Site_population.gave_up t.model
let nacks_sent t = t.nacks_sent
let nacks_represented t = t.nacks_represented

let logger_at t level = List.nth_opt t.loggers level
let levels t = List.length t.loggers
let trace t ~now ev = Trace.emit t.sink ~at:now ~node:t.self ev
let arm_silence t = Set_timer (K_silence, t.cfg.max_it)

let heard t ~now =
  t.last_heard <- now;
  arm_silence t

(* --- loss pursuit ------------------------------------------------------ *)

let open_pursuits t ~now seqs =
  match Lbrm.Pursuit.open_ t.pursuits ~now seqs with
  | [] -> []
  | fresh ->
      if Trace.is_on t.sink then
        trace t ~now (Trace.Gap_detected { seqs = fresh });
      [ Notify (N_gap fresh); Set_timer (K_nack_flush, t.cfg.nack_delay) ]

let give_up t ~now seq =
  ignore (Site_population.abandon t.model ~seq : int);
  if Trace.is_on t.sink then trace t ~now (Trace.Gave_up { seq })

(* Like Receiver's flush, with multiplicity: a gap missed by [m]
   receivers is represented by [min m remcast_request_threshold] NACK
   copies so the secondary's request-count window sees enough requests
   to choose a site remulticast when the whole site lost a packet.
   Copy [c] carries every seq whose copy count exceeds [c]. *)
let flush_nacks t ~now =
  let mult = Hashtbl.create 8 in
  List.iter
    (fun (s, m) -> Hashtbl.replace mult s m)
    (Site_population.missing_seqs t.model);
  Lbrm.Pursuit.fold_due t.pursuits
    ~select:(fun seq ->
      match Hashtbl.find_opt mult seq with
      | None -> None
      | Some m ->
          t.nacks_represented <- t.nacks_represented + m;
          Some (seq, Stdlib.max 1 (Stdlib.min m t.cfg.remcast_request_threshold)))
    (fun ~level seqs acc ->
      match logger_at t level with
      | None -> acc
      | Some logger ->
          let seqs =
            List.sort (fun (a, _) (b, _) -> Int.compare a b) seqs
          in
          let max_copies =
            List.fold_left (fun acc (_, c) -> Stdlib.max acc c) 1 seqs
          in
          let sends = ref [] in
          for c = max_copies - 1 downto 0 do
            let batch =
              List.filter_map
                (fun (s, copies) -> if copies > c then Some s else None)
                seqs
            in
            if batch <> [] then begin
              t.nacks_sent <- t.nacks_sent + 1;
              if Trace.is_on t.sink then
                trace t ~now
                  (Trace.Nack_sent { dest = logger; level; seqs = batch });
              sends := Lbrm.Io.send_to logger (Message.Nack { seqs = batch })
                       :: !sends
            end
          done;
          !sends
          @ Lbrm.Pursuit.escalation_timers t.cfg (List.map fst seqs)
          @ acc)
    []

let escalate t ~now seq =
  match Lbrm.Pursuit.level t.pursuits seq with
  | None -> []
  | Some _ when Site_population.is_fully_delivered t.model ~seq ->
      Lbrm.Pursuit.forget t.pursuits seq;
      []
  | Some _ ->
      Lbrm.Pursuit.escalate t.pursuits t.cfg ~levels:(levels t)
        ~source:t.source ~give_up:(give_up t ~now) seq

(* --- data-plane arrivals ----------------------------------------------- *)

let feed_tracers t ~now ~src msg (outcome : Site_population.outcome) =
  Array.iteri
    (fun i got -> if got then t.on_feed ~tracer:i ~now ~src msg)
    outcome.tracer_got

(* Every payload-bearing arrival — Data, payload heartbeat, Retrans,
   unicast or remulticast — is one repair/delivery round over the
   population; the model decides who it reaches. *)
let on_payload t ~now ~src ~seq msg =
  let outcome = Site_population.on_packet t.model ~seq in
  feed_tracers t ~now ~src msg outcome;
  if Trace.is_on t.sink then
    if outcome.first then
      trace t ~now
        (Trace.Pop_arrival
           {
             seq;
             members = Site_population.size t.model;
             missed = outcome.still_missing;
           })
    else if outcome.newly_delivered > 0 then
      trace t ~now
        (Trace.Pop_repair
           {
             seq;
             repaired = outcome.newly_delivered;
             remaining = outcome.still_missing;
           });
  let opened =
    match outcome.opened with
    | [] -> []
    | pairs -> open_pursuits t ~now (List.map fst pairs)
  in
  let own =
    if outcome.still_missing > 0 then
      if outcome.first then open_pursuits t ~now [ seq ] else []
    else if outcome.newly_delivered > 0 || outcome.first then
      Lbrm.Pursuit.close t.pursuits ~now seq
    else []
  in
  own @ opened

let on_heartbeat t ~now ~src ~seq ~payload msg =
  match payload with
  | Some _ when seq > 0 -> on_payload t ~now ~src ~seq msg
  | _ ->
      (* Control-plane heartbeats fan out to every tracer: real
         receivers hear them too, for silence and gap detection. *)
      for i = 0 to Site_population.tracers t.model - 1 do
        t.on_feed ~tracer:i ~now ~src msg
      done;
      if seq = 0 then []
      else
        let newly = Site_population.on_heartbeat t.model ~seq in
        open_pursuits t ~now (List.map fst newly)

let handle_message t ~now ~src msg =
  match msg with
  | Message.Data { seq; _ } -> heard t ~now :: on_payload t ~now ~src ~seq msg
  | Message.Heartbeat { seq; payload; _ } ->
      heard t ~now :: on_heartbeat t ~now ~src ~seq ~payload msg
  | Message.Retrans { seq; _ } ->
      heard t ~now :: on_payload t ~now ~src ~seq msg
  | Message.Primary_is { logger } ->
      let loggers, actions =
        Lbrm.Pursuit.on_primary_is t.pursuits t.loggers logger
      in
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
  | K_silence ->
      let ask =
        match logger_at t 0 with
        | Some logger
          when Site_population.highest t.model > 0 || t.last_heard > 0. ->
            t.nacks_sent <- t.nacks_sent + 1;
            if Trace.is_on t.sink then
              trace t ~now
                (Trace.Nack_sent { dest = logger; level = 0; seqs = [] });
            [ Lbrm.Io.send_to logger (Message.Nack { seqs = [] }) ]
        | _ -> []
      in
      (Notify (N_silence (now -. t.last_heard)) :: ask) @ [ arm_silence t ]
  | _ -> []

let handlers ?on_notice t =
  {
    Handlers.on_message = handle_message t;
    on_timer = handle_timer t;
    on_deliver = None;
    on_notice;
  }
