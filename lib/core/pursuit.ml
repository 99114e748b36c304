module Message = Lbrm_wire.Message
open Io

type address = Message.address
type seq = Lbrm_util.Seqno.t

type pursuit = {
  mutable level : int; (* index into the logger hierarchy *)
  mutable attempts : int; (* NACKs sent so far *)
  mutable asked_source : bool; (* Who_is_primary already tried *)
  mutable needs_send : bool; (* include in the next NACK flush *)
  mutable round : int; (* flush that last NACKed it; 0 = none yet *)
  detected_at : float;
}

type t = { table : (seq, pursuit) Hashtbl.t; mutable rounds : int }

let create () = { table = Hashtbl.create 32; rounds = 0 }

let open_ t ~now seqs =
  match List.filter (fun s -> not (Hashtbl.mem t.table s)) seqs with
  | [] -> []
  | fresh ->
      List.iter
        (fun s ->
          Hashtbl.replace t.table s
            {
              level = 0;
              attempts = 0;
              asked_source = false;
              needs_send = true;
              round = 0;
              detected_at = now;
            })
        fresh;
      fresh

let close t ~now seq =
  match Hashtbl.find_opt t.table seq with
  | None -> []
  | Some p ->
      Hashtbl.remove t.table seq;
      [
        Cancel_timer (K_nack_escalate seq);
        Notify (N_recovered { seq; latency = now -. p.detected_at });
      ]

let forget t seq = Hashtbl.remove t.table seq
let level t seq = Option.map (fun p -> p.level) (Hashtbl.find_opt t.table seq)

let nack_round t seq =
  match Hashtbl.find_opt t.table seq with Some p -> p.round | None -> 0

let restart_all t =
  let any = ref false in
  Hashtbl.iter
    (fun _ p ->
      any := true;
      p.level <- 0;
      p.needs_send <- true)
    t.table;
  !any

let drop_level0 t =
  Hashtbl.iter (fun _ p -> p.level <- Stdlib.max 0 (p.level - 1)) t.table

let fold_due t ~select f init =
  t.rounds <- t.rounds + 1;
  let by_level = Hashtbl.create 4 in
  Hashtbl.iter
    (fun seq p ->
      if p.needs_send then
        match select seq with
        | None -> ()
        | Some x ->
            let existing =
              Option.value ~default:[] (Hashtbl.find_opt by_level p.level)
            in
            Hashtbl.replace by_level p.level (x :: existing);
            p.attempts <- p.attempts + 1;
            p.needs_send <- false;
            p.round <- t.rounds)
    t.table;
  Hashtbl.fold (fun level xs acc -> f ~level xs acc) by_level init

let escalation_timers (cfg : Config.t) seqs =
  List.map (fun s -> Set_timer (K_nack_escalate s, cfg.nack_timeout)) seqs

let escalate t (cfg : Config.t) ~levels ~source ~give_up seq =
  match Hashtbl.find_opt t.table seq with
  | None -> []
  | Some p ->
      if p.attempts < (p.level + 1) * cfg.nack_retry_limit then begin
        (* Retry at the same level. *)
        p.needs_send <- true;
        [ Set_timer (K_nack_flush, 0.) ]
      end
      else if p.level + 1 < levels then begin
        p.level <- p.level + 1;
        p.needs_send <- true;
        [ Set_timer (K_nack_flush, 0.) ]
      end
      else if not p.asked_source then begin
        (* The whole hierarchy failed: maybe the primary moved. *)
        p.asked_source <- true;
        p.attempts <- p.level * cfg.nack_retry_limit;
        [
          Io.send_to source Message.Who_is_primary;
          Set_timer (K_nack_escalate seq, 2. *. cfg.nack_timeout);
        ]
      end
      else begin
        Hashtbl.remove t.table seq;
        give_up seq;
        [ Cancel_timer (K_nack_escalate seq); Notify (N_gave_up seq) ]
      end

let on_primary_is t loggers logger =
  let rec replace_last = function
    | [] | [ _ ] -> [ logger ]
    | x :: rest -> x :: replace_last rest
  in
  Hashtbl.iter (fun _ p -> p.needs_send <- true) t.table;
  (replace_last loggers, [ Set_timer (K_nack_flush, 0.) ])
