open Lbrm.Io

type ('ctx, 'h) backend = {
  now : unit -> float;
  send : 'ctx -> dest -> Lbrm_wire.Message.t -> unit;
  arm : float -> (unit -> unit) -> 'h;
  cancel : 'h -> unit;
  join : 'ctx -> int -> unit;
  leave : 'ctx -> int -> unit;
  received : 'ctx -> Lbrm_wire.Message.t -> unit;
  delivered : 'ctx -> recovered:bool -> unit;
  noticed : 'ctx -> notice -> unit;
}

type ('ctx, 'h) t = {
  backend : ('ctx, 'h) backend;
  ctx : 'ctx;
  handlers : Handlers.t;
  timers : (timer_key, 'h) Hashtbl.t;
}

let create backend ctx handlers =
  { backend; ctx; handlers; timers = Hashtbl.create 16 }

let rec execute d action =
  match action with
  | Send (dest, msg) -> d.backend.send d.ctx dest msg
  | Set_timer (key, delay) ->
      (match Hashtbl.find_opt d.timers key with
      | Some h -> d.backend.cancel h
      | None -> ());
      let h =
        d.backend.arm delay (fun () ->
            Hashtbl.remove d.timers key;
            perform d (d.handlers.on_timer ~now:(d.backend.now ()) key))
      in
      Hashtbl.replace d.timers key h
  | Cancel_timer key -> (
      match Hashtbl.find_opt d.timers key with
      | Some h ->
          d.backend.cancel h;
          Hashtbl.remove d.timers key
      | None -> ())
  | Deliver { seq; payload; recovered } -> (
      d.backend.delivered d.ctx ~recovered;
      match d.handlers.on_deliver with
      | Some f -> f ~now:(d.backend.now ()) ~seq ~payload ~recovered
      | None -> ())
  | Notify notice -> (
      d.backend.noticed d.ctx notice;
      match d.handlers.on_notice with
      | Some f -> f ~now:(d.backend.now ()) notice
      | None -> ())
  | Join group -> d.backend.join d.ctx group
  | Leave group -> d.backend.leave d.ctx group

and perform d = function
  | [] -> ()
  | action :: rest ->
      execute d action;
      perform d rest

let on_message d ~src msg =
  d.backend.received d.ctx msg;
  perform d (d.handlers.on_message ~now:(d.backend.now ()) ~src msg)

let crash d =
  Hashtbl.iter (fun _ h -> d.backend.cancel h) d.timers;
  Hashtbl.reset d.timers
