(* What one round of a workload reports, and the clocks it is timed
   with.  A run repeats rounds until its time is up; see lbrm_perf.ml. *)

type t = {
  setup_s : float;  (* round start to the first timed send *)
  wall_s : float;  (* timed phase, wall clock *)
  cpu_user_s : float;  (* timed phase, this process *)
  cpu_sys_s : float;
  deliveries : int;  (* application deliveries in the timed phase *)
  attempted : int;  (* receiver-packet deliveries owed *)
  failed : int;  (* of those, not made *)
  errors : string list;  (* failed output checks *)
  minor_words : float;  (* timed phase *)
  major_collections : int;  (* timed phase *)
  latency : (string * float) list;
      (* protocol-clock latencies and traffic per delivery; the same in
         every round of a simulated run *)
  counts : (string * float) list;
      (* per-layer work counts; exact in simulated runs *)
  spans : (string * float) list;  (* per-layer time, traced rounds only *)
}

let now = Lbrm_run.Sockmsg.monotonic_now

type cpu = { user : float; sys : float }

let cpu () =
  let t = Unix.times () in
  { user = t.Unix.tms_utime; sys = t.Unix.tms_stime }

(* Wall time, CPU, minor words and major collections spent in [f]. *)
let timed f =
  let st0 = Gc.quick_stat () in
  let w0 = Gc.minor_words () in
  let c0 = cpu () in
  let t0 = now () in
  let r = f () in
  let wall = now () -. t0 in
  let c1 = cpu () in
  let words = Gc.minor_words () -. w0 in
  let st1 = Gc.quick_stat () in
  ( r,
    wall,
    { user = c1.user -. c0.user; sys = c1.sys -. c0.sys },
    words,
    st1.Gc.major_collections - st0.Gc.major_collections )

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * Sys.word_size / 8)
  /. 1e6

(* The protocol machines' work counts, summed over the deployment's
   agents. *)
let machine_counts source ~loggers ~receivers =
  let fl = float_of_int in
  let sum f l = fl (List.fold_left (fun acc x -> acc + f x) 0 l) in
  [
    ("source.data_multicasts", fl (Lbrm.Source.data_multicasts source));
    ("source.heartbeats", fl (Lbrm.Source.heartbeats_sent source));
    ("receiver.nacks", sum Lbrm.Receiver.nacks_sent receivers);
    ("receiver.recovered", sum Lbrm.Receiver.recovered receivers);
    ("receiver.rediscoveries", sum Lbrm.Receiver.rediscoveries receivers);
    ("logger.requests_served", sum Lbrm.Logger.requests_served loggers);
    ("logger.remulticasts", sum Lbrm.Logger.remulticasts loggers);
    ("logger.uplink_nacks", sum Lbrm.Logger.uplink_nacks loggers);
  ]
