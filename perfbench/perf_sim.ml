(* The two simulated workloads: the paper's Figure 1 deployment
   (fig1_recovery) and aggregate site populations under burst loss with
   a quorum-replicated, disk-backed log (burst_archive).

   A round builds a fresh deployment from the run's seed and the
   round's index, sends the benchmark's own payloads on a Poisson
   virtual-time schedule, and steps the engine until every receiver has
   every packet.  The simulator is deterministic: the same seed and
   index give the same work, event for event. *)

module Scenario = Lbrm_run.Scenario
module Population = Lbrm_run.Population
module Engine = Lbrm_sim.Engine
module Topo = Lbrm_sim.Topo
module Net = Lbrm_sim.Net
module Loss = Lbrm_sim.Loss
module Builders = Lbrm_sim.Builders
module SP = Lbrm_sim.Site_population
module C = Perf_check

type spec = {
  tag : int;  (* mixed into the seed so workloads draw distinct inputs *)
  sites : int;
  receivers_per_site : int;
  population : Scenario.population_spec option;
  packets : int;
  mean_interval : float;  (* virtual seconds between sends, mean *)
  tail_loss : unit -> Loss.t;  (* one fresh model per site *)
  cfg : Lbrm.Config.t;
  replica_count : int;
  archive : bool;
}

let payload_bytes = 128

(* Link delays of Builders.dis_wan's documented defaults; the round
   checks that the built topology agrees before relying on them. *)
let lan_delay = 0.9e-3
let tail_delay = 2e-3

let fig1_recovery =
  {
    tag = 1;
    sites = 50;
    receivers_per_site = 20;
    population = None;
    packets = 1000;
    mean_interval = 0.1;
    tail_loss = (fun () -> Loss.bernoulli 0.03);
    cfg = Lbrm.Config.default;
    replica_count = 0;
    archive = false;
  }

let burst_archive =
  {
    tag = 2;
    sites = 32;
    receivers_per_site = 0;
    population = Some (Scenario.population_spec ~members:2000 ~tracers:2 ~lan_loss:0.005 ());
    packets = 1000;
    mean_interval = 0.1;
    tail_loss = (fun () -> Loss.gilbert ~mean_good:5. ~mean_bad:0.1 ());
    cfg =
      {
        Lbrm.Config.default with
        replication = Lbrm.Config.R_quorum;
        archive_segment_bytes = 16384;
        (* the smallest window at which no receiver-packet is given up;
           see perfbench/README.md *)
        retention = Lbrm.Log_store.Keep_last 2;
      };
    replica_count = 2;
    archive = true;
  }

(* ---- traced stepping: charge each event to the kind that fired ------- *)

let kinds = [| Engine.kind_packet; Engine.kind_timer; Engine.kind_app |]
let kind_names = [| "packet"; "timer"; "app"; "other" |]

type attribution = {
  events : float array;
  seconds : float array;
  words : float array;
}

let attribution () =
  { events = Array.make 4 0.; seconds = Array.make 4 0.; words = Array.make 4 0. }

(* Minor words the measurement itself allocates per step (the boxed
   float results of the clock and word-counter reads). *)
let probe_words =
  lazy
    (let w0 = Gc.minor_words () in
     let c0 = Perf_round.now () in
     let c1 = Perf_round.now () in
     let w1 = Gc.minor_words () in
     ignore (c1 -. c0);
     w1 -. w0)

let step_traced e a =
  let fired = Array.map (fun kind -> Engine.kind_fired e ~kind) kinds in
  let w0 = Gc.minor_words () in
  let c0 = Perf_round.now () in
  let more = Engine.step e in
  let c1 = Perf_round.now () in
  let w1 = Gc.minor_words () in
  let k = ref 3 in
  Array.iteri
    (fun i kind -> if !k = 3 && Engine.kind_fired e ~kind > fired.(i) then k := i)
    kinds;
  if more then begin
    a.events.(!k) <- a.events.(!k) +. 1.;
    a.seconds.(!k) <- a.seconds.(!k) +. (c1 -. c0);
    a.words.(!k) <- a.words.(!k) +. (w1 -. w0 -. Lazy.force probe_words)
  end;
  more

(* ---- one round ------------------------------------------------------- *)

let sum_array f a = Array.fold_left (fun acc x -> acc + f x) 0 a

let all_links topo =
  List.concat
    (List.init (Topo.node_count topo) (fun n -> Topo.links_from topo n))

let round spec ~seed ~index ~traced =
  let t0 = Perf_round.now () in
  let rs = Random.State.make [| seed; spec.tag; index |] in
  (* Inputs: per-site backbone delay (the WAN's geography), the send
     schedule and the payload bytes.  The source's site sits 5 ms from
     the backbone; the others are spread over 5-30 ms, one site in each
     of [sites - 1] equal strata, placed at random within its stratum
     and the strata dealt to sites at random.  Every seed so sees the
     same spread of distances, not a lucky or unlucky draw of them. *)
  let backbone =
    let n = spec.sites - 1 in
    let order = Array.init n Fun.id in
    for i = n - 1 downto 1 do
      let j = Random.State.int rs (i + 1) in
      let t = order.(i) in
      order.(i) <- order.(j);
      order.(j) <- t
    done;
    Array.init spec.sites (fun site ->
        if site = 0 then 5e-3
        else
          5e-3
          +. (25e-3 *. (float_of_int order.(site - 1) +. Random.State.float rs 1.)
             /. float_of_int n))
  in
  let send_time = Array.make (spec.packets + 1) 0. in
  for i = 1 to spec.packets do
    let gap = -.spec.mean_interval *. Float.log (1. -. Random.State.float rs 1.) in
    send_time.(i) <- send_time.(i - 1) +. gap
  done;
  let payloads =
    Array.init (spec.packets + 1) (fun i ->
        if i = 0 then ""
        else String.init payload_bytes (fun _ -> Char.chr (Random.State.int rs 256)))
  in
  (* Receivers are laid out site-major: [receivers_per_site] individual
     receivers per site, then [tracers] tracer receivers per site. *)
  let tracers =
    match spec.population with Some p -> p.Scenario.tracers | None -> 0
  in
  let n_individual = spec.sites * spec.receivers_per_site in
  let n_receivers = n_individual + (spec.sites * tracers) in
  let site_of r =
    if r < n_individual then r / spec.receivers_per_site
    else (r - n_individual) / tracers
  in
  let path_delay site =
    if site = 0 then 2. *. lan_delay
    else (2. *. lan_delay) +. (2. *. tail_delay) +. backbone.(0) +. backbone.(site)
  in
  (* A repair needs at least a request and an answer on the LAN. *)
  let min_latency r ~recovered =
    path_delay (site_of r) +. if recovered then 2. *. lan_delay else 0.
  in
  let check = C.create ~receivers:n_receivers ~payloads ~min_latency in
  let index : (Topo.node_id, int) Hashtbl.t = Hashtbl.create (2 * n_receivers) in
  let stray = ref 0 in
  let repair_service = C.Sample.create () in
  let on_deliver node ~now ~seq ~payload ~recovered =
    match Hashtbl.find_opt index node with
    | Some r -> C.deliver check ~receiver:r ~seq ~payload ~recovered ~now
    | None -> incr stray
  in
  let on_notice node ~now:_ = function
    | Lbrm.Io.N_recovered { latency; _ } when Hashtbl.mem index node ->
        C.Sample.add repair_service latency
    | _ -> ()
  in
  let d =
    Scenario.standard ~cfg:spec.cfg ~seed:(Hashtbl.hash (seed, spec.tag, index))
      ~replica_count:spec.replica_count
      ~initial_estimate:(float_of_int spec.sites)
      ~backbone_delay:(fun i -> backbone.(i))
      ~tail_loss:(fun _ -> spec.tail_loss ())
      ~on_deliver ~on_notice ?site_population:spec.population ~archive:spec.archive
      ~sites:spec.sites ~receivers_per_site:spec.receivers_per_site ()
  in
  Array.iteri (fun r (_, node) -> Hashtbl.replace index node r) d.Scenario.receivers;
  Array.iteri
    (fun j (_, node) -> Hashtbl.replace index node (n_individual + j))
    d.Scenario.tracer_receivers;
  let topo = d.Scenario.wan.Builders.topo in
  let errors = ref [] in
  let err l = errors := !errors @ l in
  let delay_is what link want =
    if Float.abs (Topo.link_delay link -. want) > 1e-12 then
      err [ Printf.sprintf "%s delay %g s, the path bound assumes %g s" what (Topo.link_delay link) want ]
  in
  Array.iteri
    (fun i site ->
      delay_is "tail" site.Builders.tail_down tail_delay;
      match Topo.find_link topo ~src:site.Builders.gateway ~dst:site.Builders.hosts.(0) with
      | Some l -> delay_is "lan" l lan_delay
      | None -> err [ Printf.sprintf "site %d: no LAN link to host 0" i ])
    d.Scenario.wan.Builders.sites;
  if Array.length d.Scenario.receivers + Array.length d.Scenario.tracer_receivers <> n_receivers
  then err [ "deployment has a different receiver count than the layout" ];
  (* The generator: a chain of app events at the logged send times. *)
  let engine = Lbrm_run.Sim_runtime.engine d.Scenario.runtime in
  let rec arm i =
    Engine.post_at_kind engine ~kind:Engine.kind_app ~time:send_time.(i) (fun () ->
        Scenario.send d payloads.(i);
        C.sent check ~seq:(Lbrm.Source.last_seq d.Scenario.source) ~now:(Engine.now engine);
        if i < spec.packets then arm (i + 1))
  in
  arm 1;
  let modelled =
    Array.fold_left (fun acc (p, _) -> acc + Population.size p) 0 d.Scenario.populations
  in
  let modelled_owed = modelled * spec.packets in
  let modelled_delivered () = sum_array (fun (p, _) -> Population.delivered p) d.Scenario.populations in
  let complete () =
    check.C.deliveries = n_receivers * spec.packets
    && modelled_delivered () = modelled_owed
  in
  (* Completion is polled once a virtual second after the last send;
     a deployment that has not finished two minutes later has failed. *)
  let finished = ref false in
  let deadline = send_time.(spec.packets) +. 120. in
  let rec poll time =
    Engine.post_at_kind engine ~kind:Engine.kind_app ~time (fun () ->
        if complete () || time >= deadline then finished := true else poll (time +. 1.))
  in
  poll (send_time.(spec.packets) +. 1.);
  (* Retention on the disk tier: every 5 virtual seconds each logger
     reclaims the sealed segments wholly below the prefix that every
     receiver, individual, tracer and modelled, already has. *)
  let floor = ref 0 in
  let everywhere seq =
    C.delivered_everywhere check seq
    && Array.for_all
         (fun (p, _) -> SP.is_fully_delivered (Population.model p) ~seq)
         d.Scenario.populations
  in
  let rec compact time =
    Engine.post_at_kind engine ~kind:Engine.kind_app ~time (fun () ->
        while !floor < check.C.sent && everywhere (!floor + 1) do
          incr floor
        done;
        List.iter
          (fun l -> ignore (Lbrm.Logger.compact_archive l ~now:time ~floor:!floor : int))
          (d.Scenario.primary :: List.map fst d.Scenario.replicas
          @ Array.to_list (Array.map fst d.Scenario.secondaries));
        if not !finished then compact (time +. 5.))
  in
  if spec.archive then compact 5.;
  let setup_s = Perf_round.now () -. t0 in
  let attribution = attribution () in
  let (), wall_s, cpu, minor_words, major_collections =
    Perf_round.timed (fun () ->
        if traced then
          while (not !finished) && step_traced engine attribution do () done
        else
          while (not !finished) && Engine.step engine do () done)
  in
  (* ---- what happened, layer by layer ---- *)
  let net = Lbrm_run.Sim_runtime.net d.Scenario.runtime in
  let links = all_links topo in
  let sum_links f = List.fold_left (fun acc l -> acc + f l) 0 links in
  let tails = Array.to_list d.Scenario.wan.Builders.sites in
  let tail_bytes =
    List.fold_left
      (fun acc s -> acc + Topo.bytes_delivered s.Builders.tail_up + Topo.bytes_delivered s.Builders.tail_down)
      0 tails
  in
  let loggers =
    (d.Scenario.primary :: List.map fst d.Scenario.replicas)
    @ Array.to_list (Array.map fst d.Scenario.secondaries)
  in
  let sum_loggers f = List.fold_left (fun acc l -> acc + f l) 0 loggers in
  let all_receivers =
    Array.to_list (Array.map fst d.Scenario.receivers)
    @ Array.to_list (Array.map fst d.Scenario.tracer_receivers)
  in
  let archives = Hashtbl.fold (fun _ a acc -> a :: acc) d.Scenario.archives [] in
  let sum_archives f = List.fold_left (fun acc a -> acc + f a) 0 archives in
  let sum_pops f = sum_array (fun (p, _) -> f p) d.Scenario.populations in
  let evictions = sum_loggers (fun l -> Lbrm.Log_store.evictions (Lbrm.Logger.store l)) in
  let archive_reads = sum_archives Lbrm.Archive.reads in
  let fl = float_of_int in
  let counts =
    Perf_round.machine_counts d.Scenario.source ~loggers ~receivers:all_receivers
    @ [
      ("engine.packet.events", fl (Engine.kind_fired engine ~kind:Engine.kind_packet));
      ("engine.timer.events", fl (Engine.kind_fired engine ~kind:Engine.kind_timer));
      ("engine.app.events", fl (Engine.kind_fired engine ~kind:Engine.kind_app));
      ("net.link_packets", fl (sum_links Topo.packets_sent));
      ("net.drops_loss", fl (sum_links Topo.drops_loss));
      ("net.drops_queue", fl (sum_links Topo.drops_queue));
      ("net.tail_bytes", fl tail_bytes);
      ("net.mcast_tree_builds", fl (Net.mcast_tree_builds net));
      ("net.mcast_cache_hits", fl (Net.mcast_cache_hits net));
      ("log_store.evictions", fl evictions);
      ("archive.reads", fl archive_reads);
      ("archive.rotations", fl (sum_archives Lbrm.Archive.rotations));
      ("archive.compactions", fl (sum_archives Lbrm.Archive.compactions));
      ("population.nacks", fl (sum_pops Population.nacks_sent));
      ("population.nacks_represented", fl (sum_pops Population.nacks_represented));
      ("population.recovered", fl (sum_pops Population.recovered));
    ]
  in
  let spans =
    if not traced then []
    else
      List.concat
        (List.init 4 (fun k ->
             let name = "engine." ^ kind_names.(k) in
             [ (name ^ ".s", attribution.seconds.(k)); (name ^ ".words", attribution.words.(k)) ]))
  in
  (* ---- output checks ---- *)
  err (C.delivery_errors check);
  err (C.zero ~what:"deliveries to hosts outside the receiver layout" !stray);
  err
    (C.at_least ~what:"tail-circuit bytes" ~value:tail_bytes
       ~bound:(spec.sites * spec.packets * payload_bytes));
  if spec.population <> None then begin
    err (C.zero ~what:"population.missing" (sum_pops Population.missing));
    err (C.zero ~what:"population.gave_up" (sum_pops Population.gave_up));
    err (C.zero ~what:"modelled deliveries owed" (modelled_owed - modelled_delivered ()));
    (* Each site's agreement z counts a few dozen tracer misses, so its
       tail is skewed: across 32 sites and 10 inputs a run sees one
       |z| past 4.5 by chance every few dozen runs.  A broken joint
       sampler biases every site the same way, so the gate applies to
       the sites' z combined (their sum over the square root of their
       number, again standard normal when the model is right). *)
    let zs = Array.map (fun (p, _) -> SP.agreement_z (Population.model p)) d.Scenario.populations in
    err
      (C.within ~what:"tracer agreement z, sites combined"
         ~value:(Array.fold_left ( +. ) 0. zs /. Float.sqrt (float_of_int (Array.length zs)))
         ~limit:4.5)
  end;
  if spec.archive then begin
    err (C.positive ~what:"archive.reads" archive_reads);
    err (C.positive ~what:"log_store.evictions" evictions)
  end;
  err (C.positive ~what:"recovered deliveries" check.C.recovered);
  err (C.positive ~what:"first-transmission deliveries" (C.Sample.count check.C.first_lat));
  err (C.positive ~what:"N_recovered notices" (C.Sample.count repair_service));
  if traced then
    Array.iteri
      (fun i kind ->
        if attribution.events.(i) <> float_of_int (Engine.kind_fired engine ~kind) then
          err [ Printf.sprintf "traced %s events differ from the engine's count" kind_names.(i) ])
      kinds;
  let deliveries =
    if spec.population = None then check.C.deliveries else modelled_delivered ()
  in
  let attempted =
    if spec.population = None then n_receivers * spec.packets else modelled_owed
  in
  let latency =
    [
      ("vt_repair_p50_s", C.Sample.percentile check.C.repair_lat 50.);
      ("vt_repair_p99_s", C.Sample.percentile check.C.repair_lat 99.);
      ("repair_p50_ms", 1e3 *. C.Sample.percentile repair_service 50.);
      ("delivery_p50_ms", 1e3 *. C.Sample.percentile check.C.first_lat 50.);
      ("delivery_p99_ms", 1e3 *. C.Sample.percentile check.C.first_lat 99.);
      ("tail_bytes_per_delivery", fl tail_bytes /. fl (Stdlib.max 1 deliveries));
    ]
  in
  {
    Perf_round.setup_s;
    wall_s;
    cpu_user_s = cpu.Perf_round.user;
    cpu_sys_s = cpu.Perf_round.sys;
    deliveries;
    attempted;
    failed = attempted - deliveries;
    errors = !errors;
    minor_words;
    major_collections;
    latency;
    counts;
    spans;
  }
