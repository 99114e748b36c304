(* LBRM end-to-end benchmark: one workload per process.

     lbrm_perf.exe --workload NAME --seed N --seconds S --trace 0|1
     lbrm_perf.exe --selftest

   A workload has [inputs] inputs per seed: input [j] is everything a
   round generates from the seed and [j].  A run makes rounds on inputs
   0, 1, ..., inputs - 1, 0, 1, ... until [S] seconds have passed and
   every input has run once; each round sets its deployment up afresh,
   so set-up time is sampled once per round and reported as the median.
   Each figure of an input is the median over that input's rounds: the
   machine this runs on is shared, and a median is the statistic its
   neighbours move least, where the fastest round or a latency read
   from it swings with the odd quiet or busy second.  Throughput and CPU
   per delivery sum the inputs' medians; latency and traffic metrics
   are the median over the inputs; peak heap is read once every input
   has run once.

   With [--trace 0] the last line of output is a JSON object with the
   end-to-end metrics.  With [--trace 1] every round repeats input 0,
   untraced and traced rounds alternating; the simulated workloads'
   traced counts must equal the untraced ones, and the JSON carries the
   per-layer metrics: work counts and span times from the traced rounds,
   CPU and GC figures from the untraced ones, and the tracing overhead
   as the difference of their median wall times.  perfbench/README.md describes the
   workloads and metrics. *)

module R = Perf_round

type workload = {
  name : string;
  deterministic : bool;  (* equal inputs give equal work counts *)
  inputs : int;
  round : seed:int -> index:int -> traced:bool -> R.t;
}

let workloads =
  [
    {
      name = "fig1_recovery";
      deterministic = true;
      inputs = 3;
      round = Perf_sim.round Perf_sim.fig1_recovery;
    };
    {
      name = "burst_archive";
      deterministic = true;
      inputs = 10;
      round = Perf_sim.round Perf_sim.burst_archive;
    };
    { name = "udp_loopback"; deterministic = false; inputs = 3; round = Perf_udp.round };
  ]

let end_to_end =
  [
    ("setup_s", "s");
    ("deliveries_per_s", "1/s");
    ("peak_heap_mb", "MB");
    ("cpu_us_per_delivery", "us");
    ("vt_repair_p50_s", "s");
    ("vt_repair_p99_s", "s");
    ("tail_bytes_per_delivery", "bytes");
    ("delivery_p50_ms", "ms");
    ("delivery_p99_ms", "ms");
    ("repair_p50_ms", "ms");
  ]

(* Every workload reports every per-layer metric; a layer the workload
   does not run reads 0. *)
let per_layer =
  List.concat_map
    (fun k ->
      [
        ("engine." ^ k ^ ".events", "count");
        ("engine." ^ k ^ ".s", "s");
        ("engine." ^ k ^ ".words", "words");
      ])
    [ "packet"; "timer"; "app" ]
  @ [
      ("net.link_packets", "count");
      ("net.drops_loss", "count");
      ("net.drops_queue", "count");
      ("net.tail_bytes", "bytes");
      ("net.mcast_tree_builds", "count");
      ("net.mcast_cache_hits", "count");
      ("source.data_multicasts", "count");
      ("source.heartbeats", "count");
      ("receiver.nacks", "count");
      ("receiver.recovered", "count");
      ("receiver.rediscoveries", "count");
      ("logger.requests_served", "count");
      ("logger.remulticasts", "count");
      ("logger.uplink_nacks", "count");
      ("log_store.evictions", "count");
      ("archive.reads", "count");
      ("archive.rotations", "count");
      ("archive.compactions", "count");
      ("population.nacks", "count");
      ("population.nacks_represented", "count");
      ("population.recovered", "count");
      ("cpu.user_s", "s");
      ("cpu.sys_s", "s");
      ("cpu.busy_frac", "ratio");
      ("sockmsg.tx_batches", "count");
      ("sockmsg.tx_datagrams", "count");
      ("sockmsg.rx_batches", "count");
      ("sockmsg.rx_datagrams", "count");
      ("sockmsg.tx.gso", "count");
      ("sockmsg.tx.mmsg", "count");
      ("sockmsg.tx.sendto", "count");
      ("buf_pool.fallbacks", "count");
      ("buf_pool.max_outstanding", "count");
      ("udp_runtime.injected_drops", "count");
      ("machines.source.s", "s");
      ("machines.logger.s", "s");
      ("machines.receiver.s", "s");
      ("codec.encode_ns", "ns");
      ("codec.decode_ns", "ns");
      ("codec.bytes_per_datagram", "bytes");
      ("gc.minor_words_per_delivery", "words");
      ("gc.major_collections", "count");
      ("trace.overhead_s", "s");
    ]

let usage () =
  prerr_endline
    "usage: lbrm_perf.exe --workload NAME --seed N --seconds S --trace 0|1\n\
    \       lbrm_perf.exe --selftest";
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref false in
  let rec go = function
    | "--selftest" :: _ ->
        Perf_check.selftest ();
        exit 0
    | "--workload" :: v :: rest ->
        workload := v;
        go rest
    | "--seed" :: v :: rest ->
        (match int_of_string_opt v with Some n -> seed := n | None -> usage ());
        go rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with
        | Some s when s > 0. -> seconds := s
        | _ -> usage ());
        go rest
    | "--trace" :: v :: rest ->
        (match v with "0" -> trace := false | "1" -> trace := true | _ -> usage ());
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match List.find_opt (fun w -> String.equal w.name !workload) workloads with
  | Some w -> (w, !seed, !seconds, !trace)
  | None ->
      Printf.eprintf "unknown workload %S (one of: %s)\n" !workload
        (String.concat ", " (List.map (fun w -> w.name) workloads));
      exit 2

(* A name a round does not report: [absent] is 0 for a per-layer
   metric of a layer the workload does not run, nan for an end-to-end
   metric, which every round must report. *)
let lookup ?(absent = 0.) name l =
  match List.assoc_opt name l with Some v -> v | None -> absent

let median f rounds =
  let s = Perf_check.Sample.create () in
  List.iter (fun r -> Perf_check.Sample.add s (f r)) rounds;
  Perf_check.Sample.median s

(* A value that is not finite has failed its check already and is
   written as 0 only to keep the line valid JSON. *)
let json_metrics l =
  let one (name, unit, v) =
    let v = if Float.is_finite v then v else 0. in
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit
  in
  "{" ^ String.concat ", " (List.map one l) ^ "}"

let () =
  let w, seed, seconds, traced = parse_args () in
  let start = R.now () in
  let heap_after_inputs = ref 0. in
  let rec loop acc =
    let index = if traced then 0 else List.length acc mod w.inputs in
    let traced_round = traced && List.length acc mod 2 = 1 in
    let r = w.round ~seed ~index ~traced:traced_round in
    let acc = acc @ [ r ] in
    Printf.printf "round %d%s: setup %.4f s, %d deliveries in %.4f s, %d failed, %d check errors\n%!"
      index
      (if traced_round then " (traced)" else "")
      r.R.setup_s r.R.deliveries r.R.wall_s r.R.failed (List.length r.R.errors);
    if List.length acc = w.inputs then heap_after_inputs := R.peak_heap_mb ();
    Gc.compact ();
    let wanted = if traced then 2 else w.inputs in
    if R.now () -. start < seconds || List.length acc < wanted then loop acc else acc
  in
  let rounds = loop [] in
  let first = List.hd rounds in
  (* Every round of a traced run has the same inputs; in a simulation
     tracing must not change the work done. *)
  let errors =
    List.concat_map (fun r -> r.R.errors) rounds
    @
    if not (traced && w.deterministic) then []
    else
      List.concat_map
        (fun r ->
          List.filter_map
            (fun (k, v) ->
              if Float.equal (lookup k first.R.counts) v then None
              else Some (Printf.sprintf "traced count %s differs from the untraced run" k))
            r.R.counts)
        (List.tl rounds)
  in
  let attempted = List.fold_left (fun a r -> a + r.R.attempted) 0 rounds in
  let failed = List.fold_left (fun a r -> a + r.R.failed) 0 rounds in
  let metrics =
    if not traced then
      let per_input f =
        List.init w.inputs (fun j ->
            median f (List.filteri (fun i _ -> i mod w.inputs = j) rounds))
      in
      let sum f = List.fold_left ( +. ) 0. (per_input f) in
      let value = function
        | "setup_s" -> median (fun r -> r.R.setup_s) rounds
        | "deliveries_per_s" ->
            sum (fun r -> float_of_int r.R.deliveries) /. sum (fun r -> r.R.wall_s)
        | "peak_heap_mb" -> !heap_after_inputs
        | "cpu_us_per_delivery" ->
            1e6
            *. sum (fun r -> r.R.cpu_user_s +. r.R.cpu_sys_s)
            /. sum (fun r -> float_of_int r.R.deliveries)
        | name ->
            median Fun.id (per_input (fun r -> lookup ~absent:Float.nan name r.R.latency))
      in
      List.map (fun (name, unit) -> (name, unit, value name)) end_to_end
    else begin
      let traced_rounds = List.filteri (fun i _ -> i mod 2 = 1) rounds in
      let plain = List.filteri (fun i _ -> i mod 2 = 0) rounds in
      let value name =
        match name with
        | "cpu.user_s" -> median (fun r -> r.R.cpu_user_s) plain
        | "cpu.sys_s" -> median (fun r -> r.R.cpu_sys_s) plain
        | "cpu.busy_frac" ->
            median (fun r -> (r.R.cpu_user_s +. r.R.cpu_sys_s) /. r.R.wall_s) plain
        | "gc.minor_words_per_delivery" ->
            median (fun r -> r.R.minor_words /. float_of_int (max 1 r.R.deliveries)) plain
        | "gc.major_collections" ->
            median (fun r -> float_of_int r.R.major_collections) plain
        | "trace.overhead_s" ->
            median (fun r -> r.R.wall_s) traced_rounds -. median (fun r -> r.R.wall_s) plain
        | _ when List.mem_assoc name first.R.counts ->
            median (fun r -> lookup name r.R.counts) traced_rounds
        | _ -> median (fun r -> lookup name r.R.spans) traced_rounds
      in
      List.map (fun (name, unit) -> (name, unit, value name)) per_layer
    end
  in
  let errors =
    List.sort_uniq String.compare
      (errors @ List.concat_map (fun (name, _, v) -> Perf_check.finite ~what:name v) metrics)
  in
  List.iter (fun e -> Printf.printf "CHECK FAILED: %s\n" e) errors;
  List.iter (fun (name, unit, v) -> Printf.printf "%-30s %16.6g %s\n" name v unit) metrics;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n%!"
    (errors = []) attempted failed (json_metrics metrics)
