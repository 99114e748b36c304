(* Output checks and statistics, computed apart from the program.

   Every figure here is derived from the benchmark's own records: the
   send log it generated from the seed (payload bytes and send time per
   sequence number) and the deliveries the program handed to the
   application.  Nothing is compared against a stored copy of an
   earlier run's output. *)

module Sample = Lbrm_util.Stats.Sample

(* ---- delivery records ------------------------------------------------ *)

(* One checker covers a set of receivers (indexed [0, receivers)) and a
   send log of [packets] payloads, sequence numbers 1..packets.  Each
   delivery must be of a sequence number that was sent, must not repeat,
   must carry exactly the logged payload bytes, must not arrive before
   light could carry it along its path ([min_latency]), and the
   first-transmission (non-recovered) deliveries of one receiver must
   arrive in increasing sequence order — the links are FIFO and the
   receiver hands over a first transmission as soon as it arrives.
   Recovered packets are delivered when the repair lands (LBRM delivers
   immediately and unordered), so they are checked for exactly-once and
   content only. *)

type t = {
  receivers : int;
  payloads : string array;  (* index = seq; slot 0 unused *)
  sent_at : float array;  (* protocol-clock send time per seq *)
  mutable sent : int;  (* highest seq sent so far *)
  got : Bytes.t;  (* receivers x (packets + 1) delivery bitmap *)
  last_first : int array;  (* per receiver: last first-transmission seq *)
  min_latency : int -> recovered:bool -> float;
  mutable deliveries : int;
  mutable recovered : int;
  mutable errors : int;
  mutable first_errors : string list;  (* newest first, at most 8 *)
  mutable sample_from : int;  (* latencies are kept for seqs from here *)
  first_lat : Sample.t;  (* first-transmission latency, seconds *)
  repair_lat : Sample.t;  (* recovered-delivery latency, seconds *)
}

let create ~receivers ~payloads ~min_latency =
  let packets = Array.length payloads - 1 in
  {
    receivers;
    payloads;
    sent_at = Array.make (packets + 1) Float.nan;
    sent = 0;
    got = Bytes.make (receivers * (packets + 1)) '\000';
    last_first = Array.make receivers 0;
    min_latency;
    deliveries = 0;
    recovered = 0;
    errors = 0;
    first_errors = [];
    sample_from = 1;
    first_lat = Sample.create ();
    repair_lat = Sample.create ();
  }

let packets c = Array.length c.payloads - 1

let fail c msg =
  c.errors <- c.errors + 1;
  if List.length c.first_errors < 8 then c.first_errors <- msg :: c.first_errors

(* The generator sent [seq] at protocol-clock time [now]. *)
let sent c ~seq ~now =
  if seq <> c.sent + 1 || seq > packets c then
    fail c (Printf.sprintf "send log: sent seq %d after %d" seq c.sent)
  else begin
    c.sent <- seq;
    c.sent_at.(seq) <- now
  end

let deliver c ~receiver:r ~seq ~payload ~recovered ~now =
  if r < 0 || r >= c.receivers then
    fail c (Printf.sprintf "delivery at unknown receiver %d" r)
  else if seq < 1 || seq > c.sent then
    fail c (Printf.sprintf "receiver %d: seq %d was never sent" r seq)
  else begin
    let bit = (r * (packets c + 1)) + seq in
    if Bytes.get c.got bit <> '\000' then
      fail c (Printf.sprintf "receiver %d: seq %d delivered twice" r seq)
    else begin
      Bytes.set c.got bit '\001';
      c.deliveries <- c.deliveries + 1;
      if not (String.equal payload c.payloads.(seq)) then
        fail c (Printf.sprintf "receiver %d: seq %d payload differs from the send log" r seq);
      if not recovered then begin
        if seq <= c.last_first.(r) then
          fail c
            (Printf.sprintf "receiver %d: first transmission %d after %d" r seq
               c.last_first.(r));
        c.last_first.(r) <- seq
      end;
      let latency = now -. c.sent_at.(seq) in
      if latency < c.min_latency r ~recovered then
        fail c
          (Printf.sprintf "receiver %d: seq %d %s after %.6f s, below the %.6f s path bound"
             r seq
             (if recovered then "repaired" else "delivered")
             latency (c.min_latency r ~recovered));
      if recovered then c.recovered <- c.recovered + 1;
      if seq >= c.sample_from then
        Sample.add (if recovered then c.repair_lat else c.first_lat) latency
    end
  end

(* Keep latencies only for [seq] and later (leaving out a warm-up). *)
let sample_from c seq = c.sample_from <- seq

(* Every receiver has [seq]. *)
let delivered_everywhere c seq =
  let stride = packets c + 1 in
  let rec go r = r = c.receivers || (Bytes.get c.got ((r * stride) + seq) <> '\000' && go (r + 1)) in
  seq >= 1 && seq <= c.sent && go 0

(* Receiver-packet deliveries still owed for everything sent. *)
let missing c = (c.receivers * c.sent) - c.deliveries

(* ---- whole-run checks ------------------------------------------------ *)

(* A failed check is a message; the run is correct when the list is
   empty.  These take plain numbers so the self-test can feed them
   corrupted records. *)

let at_least ~what ~value ~bound =
  if value >= bound then []
  else [ Printf.sprintf "%s = %d, below its lower bound %d" what value bound ]

let positive ~what value =
  if value > 0 then [] else [ Printf.sprintf "%s = %d: the layer did not run" what value ]

let zero ~what value =
  if value = 0 then [] else [ Printf.sprintf "%s = %d, expected 0" what value ]

(* A metric computed from an empty sample set, or a zero division,
   must not read as a figure. *)
let finite ~what value =
  if Float.is_finite value then []
  else [ Printf.sprintf "%s = %g: not a finite number" what value ]

let within ~what ~value ~limit =
  if Float.abs value <= limit then []
  else [ Printf.sprintf "%s = %g, outside +/-%g" what value limit ]

let delivery_errors c =
  List.rev c.first_errors
  @ (if c.errors > 8 then [ Printf.sprintf "... %d delivery errors in all" c.errors ]
     else [])
  @ zero ~what:"receiver-packet deliveries missing" (missing c)

(* ---- self-test: every check rejects a corrupted record --------------- *)

let selftest () =
  let payloads = [| ""; "alpha"; "bravo"; "charlie" |] in
  let min_latency _ ~recovered = if recovered then 0.02 else 0.01 in
  let fresh () =
    let c = create ~receivers:2 ~payloads ~min_latency in
    sent c ~seq:1 ~now:0.;
    sent c ~seq:2 ~now:1.;
    sent c ~seq:3 ~now:2.;
    c
  in
  let ok r seq c =
    deliver c ~receiver:r ~seq ~payload:payloads.(seq) ~recovered:false
      ~now:(c.sent_at.(seq) +. 0.05)
  in
  let clean c = delivery_errors c = [] in
  let expect what cond =
    if not cond then begin
      Printf.printf "selftest FAILED: %s\n" what;
      exit 1
    end
  in
  let c = fresh () in
  List.iter (fun (r, s) -> ok r s c) [ (0, 1); (0, 2); (0, 3); (1, 1); (1, 2) ];
  deliver c ~receiver:1 ~seq:3 ~payload:"charlie" ~recovered:true ~now:2.5;
  expect "a complete record passes" (clean c);
  expect "latency samples are split by kind"
    (Sample.count c.first_lat = 5 && Sample.count c.repair_lat = 1);
  let c = fresh () in
  List.iter (fun (r, s) -> ok r s c) [ (0, 1); (0, 2); (0, 3); (1, 1); (1, 3) ];
  expect "a dropped delivery is caught" (missing c = 1 && not (clean c));
  let c = fresh () in
  List.iter (fun (r, s) -> ok r s c)
    [ (0, 1); (0, 2); (0, 3); (1, 1); (1, 2); (1, 3); (1, 2) ];
  expect "a duplicated delivery is caught" (c.errors = 1 && not (clean c));
  let c = fresh () in
  List.iter (fun (r, s) -> ok r s c) [ (0, 1); (0, 3); (0, 2); (1, 1); (1, 2); (1, 3) ];
  expect "a reordered first transmission is caught" (c.errors = 1);
  let c = fresh () in
  List.iter (fun (r, s) -> ok r s c) [ (0, 1); (0, 2); (0, 3); (1, 1); (1, 2) ];
  deliver c ~receiver:1 ~seq:3 ~payload:"charliE" ~recovered:false ~now:2.5;
  expect "altered payload bytes are caught" (c.errors = 1);
  let c = fresh () in
  List.iter (fun (r, s) -> ok r s c) [ (0, 1); (0, 2); (0, 3); (1, 1); (1, 2) ];
  deliver c ~receiver:1 ~seq:3 ~payload:"charlie" ~recovered:true ~now:2.015;
  expect "a repair faster than its path is caught" (c.errors = 1);
  let c = fresh () in
  deliver c ~receiver:0 ~seq:4 ~payload:"delta" ~recovered:false ~now:3.;
  expect "an unsent sequence number is caught" (c.errors = 1);
  let c = fresh () in
  sent c ~seq:2 ~now:3.;
  expect "a gap in the send log is caught" (c.errors = 1);
  expect "tail bytes below the data volume are caught"
    (at_least ~what:"tail bytes" ~value:99 ~bound:100 <> []
    && at_least ~what:"tail bytes" ~value:100 ~bound:100 = []);
  expect "a layer that did not run is caught"
    (positive ~what:"archive.reads" 0 <> [] && positive ~what:"archive.reads" 1 = []);
  expect "a missing modelled receiver is caught"
    (zero ~what:"population missing" 1 <> [] && zero ~what:"population missing" 0 = []);
  expect "a metric without samples is caught"
    (finite ~what:"repair_p50_ms" (Sample.median (Sample.create ())) <> []
    && finite ~what:"repair_p50_ms" 0. = []);
  expect "tracer disagreement is caught"
    (within ~what:"z" ~value:(-4.6) ~limit:4.5 <> []
    && within ~what:"z" ~value:4.4 ~limit:4.5 = []);
  print_endline "perfbench selftest: all checks reject corrupted records"
