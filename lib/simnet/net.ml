open Simkern

let latency = 1e-4
let bandwidth = 1e8
let local_latency = 5e-6
let local_bandwidth = 1e9

module Perturb = struct
  type spec = { loss : float; latency : float; jitter : float }

  let zero = { loss = 0.0; latency = 0.0; jitter = 0.0 }

  let check_spec ?(what = "Net.Perturb") s =
    if not (s.loss >= 0.0 && s.loss <= 1.0) then
      invalid_arg (Printf.sprintf "%s: loss must be within [0, 1] (got %g)" what s.loss);
    if not (s.latency >= 0.0) then
      invalid_arg
        (Printf.sprintf "%s: added latency must be non-negative (got %g)" what s.latency);
    if not (s.jitter >= 0.0) then
      invalid_arg (Printf.sprintf "%s: jitter must be non-negative (got %g)" what s.jitter)

  type profile = {
    base : spec;
    partition : (int list * int list) option;
    heal_at : float option;
    seed : int64 option;
  }

  let default_profile = { base = zero; partition = None; heal_at = None; seed = None }

  let check_profile p =
    check_spec ~what:"Net.Perturb profile" p.base;
    (match p.partition with
    | Some ([], _) | Some (_, []) ->
        invalid_arg "Net.Perturb profile: partition sides must be non-empty"
    | _ -> ());
    (match p.heal_at with
    | Some t when not (t >= 0.0) ->
        invalid_arg (Printf.sprintf "Net.Perturb profile: heal_at must be non-negative (got %g)" t)
    | _ -> ())

  let backoff ~rto_initial ~rto_max ~attempt =
    if attempt < 0 then invalid_arg "Net.Perturb.backoff: attempt must be >= 0";
    Float.min rto_max (rto_initial *. (2.0 ** float_of_int attempt))

  (* The reliable transport's retransmission limits. *)
  let rto_initial = 0.25
  let rto_max = 4.0
  let max_attempts = 8

  (* Perturbation state is kept O(active perturbations), never O(links):
     membership in a cut is a per-host byte map built once when
     the rule is installed (O(1) lookup per message, no list scans), and
     per-host degradations live in a host-indexed array with a dense
     "touched hosts" list so installing, querying and healing walk only
     the hosts a rule actually names. A cut's byte map uses two bits —
     bit 0 for side A, bit 1 for side B — so a host listed on both sides
     of a partition keeps the historical semantics exactly. *)
  (* A pair cut stores the exact (src, dst) set a topology component
     failure severs — deterministic routing makes that an arbitrary
     pair set, not a bipartition, so no byte map can express it.  The
     table is keyed on the sorted pair and never mutated after the rule
     is installed. *)
  type cut =
    | Cut_sets of Bytes.t
    | Cut_isolate of Bytes.t
    | Cut_pairs of (int, unit) Hashtbl.t

  (* Pair-level degradation (e.g. every intra-pod link of a fat tree):
     one immutable rule per [degrade_pairs] call, folded into [spec_for]
     by per-field max like host degradations — O(active pair rules) per
     message, zero when none are installed. *)
  type pair_rule = { pr_pairs : (int, unit) Hashtbl.t; pr_spec : spec }

  type stats = { dropped : int; delayed : int; retransmits : int; conn_timeouts : int }

  type t = {
    p_eng : Engine.t;
    mutable p_rng : Rng.t option;
    mutable p_seed : int64 option;
    mutable p_base : spec;
    mutable p_degraded : spec array;  (* indexed by host; [zero] = untouched *)
    mutable p_deg_hosts : int list;  (* dense set of hosts with an entry *)
    mutable p_cuts : cut list;
    mutable p_pair_rules : pair_rule list;
    mutable p_touched : bool;
    mutable p_dropped : int;
    mutable p_delayed : int;
    mutable p_retransmits : int;
    mutable p_conn_timeouts : int;
  }

  let make eng =
    {
      p_eng = eng;
      p_rng = None;
      p_seed = None;
      p_base = zero;
      p_degraded = [||];
      p_deg_hosts = [];
      p_cuts = [];
      p_pair_rules = [];
      p_touched = false;
      p_dropped = 0;
      p_delayed = 0;
      p_retransmits = 0;
      p_conn_timeouts = 0;
    }

  (* Byte map over the hosts a rule names, one (hosts, mark) group per
     side; reads beyond the map are 0 (not a member), so maps never need
     to know the cluster size. *)
  let member_map groups =
    let top =
      List.fold_left
        (fun acc (hs, _) -> List.fold_left (fun a h -> max a h) acc hs)
        (-1) groups
    in
    let m = Bytes.make (top + 1) '\000' in
    List.iter
      (fun (hs, mark) ->
        List.iter
          (fun h ->
            if h >= 0 then
              Bytes.unsafe_set m h
                (Char.chr (Char.code (Bytes.unsafe_get m h) lor mark)))
          hs)
      groups;
    m

  let member_bits m h =
    if h >= 0 && h < Bytes.length m then Char.code (Bytes.unsafe_get m h) else 0

  (* The perturbation RNG is derived lazily, the first time a rule is
     installed: a network that is never perturbed draws nothing from the
     engine RNG, keeping the reliable fast path byte-identical to a build
     without this layer. *)
  let rng p =
    match p.p_rng with
    | Some r -> r
    | None ->
        let r =
          match p.p_seed with
          | Some s -> Rng.create s
          | None -> Rng.split (Engine.rng p.p_eng)
        in
        p.p_rng <- Some r;
        r

  let touch p =
    p.p_touched <- true;
    ignore (rng p)

  let touched p = p.p_touched
  let note_retransmits p n = p.p_retransmits <- p.p_retransmits + n
  let note_conn_timeout p = p.p_conn_timeouts <- p.p_conn_timeouts + 1

  let stats p =
    {
      dropped = p.p_dropped;
      delayed = p.p_delayed;
      retransmits = p.p_retransmits;
      conn_timeouts = p.p_conn_timeouts;
    }

  let set_base p spec =
    check_spec spec;
    touch p;
    p.p_base <- spec

  let ensure_degraded p h =
    let n = Array.length p.p_degraded in
    if h >= n then begin
      let n' = max (h + 1) (max 8 (2 * n)) in
      let a = Array.make n' zero in
      Array.blit p.p_degraded 0 a 0 n;
      p.p_degraded <- a
    end

  let degrade p ~hosts spec =
    check_spec spec;
    touch p;
    (* Replace semantics per host, matching the historical behaviour:
       the latest [degrade] naming a host wins outright. *)
    List.iter
      (fun h ->
        if h >= 0 then begin
          ensure_degraded p h;
          if p.p_degraded.(h) == zero && not (spec == zero) then
            p.p_deg_hosts <- h :: p.p_deg_hosts;
          p.p_degraded.(h) <- spec
        end)
      hosts

  (* An empty side would install a rule that can never match while
     still flipping [touched] (arming the reliable transport and
     splitting the RNG) — silently changing behaviour with no fault
     present. Refuse it instead; the messages are pinned by a test. *)
  let partition p a b =
    if a = [] || b = [] then
      invalid_arg "Net.Perturb.partition: empty host set (both sides need at least one host)";
    touch p;
    p.p_cuts <- Cut_sets (member_map [ (a, 1); (b, 2) ]) :: p.p_cuts

  let isolate p hosts =
    if hosts = [] then
      invalid_arg "Net.Perturb.isolate: empty host set (nothing to isolate)";
    touch p;
    p.p_cuts <- Cut_isolate (member_map [ (hosts, 1) ]) :: p.p_cuts

  (* An unordered host pair as one int, so a per-message lookup builds
     no tuple; injective for hosts below 2^31. *)
  let pair_key a b = (min a b lsl 31) lor max a b

  let pair_table ~what pairs =
    if pairs = [] then invalid_arg (what ^ ": empty pair set");
    let tbl = Hashtbl.create (max 16 (List.length pairs)) in
    List.iter
      (fun (a, b) -> if a <> b && a >= 0 && b >= 0 then Hashtbl.replace tbl (pair_key a b) ())
      pairs;
    tbl

  let cut_pairs p pairs =
    let tbl = pair_table ~what:"Net.Perturb.cut_pairs" pairs in
    touch p;
    p.p_cuts <- Cut_pairs tbl :: p.p_cuts

  let degrade_pairs p ~pairs spec =
    check_spec spec;
    let tbl = pair_table ~what:"Net.Perturb.degrade_pairs" pairs in
    touch p;
    p.p_pair_rules <- { pr_pairs = tbl; pr_spec = spec } :: p.p_pair_rules

  (* [heal] removes every rule (partitions, degradations) but
     leaves the transport hardening armed so in-flight retransmissions can
     drain over the now-clean links. Cost is O(hosts actually degraded),
     not O(cluster). *)
  let heal p =
    p.p_cuts <- [];
    p.p_pair_rules <- [];
    List.iter (fun h -> p.p_degraded.(h) <- zero) p.p_deg_hosts;
    p.p_deg_hosts <- [];
    p.p_base <- zero

  let crosses_cut cut a b =
    match cut with
    | Cut_sets m ->
        let sa = member_bits m a and sb = member_bits m b in
        (sa land 1 <> 0 && sb land 2 <> 0) || (sa land 2 <> 0 && sb land 1 <> 0)
    | Cut_isolate m -> member_bits m a <> member_bits m b
    | Cut_pairs tbl -> Hashtbl.mem tbl (pair_key a b)

  let cut p ~src ~dst = src <> dst && List.exists (fun c -> crosses_cut c src dst) p.p_cuts

  let spec_for p ~src ~dst =
    let n = Array.length p.p_degraded in
    let comb acc h =
      if h < 0 || h >= n then acc
      else
        let s = Array.unsafe_get p.p_degraded h in
        if s == zero then acc
        else
          {
            loss = Float.max acc.loss s.loss;
            latency = Float.max acc.latency s.latency;
            jitter = Float.max acc.jitter s.jitter;
          }
    in
    let acc = comb (comb p.p_base src) dst in
    match p.p_pair_rules with
    | [] -> acc
    | rules ->
        let key = pair_key src dst in
        List.fold_left
          (fun acc r ->
            if Hashtbl.mem r.pr_pairs key then
              {
                loss = Float.max acc.loss r.pr_spec.loss;
                latency = Float.max acc.latency r.pr_spec.latency;
                jitter = Float.max acc.jitter r.pr_spec.jitter;
              }
            else acc)
          acc rules

  (* Decide the fate of one message. Same-host links model Unix sockets
     and are never perturbed; [`Closed] markers survive random loss (the
     kernel resets the connection even when the link is lossy) but not an
     active partition. *)
  let sample p ~src ~dst ~kind =
    if src = dst then `Deliver 0.0
    else if cut p ~src ~dst then begin
      p.p_dropped <- p.p_dropped + 1;
      `Drop
    end
    else begin
      let s = spec_for p ~src ~dst in
      if s.loss > 0.0 && kind = `Data && Rng.float (rng p) 1.0 < s.loss then begin
        p.p_dropped <- p.p_dropped + 1;
        `Drop
      end
      else begin
        let extra =
          s.latency +. (if s.jitter > 0.0 then Rng.float (rng p) s.jitter else 0.0)
        in
        if extra > 0.0 then p.p_delayed <- p.p_delayed + 1;
        `Deliver extra
      end
    end

  let apply p profile =
    check_profile profile;
    (match profile.seed with Some s -> p.p_seed <- Some s | None -> ());
    if profile.base <> zero then set_base p profile.base;
    (match profile.partition with Some (a, b) -> partition p a b | None -> ());
    match profile.heal_at with
    | Some t ->
        touch p;
        Engine.post_at p.p_eng ~time:t (fun () -> heal p)
    | None -> ()
end

type 'a recv_result = Data of 'a | Closed

(* Wire format. The reliable transport (active only when the network is
   perturbed) wraps payloads with sequence numbers and acknowledges them
   cumulatively; the pristine path sends the bare payload. *)
type 'a wire = W_seq of int * 'a recv_result | W_ack of int

(* The send times of one direction of a connection. All-float, so its
   fields are stored unboxed and updating them allocates nothing. *)
type clock = { mutable tx_free_at : float; mutable last_arrival : float }

(* The reliable transport's state of one endpoint. Made on first use,
   which only a perturbed inter-host link reaches. *)
type 'a reliable = {
  mutable next_seq : int;
  mutable expect : int;
  mutable unacked : (int * int * 'a recv_result) list;  (* seq, size, payload *)
  mutable retx_timer : Engine.handle option;
  mutable attempts : int;
}

type 'a t = {
  eng : Engine.t;
  perturb : Perturb.t;
  listeners : (int * int, 'a listener) Hashtbl.t;
  no_inbox : 'a recv_result Queue.t;  (* always empty; see [c_inbox] *)
}

and 'a listener = {
  l_net : 'a t;
  l_host : int;
  l_port : int;
  l_pending : 'a conn option Mailbox.t;
  mutable l_open : bool;
}

(* One end of a connection. An endpoint holds only what it uses: the
   inbox is [c_net.no_inbox] until an item has to be buffered, and the
   reliable-transport state is made when the transport first runs. A
   forwarder is three fields of the endpoint it forwards: the handler,
   the owner, and whether it waits for an arrival. *)
and 'a conn = {
  c_net : 'a t;
  c_local_host : int;
  c_peer : 'a conn;
  c_clock : clock;
  mutable c_inbox : 'a recv_result Queue.t;
  mutable c_waiters : ('a recv_result -> bool) list;  (* oldest first *)
  mutable c_closed_local : bool;
  mutable c_closed_remote : bool;
  mutable c_reliable : 'a reliable option;
  mutable c_handler : 'a option -> unit;  (* [unforwarded] until [forward] *)
  mutable c_owner : Proc.t option;
  mutable c_idle : bool;  (* the forwarder waits for an arrival *)
}

let create eng () =
  { eng; perturb = Perturb.make eng; listeners = Hashtbl.create 64; no_inbox = Queue.create () }

let perturb net = net.perturb

let listen net ~host ~port =
  if Hashtbl.mem net.listeners (host, port) then
    invalid_arg (Printf.sprintf "Net.listen: %d:%d already bound" host port);
  let l =
    { l_net = net; l_host = host; l_port = port; l_pending = Mailbox.create (); l_open = true }
  in
  Hashtbl.replace net.listeners (host, port) l;
  l

let close_listener l =
  if l.l_open then begin
    l.l_open <- false;
    Hashtbl.remove l.l_net.listeners (l.l_host, l.l_port);
    (* Wake a blocked acceptor, if any. *)
    Mailbox.send l.l_pending None
  end

let peer_host conn = conn.c_peer.c_local_host

let reliable_on conn =
  conn.c_local_host <> peer_host conn && Perturb.touched conn.c_net.perturb

let reliable conn =
  match conn.c_reliable with
  | Some r -> r
  | None ->
      let r = { next_seq = 0; expect = 0; unacked = []; retx_timer = None; attempts = 0 } in
      conn.c_reliable <- Some r;
      r

let cancel_retx r =
  match r.retx_timer with
  | Some h ->
      Engine.cancel h;
      r.retx_timer <- None
  | None -> ()

let buffer conn item =
  if conn.c_inbox == conn.c_net.no_inbox then conn.c_inbox <- Queue.create ();
  Queue.push item conn.c_inbox

(* The forwarder behaves as a process looping on [recv] then the
   handler: [drain] is that loop, and an arrival that finds it idle
   posts one [flush] where the process would have resumed, so the event
   order is the same. The flush runs as [Proc.guard] would for the
   owner: only a frozen owner needs the closure that it buffers. *)
let unforwarded (_ : _ option) = ()

let rec drain conn =
  match Queue.take_opt conn.c_inbox with
  | Some item -> take conn item
  | None ->
      if conn.c_closed_remote || conn.c_closed_local then conn.c_handler None
      else conn.c_idle <- true

and take conn = function
  | Data m ->
      conn.c_handler (Some m);
      drain conn
  | Closed -> conn.c_handler None

let flush conn item =
  match conn.c_owner with
  | Some p when Proc.is_frozen p -> Proc.guard p (fun () -> take conn item)
  | Some p when not (Proc.is_alive p) -> ()
  | Some _ | None -> take conn item

(* Hand [item] to the idle forwarder. [false] once its owner has
   exited: the forwarder then never waits again. *)
let wake conn item =
  conn.c_idle <- false;
  match conn.c_owner with
  | Some p when not (Proc.is_alive p) -> false
  | Some _ | None ->
      Engine.post conn.c_net.eng (fun () -> flush conn item);
      true

(* Every blocked receive, and an idle forwarder, observes the closure. *)
let wake_all_closed conn =
  let waiters = conn.c_waiters in
  conn.c_waiters <- [];
  List.iter (fun waker -> ignore (waker Closed)) waiters;
  if conn.c_idle then ignore (wake conn Closed)

(* Reserve the link for a wire message from [conn] to its peer, honouring
   per-direction serialization (a single NIC transmits one message at a
   time). When the network is perturbed the message is sampled for
   loss/partition/extra latency; arrivals stay FIFO per direction
   (degraded TCP, not UDP). Returns [false] if the message is lost;
   otherwise its arrival time is [c_clock.last_arrival]. No time is ever
   NaN, so the inline comparisons give what [Float.max] would. *)
let depart conn ~size ~kind =
  let net = conn.c_net and clock = conn.c_clock in
  let peer_host = peer_host conn in
  let local = conn.c_local_host = peer_host in
  let now = Engine.now net.eng in
  let start = if now >= clock.tx_free_at then now else clock.tx_free_at in
  let tx_time = float_of_int size /. if local then local_bandwidth else bandwidth in
  clock.tx_free_at <- start +. tx_time;
  let fate =
    if Perturb.touched net.perturb then
      Perturb.sample net.perturb ~src:conn.c_local_host ~dst:peer_host ~kind
    else `Deliver 0.0
  in
  match fate with
  | `Drop -> false
  | `Deliver extra ->
      let latency = if local then local_latency else latency in
      let arrival = start +. tx_time +. latency +. extra in
      if arrival > clock.last_arrival then clock.last_arrival <- arrival;
      true

let rec offer conn item = function
  | [] ->
      conn.c_waiters <- [];
      buffer conn item
  | waker :: rest -> if waker item then conn.c_waiters <- rest else offer conn item rest

(* Deliver an item at the receiving endpoint, queue wire messages,
   acknowledge and retransmit. All of these run as engine events. *)
let deliver conn item =
  if not conn.c_closed_remote then begin
    match item with
    | Closed ->
        conn.c_closed_remote <- true;
        (* Whatever we still had in flight can never be acknowledged. *)
        (match conn.c_reliable with
        | Some r ->
            r.unacked <- [];
            cancel_retx r
        | None -> ());
        wake_all_closed conn
    | Data _ -> if not (conn.c_idle && wake conn item) then offer conn item conn.c_waiters
  end

let rec arrive conn w =
  match w with
  | W_ack n -> on_ack conn n
  | W_seq (seq, item) ->
      (* Endpoints whose owner died (or that closed locally) stay silent:
         the peer must discover the failure by closure or timeout, never
         from a ghost acknowledgement. *)
      if (not conn.c_closed_remote) && not conn.c_closed_local then begin
        let r = reliable conn in
        if seq = r.expect then begin
          r.expect <- seq + 1;
          send_ack conn r;
          deliver conn item
        end
        else
          (* Duplicate or gap (go-back-N): re-advertise the cumulative ack
             and let the sender retransmit in order. *)
          send_ack conn r
      end

and send_ack conn r = transmit conn ~size:0 (W_ack r.expect)

and on_ack conn n =
  let r = reliable conn in
  let before = r.unacked in
  r.unacked <- List.filter (fun (s, _, _) -> s >= n) r.unacked;
  if List.compare_lengths r.unacked before < 0 then r.attempts <- 0;
  if r.unacked = [] then cancel_retx r

and arm_retx conn r =
  if r.retx_timer = None && r.unacked <> [] then begin
    let delay =
      Perturb.backoff ~rto_initial:Perturb.rto_initial ~rto_max:Perturb.rto_max
        ~attempt:r.attempts
    in
    r.retx_timer <- Some (Engine.schedule conn.c_net.eng ~delay (fun () -> retx_fire conn))
  end

and retx_fire conn =
  let r = reliable conn in
  r.retx_timer <- None;
  if r.unacked <> [] then begin
    r.attempts <- r.attempts + 1;
    if r.attempts > Perturb.max_attempts then conn_timeout conn r
    else begin
      Perturb.note_retransmits conn.c_net.perturb (List.length r.unacked);
      List.iter (fun (seq, size, item) -> transmit conn ~size (W_seq (seq, item))) r.unacked;
      arm_retx conn r
    end
  end

(* The retransmission budget is exhausted: tear the connection down the
   way TCP does on ETIMEDOUT. The local side observes [Closed] now; the
   peer's own keepalive gives up one rto_max later (it cannot be told over
   the dead link). *)
and conn_timeout conn r =
  Perturb.note_conn_timeout conn.c_net.perturb;
  r.unacked <- [];
  conn.c_closed_local <- true;
  deliver conn Closed;
  let peer = conn.c_peer in
  Engine.post conn.c_net.eng ~delay:Perturb.rto_max (fun () -> deliver peer Closed)

(* Queue a wire message from [conn] to its peer. *)
and transmit conn ~size w =
  if depart conn ~size ~kind:`Data then begin
    let peer = conn.c_peer in
    Engine.post_at conn.c_net.eng ~time:conn.c_clock.last_arrival (fun () -> arrive peer w)
  end

(* Queue a bare payload, as the pristine path sends it. A [Closed] marker
   survives random loss. *)
let transmit_plain conn ~size item =
  let kind = match item with Closed -> `Closed | Data _ -> `Data in
  if depart conn ~size ~kind then begin
    let peer = conn.c_peer in
    Engine.post_at conn.c_net.eng ~time:conn.c_clock.last_arrival (fun () ->
        deliver peer item)
  end

(* Send [item] under the reliable transport. *)
let transmit_reliable conn ~size item =
  let r = reliable conn in
  let seq = r.next_seq in
  r.next_seq <- seq + 1;
  r.unacked <- r.unacked @ [ (seq, size, item) ];
  transmit conn ~size (W_seq (seq, item));
  arm_retx conn r

let close conn =
  if not conn.c_closed_local then begin
    conn.c_closed_local <- true;
    (* Local blocked receives observe the closure immediately. *)
    wake_all_closed conn;
    if reliable_on conn && not conn.c_closed_remote then transmit_reliable conn ~size:0 Closed
    else transmit_plain conn ~size:0 Closed
  end

let is_open conn = not (conn.c_closed_local || conn.c_closed_remote)

(* The calling process owns the endpoint: its death closes the socket,
   which is exactly how the paper's dispatcher detects failures. Each
   endpoint is adopted once, by the process that connected or accepted
   it. *)
let adopt conn = Proc.on_exit (Proc.self ()) (fun _ -> close conn)

let make_pair net ~host_a ~host_b =
  let now = Engine.now net.eng in
  let rec a =
    {
      c_net = net;
      c_local_host = host_a;
      c_peer = b;
      c_clock = { tx_free_at = now; last_arrival = now };
      c_inbox = net.no_inbox;
      c_waiters = [];
      c_closed_local = false;
      c_closed_remote = false;
      c_reliable = None;
      c_handler = unforwarded;
      c_owner = None;
      c_idle = false;
    }
  and b =
    {
      c_net = net;
      c_local_host = host_b;
      c_peer = a;
      c_clock = { tx_free_at = now; last_arrival = now };
      c_inbox = net.no_inbox;
      c_waiters = [];
      c_closed_local = false;
      c_closed_remote = false;
      c_reliable = None;
      c_handler = unforwarded;
      c_owner = None;
      c_idle = false;
    }
  in
  (a, b)

let connect net ~host ~to_host ~to_port =
  let eng = net.eng in
  let latency = if host = to_host then local_latency else latency in
  let p = net.perturb in
  let sample () =
    if Perturb.touched p then Perturb.sample p ~src:host ~dst:to_host ~kind:`Data
    else `Deliver 0.0
  in
  (* One handshake round trip. Each hop is sampled like a message: a lost
     or partitioned SYN is a network failure ([`Lost]) that the reliable
     connector retries with backoff below, while a missing listener
     refuses immediately (a TCP RST is not worth retrying). *)
  let attempt_once () =
    let result = Ivar.create () in
    let finish ~extra v =
      Engine.post eng ~delay:(latency +. extra) (fun () -> Ivar.fill result v)
    in
    (match sample () with
    | `Drop -> finish ~extra:0.0 (Error `Lost)
    | `Deliver extra1 ->
        Engine.post eng ~delay:(latency +. extra1) (fun () ->
            match Hashtbl.find_opt net.listeners (to_host, to_port) with
            | Some l when l.l_open -> (
                match sample () with
                | `Drop -> finish ~extra:0.0 (Error `Lost)
                | `Deliver extra2 ->
                    let a, b = make_pair net ~host_a:host ~host_b:to_host in
                    Mailbox.send l.l_pending (Some b);
                    finish ~extra:extra2 (Ok a))
            | Some _ | None -> finish ~extra:0.0 (Error `Refused)));
    Ivar.read result
  in
  let retrying = host <> to_host && Perturb.touched p in
  let rec go attempt =
    match attempt_once () with
    | Ok conn ->
        adopt conn;
        Ok conn
    | Error `Refused -> Error `Refused
    | Error `Lost ->
        if retrying && attempt < Perturb.max_attempts then begin
          Perturb.note_retransmits p 1;
          Proc.sleep
            (Perturb.backoff ~rto_initial:Perturb.rto_initial ~rto_max:Perturb.rto_max
               ~attempt);
          go (attempt + 1)
        end
        else begin
          (* Out of SYN retries: the peer is unreachable, like connect(2)
             returning ETIMEDOUT. *)
          if retrying then Perturb.note_conn_timeout p;
          Error `Refused
        end
  in
  go 0

let accept l =
  match Mailbox.recv l.l_pending with
  | Some conn ->
      adopt conn;
      Some conn
  | None -> None

let send conn ?(size = 64) v =
  if conn.c_closed_local || conn.c_closed_remote then false
  else begin
    if reliable_on conn then transmit_reliable conn ~size (Data v)
    else transmit_plain conn ~size (Data v);
    true
  end

let recv conn =
  match Queue.take_opt conn.c_inbox with
  | Some item -> item
  | None ->
      if conn.c_closed_remote || conn.c_closed_local then Closed
      else Proc.suspend (fun waker -> conn.c_waiters <- conn.c_waiters @ [ waker ])

let recv_timeout conn ~timeout =
  match Queue.take_opt conn.c_inbox with
  | Some item -> Some item
  | None ->
      if conn.c_closed_remote || conn.c_closed_local then Some Closed
      else
        let eng = conn.c_net.eng in
        Proc.suspend (fun waker ->
            (* Cancel the timer once data wins, so a satisfied timeout
               becomes a heap tombstone (compacted) instead of a live
               no-op event that keeps the queue busy until it fires. *)
            let timer = ref None in
            conn.c_waiters <-
              conn.c_waiters
              @ [
                  (fun item ->
                    let woke = waker (Some item) in
                    if woke then Option.iter Engine.cancel !timer;
                    woke);
                ];
            timer := Some (Engine.schedule eng ~delay:timeout (fun () -> ignore (waker None))))

let forward ?owner conn f =
  if conn.c_handler != unforwarded then invalid_arg "Net.forward: connection already forwarded";
  conn.c_handler <- f;
  conn.c_owner <- owner;
  Engine.post conn.c_net.eng
    (match owner with
    | None -> fun () -> drain conn
    | Some p -> fun () -> Proc.guard p (fun () -> drain conn))
