type level = Summary | Full

type entry = { time : float; source : string; event : string; detail : string }

(* Detail payloads are rendered lazily: the hot path stores the closure,
   and the first read memoises the string. *)
type detail = Str of string | Deferred of (unit -> string)

type cell = { c_time : float; c_source : string; c_event : string; mutable c_detail : detail }

type t = { mutable cells : cell array; mutable n : int; gate : level }

let dummy_cell = { c_time = 0.0; c_source = ""; c_event = ""; c_detail = Str "" }

let create ?(level = Full) () = { cells = [||]; n = 0; gate = level }

let level t = t.gate

(* Summary-level events pass every gate; Full-level events only a Full
   trace. *)
let enabled t lvl = match lvl with Summary -> true | Full -> t.gate = Full

let push t cell =
  let capacity = Array.length t.cells in
  if t.n = capacity then begin
    let capacity' = if capacity = 0 then 64 else capacity * 2 in
    let cells' = Array.make capacity' dummy_cell in
    Array.blit t.cells 0 cells' 0 t.n;
    t.cells <- cells'
  end;
  t.cells.(t.n) <- cell;
  t.n <- t.n + 1

let record ?(level = Summary) t ~time ~source ~event detail =
  if enabled t level then
    push t { c_time = time; c_source = source; c_event = event; c_detail = Str detail }

let record_lazy ?(level = Summary) t ~time ~source ~event f =
  if enabled t level then
    push t { c_time = time; c_source = source; c_event = event; c_detail = Deferred f }

let record_fmt ?(level = Summary) t ~time ~source ~event fmt =
  if enabled t level then
    Printf.ksprintf
      (fun detail ->
        push t { c_time = time; c_source = source; c_event = event; c_detail = Str detail })
      fmt
  else Printf.ikfprintf (fun () -> ()) () fmt

(* Completed runs are read from several domains at once (parallel
   campaigns, the explorer's shrinker), so the Deferred -> Str
   memoisation must be published safely: double-checked under a mutex,
   the closure runs exactly once and no reader observes a torn cell.
   The lock is per-module, not per-trace — it is only ever taken on the
   cold first-read path, never while recording. *)
let memo_mutex = Mutex.create ()

let render cell =
  let detail =
    match cell.c_detail with
    | Str s -> s
    | Deferred _ ->
        Mutex.lock memo_mutex;
        Fun.protect
          ~finally:(fun () -> Mutex.unlock memo_mutex)
          (fun () ->
            match cell.c_detail with
            | Str s -> s
            | Deferred f ->
                let s = f () in
                cell.c_detail <- Str s;
                s)
  in
  { time = cell.c_time; source = cell.c_source; event = cell.c_event; detail }

let entries t = List.init t.n (fun i -> render t.cells.(i))

let events t = List.init t.n (fun i -> (t.cells.(i).c_source, t.cells.(i).c_event))

let length t = t.n

let count t ~event =
  let c = ref 0 in
  for i = 0 to t.n - 1 do
    if String.equal t.cells.(i).c_event event then incr c
  done;
  !c

let find_all t ~event =
  let acc = ref [] in
  for i = t.n - 1 downto 0 do
    if String.equal t.cells.(i).c_event event then acc := render t.cells.(i) :: !acc
  done;
  !acc

let last t ~event =
  let rec scan i =
    if i < 0 then None
    else if String.equal t.cells.(i).c_event event then Some (render t.cells.(i))
    else scan (i - 1)
  in
  scan (t.n - 1)

let last_time t ~event = Option.map (fun e -> e.time) (last t ~event)

let clear t =
  t.cells <- [||];
  t.n <- 0

let truncate t n =
  if n < 0 || n > t.n then
    invalid_arg (Printf.sprintf "Trace.truncate: length %d out of range 0..%d" n t.n);
  (* Drop the cells so payload closures recorded after the cut are
     collectable. *)
  for i = n to t.n - 1 do
    t.cells.(i) <- dummy_cell
  done;
  t.n <- n

let pp_entry ppf e =
  Format.fprintf ppf "@[<h>%10.3f %-16s %-24s %s@]" e.time e.source e.event e.detail

let pp ppf t =
  Format.pp_open_vbox ppf 0;
  for i = 0 to t.n - 1 do
    Format.fprintf ppf "%a@," pp_entry (render t.cells.(i))
  done;
  Format.pp_close_box ppf ()
