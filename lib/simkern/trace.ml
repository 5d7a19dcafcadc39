type level = Summary | Full

type entry = { time : float; source : string; event : string; detail : string }

type t = { mutable entries : entry array; mutable n : int; gate : level }

let dummy_entry = { time = 0.0; source = ""; event = ""; detail = "" }

let create ?(level = Full) () = { entries = [||]; n = 0; gate = level }

(* Summary-level events pass every gate; Full-level events only a Full
   trace. *)
let enabled t lvl = match lvl with Summary -> true | Full -> t.gate = Full

let push t entry =
  let capacity = Array.length t.entries in
  if t.n = capacity then begin
    let capacity' = if capacity = 0 then 64 else capacity * 2 in
    let entries' = Array.make capacity' dummy_entry in
    Array.blit t.entries 0 entries' 0 t.n;
    t.entries <- entries'
  end;
  t.entries.(t.n) <- entry;
  t.n <- t.n + 1

let record ?(level = Summary) t ~time ~source ~event fmt =
  if enabled t level then
    Printf.ksprintf (fun detail -> push t { time; source; event; detail }) fmt
  else Printf.ikfprintf (fun () -> ()) () fmt

let entries t = List.init t.n (fun i -> t.entries.(i))

let events t = List.init t.n (fun i -> (t.entries.(i).source, t.entries.(i).event))

let length t = t.n

let pp_entry ppf e =
  Format.fprintf ppf "@[<h>%10.3f %-16s %-24s %s@]" e.time e.source e.event e.detail

let pp ppf t =
  Format.pp_open_vbox ppf 0;
  for i = 0 to t.n - 1 do
    Format.fprintf ppf "%a@," pp_entry t.entries.(i)
  done;
  Format.pp_close_box ppf ()
