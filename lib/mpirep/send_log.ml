type entry = int * Mpivcl.Message.app_msg
type dest = { tags : (int, entry) Hashtbl.t; mutable next : int }
type t = (int, dest) Hashtbl.t

let create () : t = Hashtbl.create 16

let fresh t dst =
  let d = { tags = Hashtbl.create 16; next = 1 } in
  Hashtbl.replace t dst d;
  d

let dest t dst = match Hashtbl.find_opt t dst with Some d -> d | None -> fresh t dst

let ssn t (m : Mpivcl.Message.app_msg) =
  let d = dest t m.dst in
  match Hashtbl.find_opt d.tags m.tag with
  | Some (ssn, _) -> ssn
  | None ->
      let ssn = d.next in
      d.next <- ssn + 1;
      Hashtbl.replace d.tags m.tag (ssn, m);
      ssn

let ascending_above ?(bound = 0) d =
  Hashtbl.fold (fun _ ((s, _) as e) acc -> if s > bound then e :: acc else acc) d.tags []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let above t ~dst ~bound =
  match Hashtbl.find_opt t dst with None -> [] | Some d -> ascending_above ~bound d

let export t =
  ( Hashtbl.fold (fun dst d acc -> (dst, List.rev (ascending_above d)) :: acc) t [],
    Hashtbl.fold (fun dst d acc -> (dst, d.next) :: acc) t [] )

let import t ~send_log ~next_ssn =
  List.iter
    (fun (dst, es) ->
      let d = fresh t dst in
      List.iter (fun ((_, (m : Mpivcl.Message.app_msg)) as e) -> Hashtbl.replace d.tags m.tag e) es)
    send_log;
  List.iter (fun (dst, next) -> (dest t dst).next <- next) next_ssn
