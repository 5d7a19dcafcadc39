(* Read-only views of a run that the tests check behaviour through. *)

(* Trace entries of one kind, oldest first. *)
let find_all t ~event =
  List.filter
    (fun (e : Simkern.Trace.entry) -> String.equal e.event event)
    (Simkern.Trace.entries t)

let count t ~event = List.length (find_all t ~event)
let last t ~event = List.fold_left (fun _ e -> Some e) None (find_all t ~event)

(* Live tasks of every host, host by host, most recent first. *)
let all_tasks cluster =
  List.concat_map
    (fun host -> Simos.Cluster.tasks cluster ~host)
    (List.init (Simos.Cluster.size cluster) Fun.id)

(* The most recently spawned live task named [name] on [host]. *)
let find_task cluster ~host ~name =
  List.find_opt (fun p -> String.equal (Simkern.Proc.name p) name) (Simos.Cluster.tasks cluster ~host)
