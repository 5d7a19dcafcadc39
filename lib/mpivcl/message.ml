type app_msg = { src : int; dst : int; tag : int; data : int; bytes : int }

type image = {
  img_rank : int;
  img_wave : int;
  img_state : int array;
  img_buffer : app_msg list;
  img_redelivery : app_msg list;
  img_logged : app_msg list;
  img_seen : int list;
  img_received : (int * int) list;
  img_send_log : (int * (int * app_msg) list) list;
  img_next_ssn : (int * int) list;
  img_bytes : int;
}

type t =
  | Peer_hello of { rank : int }
  | App of app_msg
  | Marker of { wave : int }
  | Hello of { rank : int; incarnation : int }
  | Ready of { rank : int }
  | Start of { rank_hosts : int array; resume : bool }
  | Terminate
  | Rank_done of { rank : int }
  | Shutdown
  | Sched_hello of { rank : int }
  | Sched_marker of { wave : int }
  | Sched_ack of { rank : int; wave : int }
  | Store of { image : image }
  | Store_done of { wave : int }
  | Fetch of { rank : int; local_wave : int option }
  | Fetch_use_local of { wave : int }
  | Fetch_image of { image : image option }
  | Commit of { wave : int }
  | App_logged of { msg : app_msg; ssn : int }
  | Log_gc of { rank : int; consumed : (int * int) list }
  | Resend of { rank : int; consumed : (int * int) list }
  | Commit_rank of { rank : int; wave : int }
  | Mirror_store of { image : image }
  | Mirror_ack of { rank : int; wave : int }
  | Sync_pull of { shard : int }
  | Sync_images of { images : image list }
  | Ckpt_lost_report of { rank : int }

let pp ppf = function
  | Peer_hello { rank } -> Format.fprintf ppf "Peer_hello(%d)" rank
  | App m -> Format.fprintf ppf "App(%d->%d tag %d)" m.src m.dst m.tag
  | Marker { wave } -> Format.fprintf ppf "Marker(%d)" wave
  | Hello { rank; incarnation } -> Format.fprintf ppf "Hello(%d, inc %d)" rank incarnation
  | Ready { rank } -> Format.fprintf ppf "Ready(%d)" rank
  | Start { resume; _ } -> Format.fprintf ppf "Start(resume=%b)" resume
  | Terminate -> Format.pp_print_string ppf "Terminate"
  | Rank_done { rank } -> Format.fprintf ppf "Rank_done(%d)" rank
  | Shutdown -> Format.pp_print_string ppf "Shutdown"
  | Sched_hello { rank } -> Format.fprintf ppf "Sched_hello(%d)" rank
  | Sched_marker { wave } -> Format.fprintf ppf "Sched_marker(%d)" wave
  | Sched_ack { rank; wave } -> Format.fprintf ppf "Sched_ack(%d, wave %d)" rank wave
  | Store { image } -> Format.fprintf ppf "Store(rank %d, wave %d)" image.img_rank image.img_wave
  | Store_done { wave } -> Format.fprintf ppf "Store_done(wave %d)" wave
  | Fetch { rank; _ } -> Format.fprintf ppf "Fetch(%d)" rank
  | Fetch_use_local { wave } -> Format.fprintf ppf "Fetch_use_local(wave %d)" wave
  | Fetch_image { image } ->
      Format.fprintf ppf "Fetch_image(%s)"
        (match image with Some i -> Printf.sprintf "wave %d" i.img_wave | None -> "none")
  | Commit { wave } -> Format.fprintf ppf "Commit(wave %d)" wave
  | App_logged { msg; ssn } ->
      Format.fprintf ppf "App_logged(%d->%d tag %d ssn %d)" msg.src msg.dst msg.tag ssn
  | Log_gc { rank; _ } -> Format.fprintf ppf "Log_gc(%d)" rank
  | Resend { rank; _ } -> Format.fprintf ppf "Resend(%d)" rank
  | Commit_rank { rank; wave } -> Format.fprintf ppf "Commit_rank(%d, wave %d)" rank wave
  | Mirror_store { image } ->
      Format.fprintf ppf "Mirror_store(rank %d, wave %d)" image.img_rank image.img_wave
  | Mirror_ack { rank; wave } -> Format.fprintf ppf "Mirror_ack(%d, wave %d)" rank wave
  | Sync_pull { shard } -> Format.fprintf ppf "Sync_pull(shard %d)" shard
  | Sync_images { images } -> Format.fprintf ppf "Sync_images(%d)" (List.length images)
  | Ckpt_lost_report { rank } -> Format.fprintf ppf "Ckpt_lost_report(%d)" rank

let image_bytes ~state_bytes msgs =
  state_bytes + List.fold_left (fun acc m -> acc + m.bytes + 32) 0 msgs
