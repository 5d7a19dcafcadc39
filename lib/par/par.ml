let max_jobs = 64

let clamp n = if n < 1 then 1 else if n > max_jobs then max_jobs else n

let override : int option ref = ref None

let set_default_jobs n =
  if n < 1 then invalid_arg "Par.set_default_jobs: jobs must be >= 1";
  override := Some (clamp n)

(* A malformed FAILMPI_JOBS must not silently fall back to the core
   count — warn (once per process) so a typo'd pool width is visible. *)
let env_warned = Atomic.make false

let jobs_from_env () =
  match Sys.getenv_opt "FAILMPI_JOBS" with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> Some (clamp n)
      | Some _ | None ->
          if not (Atomic.exchange env_warned true) then
            Printf.eprintf
              "warning: ignoring FAILMPI_JOBS=%s (expected an integer >= 1); using the \
               default pool width\n\
               %!"
              s;
          None)

let default_jobs () =
  match !override with
  | Some n -> n
  | None -> (
      match jobs_from_env () with
      | Some n -> n
      | None -> clamp (Domain.recommended_domain_count ()))

module Pool = struct
  type t = {
    m : Mutex.t;
    nonempty : Condition.t;
    tasks : (unit -> unit) Queue.t;
    mutable stopping : bool;
    mutable workers : unit Domain.t list;
  }

  (* Workers drain the queue until [stopping] is set AND the queue is
     empty, so a shutdown never drops submitted work. *)
  let worker t =
    let running = ref true in
    while !running do
      Mutex.lock t.m;
      while Queue.is_empty t.tasks && not t.stopping do
        Condition.wait t.nonempty t.m
      done;
      match Queue.take_opt t.tasks with
      | Some task ->
          Mutex.unlock t.m;
          task ()
      | None ->
          Mutex.unlock t.m;
          running := false
    done

  let create ~domains =
    if domains < 1 then invalid_arg "Par.Pool.create: domains must be >= 1";
    let t =
      {
        m = Mutex.create ();
        nonempty = Condition.create ();
        tasks = Queue.create ();
        stopping = false;
        workers = [];
      }
    in
    t.workers <- List.init domains (fun _ -> Domain.spawn (fun () -> worker t));
    t

  let submit t job =
    Mutex.lock t.m;
    if t.stopping then begin
      Mutex.unlock t.m;
      invalid_arg "Par.Pool.submit: pool is shut down"
    end;
    Queue.push job t.tasks;
    Condition.signal t.nonempty;
    Mutex.unlock t.m

  let shutdown t =
    Mutex.lock t.m;
    t.stopping <- true;
    Condition.broadcast t.nonempty;
    Mutex.unlock t.m;
    let workers = t.workers in
    t.workers <- [];
    List.iter Domain.join workers
end

let map ?jobs f xs =
  let n = List.length xs in
  let jobs = clamp (match jobs with Some j -> j | None -> default_jobs ()) in
  let jobs = min jobs n in
  if jobs <= 1 then List.map f xs
  else begin
    let input = Array.of_list xs in
    (* Slot [i] is written by exactly one worker; the completion mutex
       publishes the writes to the calling domain. *)
    let results = Array.make n None in
    let m = Mutex.create () in
    let all_done = Condition.create () in
    let remaining = ref n in
    let pool = Pool.create ~domains:jobs in
    Array.iteri
      (fun i x ->
        Pool.submit pool (fun () ->
            let r =
              try Ok (f x) with e -> Error (e, Printexc.get_raw_backtrace ())
            in
            Mutex.lock m;
            results.(i) <- Some r;
            decr remaining;
            if !remaining = 0 then Condition.signal all_done;
            Mutex.unlock m))
      input;
    Mutex.lock m;
    while !remaining > 0 do
      Condition.wait all_done m
    done;
    Mutex.unlock m;
    Pool.shutdown pool;
    Array.to_list results
    |> List.map (function
         | Some (Ok r) -> r
         | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
         | None -> assert false)
  end

let map_seeds ?jobs ~reps ~base_seed run =
  map ?jobs (fun i -> run ~seed:(Int64.of_int (base_seed + i))) (List.init reps Fun.id)
