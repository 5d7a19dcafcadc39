(* Persistent coverage-guided corpus (--corpus <dir>).

   Plain-text state shared across campaigns: which plan keys already
   ran ([tried], the resume-skip set), which coverage signatures were
   ever observed ([seen]), and which plans first produced a new
   signature ([pool] — the interesting ones, in discovery order).  A
   resumed campaign skips everything in [tried] and spends the freed
   budget on seeded mutations of pool plans, so the sampler
   preferentially explores around whatever opened new territory.

   Layout under the directory: [meta] (format magic, the configuration
   fingerprint, the generation counter), [tried], [seen], [pool] — one
   entry per line, written atomically via rename.  Everything is
   deterministic: same directory + same config + same campaign results
   produce byte-identical files, and the mutation stream is a pure
   function of (sample_seed, generation). *)

module Rng = Simkern.Rng

type space = {
  n_machines : int;
  targets : int list;
  buckets : int list;
  kinds : Plan.kind list;
  max_faults : int;
  sample_seed : int;
}

let ints xs = String.concat "," (List.map string_of_int xs)

(* The fingerprint covers everything that gives plan keys and mutation
   draws their meaning.  [budget] is deliberately absent: growing the
   budget between campaigns is exactly how a corpus is resumed. *)
let space_fingerprint s =
  Printf.sprintf
    "n_machines=%d targets=%s buckets=%s kinds=%s max_faults=%d sample_seed=%d"
    s.n_machines (ints s.targets) (ints s.buckets)
    (String.concat "," (List.map Fail_lang.Fault.tag s.kinds))
    s.max_faults s.sample_seed

let magic = "failmpi-explore-corpus v1"

type t = {
  dir : string;
  space : space;
  mutable generation : int;
  tried : (string, unit) Hashtbl.t;
  seen : (string, unit) Hashtbl.t;
  mutable pool_rev : string list;
  pool_set : (string, unit) Hashtbl.t;
}

let fresh ~dir ~space =
  {
    dir;
    space;
    generation = 0;
    tried = Hashtbl.create 256;
    seen = Hashtbl.create 64;
    pool_rev = [];
    pool_set = Hashtbl.create 64;
  }

let read_lines path =
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in path in
    let rec go acc =
      match input_line ic with
      | line -> go (if line = "" then acc else line :: acc)
      | exception End_of_file ->
          close_in ic;
          List.rev acc
    in
    go []
  end

let load ~dir ~space =
  if not (Sys.file_exists dir) then Ok (fresh ~dir ~space)
  else
    let meta = read_lines (Filename.concat dir "meta") in
    match meta with
    | [] -> Error (Printf.sprintf "%s is not a failmpi-explore corpus (no meta file)" dir)
    | m :: rest when m = magic -> (
        let fp = space_fingerprint space in
        match rest with
        | space_line :: gen_line :: _ when space_line = fp -> (
            match int_of_string_opt gen_line with
            | None ->
                Error (Printf.sprintf "%s: corrupt meta file (bad generation %S)" dir gen_line)
            | Some generation ->
                let t = fresh ~dir ~space in
                t.generation <- generation;
                List.iter
                  (fun k -> Hashtbl.replace t.tried k ())
                  (read_lines (Filename.concat dir "tried"));
                List.iter
                  (fun s -> Hashtbl.replace t.seen s ())
                  (read_lines (Filename.concat dir "seen"));
                List.iter
                  (fun k ->
                    if not (Hashtbl.mem t.pool_set k) then begin
                      Hashtbl.replace t.pool_set k ();
                      t.pool_rev <- k :: t.pool_rev
                    end)
                  (read_lines (Filename.concat dir "pool"));
                Ok t)
        | corpus_fp :: _ ->
            Error
              (Printf.sprintf
                 "corpus %s is incompatible with this configuration (corpus: %s; campaign: %s)"
                 dir corpus_fp fp)
        | [] -> Error (Printf.sprintf "%s: corrupt meta file (truncated)" dir))
    | _ -> Error (Printf.sprintf "%s is not a failmpi-explore corpus (bad magic)" dir)

let tried t key = Hashtbl.mem t.tried key
let seen_signatures t = Hashtbl.length t.seen
let pool t = List.rev t.pool_rev
let generation t = t.generation

(* Record one campaign result.  A plan whose signature was never seen
   before joins the pool — it opened new coverage territory and is
   worth mutating in the next generation. *)
let note t ~plan_key ~sig_hash =
  Hashtbl.replace t.tried plan_key ();
  if not (Hashtbl.mem t.seen sig_hash) then begin
    Hashtbl.replace t.seen sig_hash ();
    if not (Hashtbl.mem t.pool_set plan_key) then begin
      Hashtbl.replace t.pool_set plan_key ();
      t.pool_rev <- plan_key :: t.pool_rev
    end
  end

(* ---- seeded mutation ---------------------------------------------- *)

let mutate_fault rng space (f : Plan.fault) =
  Plan.align_service
    (match Rng.int rng 3 with
    | 0 -> { f with Plan.anchor = Plan.After (Rng.choose rng space.buckets) }
    | 1 -> { f with Plan.machine = Rng.choose rng space.targets }
    | _ -> { f with Plan.kind = Rng.choose rng space.kinds })

let random_fault rng space =
  Plan.align_service
    {
      Plan.machine = Rng.choose rng space.targets;
      anchor = Plan.After (Rng.choose rng space.buckets);
      kind = Rng.choose rng space.kinds;
    }

let mutate_plan rng space (p : Plan.t) =
  let faults = Array.of_list p.Plan.faults in
  let n = Array.length faults in
  let faults =
    match Rng.int rng 4 with
    | 0 when n < space.max_faults ->
        (* grow: splice a fresh fault in at a random position *)
        let at = Rng.int rng (n + 1) in
        Array.to_list (Array.sub faults 0 at)
        @ (random_fault rng space :: Array.to_list (Array.sub faults at (n - at)))
    | 1 when n > 1 ->
        (* shrink: drop one fault *)
        let at = Rng.int rng n in
        List.filteri (fun i _ -> i <> at) (Array.to_list faults)
    | _ ->
        (* point-mutate one fault *)
        let at = Rng.int rng n in
        faults.(at) <- mutate_fault rng space faults.(at);
        Array.to_list faults
  in
  { Plan.n_machines = space.n_machines; faults }

(* [mutants t ~count] draws up to [count] untried mutants of pool
   plans.  Deterministic: the RNG is seeded from (sample_seed,
   generation), so re-running an interrupted campaign re-derives the
   same schedule.  Bounded retries keep an exhausted neighbourhood from
   looping forever; fewer than [count] plans may come back. *)
let mutants t ~count =
  let pool = Array.of_list (pool t) in
  if count <= 0 || Array.length pool = 0 then []
  else begin
    let rng =
      Rng.create
        (Int64.add
           (Int64.mul 1_000_003L (Int64.of_int t.space.sample_seed))
           (Int64.of_int t.generation))
    in
    let out_keys = Hashtbl.create count in
    let out = ref [] and made = ref 0 and attempts = ref 0 in
    let max_attempts = 50 * count in
    while !made < count && !attempts < max_attempts do
      incr attempts;
      let seed_key = pool.(Rng.int rng (Array.length pool)) in
      match Plan.of_key ~n_machines:t.space.n_machines seed_key with
      | Error _ -> () (* stale pool entry; skip *)
      | Ok seed ->
          let m = mutate_plan rng t.space seed in
          let k = Plan.key m in
          if not (tried t k) && not (Hashtbl.mem out_keys k) then begin
            Hashtbl.replace out_keys k ();
            out := m :: !out;
            incr made
          end
    done;
    List.rev !out
  end

(* ---- persistence -------------------------------------------------- *)

let write_file path lines =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  List.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    lines;
  close_out oc;
  Sys.rename tmp path

(* Sorted dumps for [tried]/[seen] (sets — order is meaningless but
   must be stable); [pool] keeps discovery order (it is a schedule). *)
let save t =
  if not (Sys.file_exists t.dir) then Unix.mkdir t.dir 0o755;
  t.generation <- t.generation + 1;
  write_file (Filename.concat t.dir "meta")
    [ magic; space_fingerprint t.space; string_of_int t.generation ];
  let sorted tbl = List.sort String.compare (Hashtbl.fold (fun k () acc -> k :: acc) tbl []) in
  write_file (Filename.concat t.dir "tried") (sorted t.tried);
  write_file (Filename.concat t.dir "seen") (sorted t.seen);
  write_file (Filename.concat t.dir "pool") (pool t)
