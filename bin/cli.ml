(* The command line that failmpi_run and failmpi_explore share: the
   flags that name a deployment, and [check], which resolves that
   deployment and validates every flag against it before anything runs.
   failc and failmpi_experiments use its scenario, --jobs and
   output-path helpers.  Every error names its flag and the valid range;
   nothing here raises or exits. *)

open Cmdliner

let ( let* ) = Result.bind

(* [need ok fmt ...] is [Ok ()] when [ok], the formatted error otherwise. *)
let need ok fmt = Printf.ksprintf (fun msg -> if ok then Ok () else Error msg) fmt
let all checks = List.fold_left (fun acc c -> Result.bind acc (fun () -> c)) (Ok ()) checks
let at_least flag lo v = need (v >= lo) "%s must be >= %d (got %d)" flag lo v
let within flag lo hi v = need (v >= lo && v <= hi) "%s must be within %d..%d (got %d)" flag lo hi v
let seconds flag v = need (Float.is_finite v && v >= 0.0) "%s must be finite and >= 0 (got %g)" flag v
let delays flag vs = all (List.map (at_least flag 0) vs)
let jobs = function Some n -> at_least "--jobs" 1 n | None -> Ok ()

let output flag = function
  | Some path ->
      let parent = Filename.dirname path in
      need (Sys.file_exists parent && Sys.is_directory parent) "%s parent directory %s does not exist"
        flag parent
  | None -> Ok ()

let read_file path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> Ok (really_input_string ic (in_channel_length ic)))
  with Sys_error msg -> Error msg

(* The scenario source named by a file flag or [--paper], if either. *)
let scenario_source ~file_flag file paper =
  match (file, paper) with
  | Some path, None -> Result.map Option.some (read_file path)
  | None, Some name -> (
      match List.assoc_opt name Fail_lang.Paper_scenarios.all with
      | Some src -> Ok (Some src)
      | None ->
          Error
            (Printf.sprintf "unknown paper scenario %s (available: %s)" name
               (String.concat ", " (List.map fst Fail_lang.Paper_scenarios.all))))
  | Some _, Some _ -> Error (Printf.sprintf "give either %s or --paper, not both" file_flag)
  | None, None -> Ok None

let parse_param s =
  match String.index_opt s '=' with
  | Some i -> (
      let name = String.sub s 0 i in
      let value = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt value with
      | Some v -> Ok (name, v)
      | None -> Error (`Msg (Printf.sprintf "parameter %s: %s is not an integer" name value)))
  | None -> Error (`Msg (Printf.sprintf "expected NAME=INT, got %s" s))

let params =
  Arg.(
    value
    & opt_all (conv (parse_param, fun ppf (n, v) -> Format.fprintf ppf "%s=%d" n v)) []
    & info [ "param"; "p" ] ~docv:"NAME=INT" ~doc:"Scenario parameter (repeatable).")

let topology_conv =
  Arg.conv
    ( (fun s -> Result.map_error (fun m -> `Msg m) (Simtopo.Topo.spec_of_string s)),
      fun ppf spec -> Format.pp_print_string ppf (Simtopo.Topo.spec_to_string spec) )

(* Everything [check] validates.  failmpi_explore leaves the storage,
   network and scenario fields at their defaults, and failmpi_run the
   targets. *)
type t = {
  protocol : string;
  replicas : int;
  ranks : int;
  klass : string;
  seed : int;
  timeout : float;
  fixed : bool;
  seeded : bool;
  topology : (string * Simtopo.Topo.spec) option;  (* its flag, and the value *)
  spares : int;
  ckpt_servers : int;
  ckpt_replicas : int;
  net : Simnet.Net.Perturb.profile option;
  scenario : string option;  (* source text *)
  params : (string * int) list;
  targets : int list;
}

(* The shared flags, with each CLI's defaults and its topology flag. *)
let term ~ranks ~klass ~timeout ~topology =
  let protocol =
    Arg.(
      value & opt string "vcl"
      & info [ "protocol" ] ~docv:"NAME"
          ~doc:"Protocol backend; $(b,failmpi_run --list-protocols) lists the registered names.")
  in
  let replicas =
    Arg.(
      value & opt int 2
      & info [ "replicas" ] ~docv:"N" ~doc:"Replicas per logical rank (with --protocol replication).")
  in
  let ranks =
    Arg.(value & opt int ranks & info [ "ranks"; "n" ] ~docv:"N" ~doc:"MPI ranks (square number).")
  in
  let klass =
    Arg.(value & opt string klass & info [ "class"; "c" ] ~docv:"CLASS" ~doc:"NAS class: A, B or C.")
  in
  let seed =
    Arg.(
      value & opt int 1
      & info [ "seed"; "s" ] ~docv:"SEED"
          ~doc:
            "Experiment seed; failmpi_explore also seeds its sampler of plans of 3 faults \
             or more with it.")
  in
  let timeout =
    Arg.(
      value & opt float timeout
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:
            "Simulated seconds after which a run still going is reported \
             non-terminating. 1500 s is the paper's, sized for its 49-rank class B \
             figure; fewer ranks run longer (4 ranks of class B need about 2600 s).")
  in
  let fixed =
    Arg.(
      value & flag
      & info [ "fixed-dispatcher" ] ~doc:"Use the corrected dispatcher instead of the historical one.")
  in
  let seeded =
    Arg.(
      value & flag
      & info [ "seeded-defect" ]
          ~doc:
            "Enable the seeded vcl dispatcher race: failmpi_explore must rediscover it \
             and shrink the witness to two faults, and failmpi_run replays its witnesses.")
  in
  let topology_arg =
    Arg.(
      value
      & opt (some topology_conv) None
      & info [ topology ] ~docv:"SPEC"
          ~doc:
            "Fabric geometry behind the compute hosts: $(b,flat), $(b,fat-tree:K) \
             (K-ary fat tree, K even) or $(b,torus:XxY)/$(b,torus:XxYxZ). Scenario \
             topology destinations ($(b,switch agg[2]), $(b,pod 1), $(b,rack 3)) \
             resolve against it; unperturbed runs are byte-identical to the default \
             flat mesh. failmpi_explore with a fat tree also draws topology faults \
             (switch kills, pod degrades; the target index selects the component).")
  in
  let make protocol replicas ranks klass seed timeout fixed seeded spec =
    {
      protocol;
      replicas;
      ranks;
      klass;
      seed;
      timeout;
      fixed;
      seeded;
      topology = Option.map (fun s -> ("--" ^ topology, s)) spec;
      spares = 0;
      ckpt_servers = 3;
      ckpt_replicas = 1;
      net = None;
      scenario = None;
      params = [];
      targets = [];
    }
  in
  Term.(
    const make $ protocol $ replicas $ ranks $ klass $ seed $ timeout $ fixed $ seeded
    $ topology_arg)

let hosts flag ~n_machines hs =
  all
    (List.map
       (fun h ->
         need (h >= 0 && h < n_machines) "%s must name compute hosts 0..%d (got %d)" flag
           (n_machines - 1) h)
       hs)

(* Every machine a scenario deploys a FAIL daemon on must exist: a
   daemon on a missing machine controls nothing, and its faults go
   nowhere. *)
let scenario_fits ~total_hosts (plan : Fail_lang.Compile.plan) =
  all
    (List.map
       (fun dep ->
         let lo, hi =
           match dep with
           | Fail_lang.Ast.Dep_singleton { machine; _ } -> (machine, machine)
           | Dep_group { mach_lo; mach_hi; _ } -> (mach_lo, mach_hi)
         in
         need (lo >= 0 && hi < total_hosts) "--scenario must deploy on hosts 0..%d (got machine %d)"
           (total_hosts - 1) (if lo < 0 then lo else hi))
       plan.deployments)

let topology_fits ~n_machines = function
  | Some (flag, spec) ->
      let* () = Result.map_error (Printf.sprintf "%s: %s" flag) (Simtopo.Topo.validate spec) in
      let have = Simtopo.Topo.hosts (Simtopo.Topo.build spec ~n_hosts:n_machines) in
      need (have >= n_machines) "%s %s provides %d hosts, fewer than the %d compute hosts" flag
        (Simtopo.Topo.spec_to_string spec) have n_machines
  | None -> Ok ()

let net_fits ~n_machines = function
  | Some { Simnet.Net.Perturb.base = { loss; latency; jitter }; partition; heal_at; seed = _ } ->
      all
        [
          need (loss >= 0.0 && loss <= 1.0) "--net-loss must be within [0, 1] (got %g)" loss;
          seconds "--net-latency" latency;
          seconds "--net-jitter" jitter;
          (match partition with
          | Some (a, b) ->
              let* () = need (a <> [] && b <> []) "--net-partition sides must be non-empty" in
              hosts "--net-partition" ~n_machines (a @ b)
          | None -> Ok ());
          Option.fold ~none:(Ok ()) ~some:(seconds "--net-heal") heal_at;
        ]
  | None -> Ok ()

(* Resolves the deployment (backend, class, compute hosts), checks every
   flag against it, then builds the run.  [also] holds the caller's own
   checks, reported after these. *)
let check t ~also =
  let* () =
    all
      [
        need (Workload.Stencil.valid_ranks t.ranks)
          "--ranks must be a positive square number (got %d)" t.ranks;
        at_least "--replicas" 1 t.replicas;
        at_least "--spares" 0 t.spares;
        at_least "--ckpt-servers" 1 t.ckpt_servers;
        (* The storage plane keeps a primary copy and at most one mirror. *)
        need (t.ckpt_replicas = 1 || t.ckpt_replicas = 2) "--ckpt-replicas must be 1 or 2 (got %d)"
          t.ckpt_replicas;
        need (t.ckpt_replicas <= t.ckpt_servers)
          "--ckpt-replicas cannot exceed --ckpt-servers (got %d > %d)" t.ckpt_replicas
          t.ckpt_servers;
        (* A timeout of zero or less reports every run non-terminating,
           and a NaN or infinite one never fires. *)
        need (Float.is_finite t.timeout && t.timeout > 0.0) "--timeout must be finite and > 0 (got %g)"
          t.timeout;
      ]
  in
  let* klass =
    Option.to_result ~none:(Printf.sprintf "--class must be A, B or C (got %s)" t.klass)
      (Workload.Bt_model.klass_of_string t.klass)
  in
  let* (module B : Failmpi.Backend.S) =
    Option.to_result
      ~none:
        (Printf.sprintf "--protocol must be one of %s (got %s)"
           (String.concat ", " (Failmpi.Backend.names ()))
           t.protocol)
      (Failmpi.Backend.find t.protocol)
  in
  let* protocol =
    match B.protocol ~replicas:t.replicas with
    | Mpivcl.Config.Ulfm _ -> Ok (Mpivcl.Config.Ulfm { spares = t.spares })
    | p ->
        let* () = need (t.spares = 0) "--spares only applies to the ulfm backend, not %s" B.name in
        Ok p
  in
  (* Warm spares live on compute hosts beyond the ranks. *)
  let n_machines =
    max (B.default_machines ~n_ranks:t.ranks ~replicas:t.replicas) (t.ranks + t.spares)
  in
  let* () =
    all
      ([
         topology_fits ~n_machines t.topology;
         net_fits ~n_machines t.net;
         hosts "--targets" ~n_machines t.targets;
       ]
      @ also)
  in
  let cfg =
    {
      (Mpivcl.Config.default ~n_ranks:t.ranks) with
      Mpivcl.Config.protocol;
      n_ckpt_servers = t.ckpt_servers;
      ckpt_replicas = t.ckpt_replicas;
      dispatcher_buggy = not t.fixed;
      vcl_seeded_race = t.seeded;
      net = t.net;
      topology = Option.map snd t.topology;
    }
  in
  (* Same compilation Run.execute performs: an unbound parameter or bad
     syntax is a CLI error too. *)
  let* () =
    match t.scenario with
    | Some src ->
        let* plan =
          Result.map_error (( ^ ) "scenario error: ")
            (Fail_lang.Compile.compile_source ~params:t.params src)
        in
        let layout = Simos.Layout.make ~n_compute:n_machines ~n_services:(B.service_hosts cfg) in
        scenario_fits ~total_hosts:layout.total_hosts plan
    | None -> Ok ()
  in
  let spec =
    Experiments.Harness.bt_spec ~cfg ~klass ~n_ranks:t.ranks ~n_machines ~scenario:t.scenario ()
  in
  Ok
    ( { spec with Failmpi.Run.params = t.params; seed = Int64.of_int t.seed; timeout = t.timeout },
      klass )
