type spec =
  | Flat
  | Fat_tree of { k : int }
  | Torus2d of { x : int; y : int }
  | Torus3d of { x : int; y : int; z : int }

type tier = Edge | Agg | Core

type component = Switch of tier * int | Pod of int | Rack of int

type t = {
  t_spec : spec;
  t_hosts : int;
  (* Fat-tree shape, all zero for switchless topologies. *)
  t_k : int;
  t_pods : int;
  t_edge : int;  (* also the rack count *)
  t_agg : int;
  t_core : int;
}

let hosts t = t.t_hosts
let switches t = t.t_edge + t.t_agg + t.t_core
let pod_count t = t.t_pods
let rack_count t = t.t_edge

let switch_count t = function Edge -> t.t_edge | Agg -> t.t_agg | Core -> t.t_core

let links t =
  match t.t_spec with
  | Flat ->
      (* The degenerate mesh keeps simnet's private per-pair links. *)
      t.t_hosts * (t.t_hosts - 1) / 2
  | Fat_tree { k } ->
      (* host-edge: k^3/4; edge-agg: (k/2)^2 per pod; agg-core: k/2 per
         aggregation switch.  All three terms equal k^3/4. *)
      3 * k * k * k / 4
  | Torus2d { x; y } ->
      (* Wrap links double up when a dimension has size 2 and vanish at
         size 1; count distinct unordered neighbour pairs per axis. *)
      let axis n other = match n with 1 -> 0 | 2 -> other | n -> n * other in
      axis x y + axis y x
  | Torus3d { x; y; z } ->
      let axis n other = match n with 1 -> 0 | 2 -> other | n -> n * other in
      axis x (y * z) + axis y (x * z) + axis z (x * y)

let tier_name = function Edge -> "edge" | Agg -> "agg" | Core -> "core"

let component_name = function
  | Switch (tier, i) -> Printf.sprintf "switch %s[%d]" (tier_name tier) i
  | Pod p -> Printf.sprintf "pod %d" p
  | Rack r -> Printf.sprintf "rack %d" r

let spec_to_string = function
  | Flat -> "flat"
  | Fat_tree { k } -> Printf.sprintf "fat-tree:%d" k
  | Torus2d { x; y } -> Printf.sprintf "torus:%dx%d" x y
  | Torus3d { x; y; z } -> Printf.sprintf "torus:%dx%dx%d" x y z

let spec_of_string s =
  let dims rest =
    let parts = String.split_on_char 'x' rest in
    let rec go acc = function
      | [] -> Some (List.rev acc)
      | p :: rest -> (
          match int_of_string_opt p with Some v -> go (v :: acc) rest | None -> None)
    in
    go [] parts
  in
  match String.index_opt s ':' with
  | None ->
      if s = "flat" then Ok Flat
      else Error (Printf.sprintf "unknown topology %S (expected flat, fat-tree:K or torus:XxY[xZ])" s)
  | Some i -> (
      let head = String.sub s 0 i in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match head with
      | "fat-tree" -> (
          match int_of_string_opt rest with
          | Some k -> Ok (Fat_tree { k })
          | None -> Error (Printf.sprintf "fat-tree arity is not a number: %S" rest))
      | "torus" -> (
          match dims rest with
          | Some [ x; y ] -> Ok (Torus2d { x; y })
          | Some [ x; y; z ] -> Ok (Torus3d { x; y; z })
          | _ -> Error (Printf.sprintf "torus dimensions must be XxY or XxYxZ (got %S)" rest))
      | _ ->
          Error
            (Printf.sprintf "unknown topology %S (expected flat, fat-tree:K or torus:XxY[xZ])" s))

let validate = function
  | Flat -> Ok ()
  | Fat_tree { k } ->
      if k >= 2 && k mod 2 = 0 then Ok ()
      else Error (Printf.sprintf "fat-tree arity must be even and >= 2 (got %d)" k)
  | Torus2d { x; y } ->
      if x >= 1 && y >= 1 then Ok ()
      else Error (Printf.sprintf "torus dimensions must be >= 1 (got %dx%d)" x y)
  | Torus3d { x; y; z } ->
      if x >= 1 && y >= 1 && z >= 1 then Ok ()
      else Error (Printf.sprintf "torus dimensions must be >= 1 (got %dx%dx%d)" x y z)

let build spec ~n_hosts =
  (match validate spec with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Simtopo.build: " ^ msg));
  match spec with
  | Flat ->
      if n_hosts < 0 then
        invalid_arg (Printf.sprintf "Simtopo.build: n_hosts must be >= 0 (got %d)" n_hosts);
      { t_spec = spec; t_hosts = n_hosts; t_k = 0; t_pods = 0; t_edge = 0; t_agg = 0; t_core = 0 }
  | Fat_tree { k } ->
      {
        t_spec = spec;
        t_hosts = k * k * k / 4;
        t_k = k;
        t_pods = k;
        t_edge = k * k / 2;
        t_agg = k * k / 2;
        t_core = k * k / 4;
      }
  | Torus2d { x; y } ->
      { t_spec = spec; t_hosts = x * y; t_k = 0; t_pods = 0; t_edge = 0; t_agg = 0; t_core = 0 }
  | Torus3d { x; y; z } ->
      { t_spec = spec; t_hosts = x * y * z; t_k = 0; t_pods = 0; t_edge = 0; t_agg = 0; t_core = 0 }

let for_cluster spec ~n_compute =
  (match validate spec with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Simtopo.for_cluster: " ^ msg));
  let t = build spec ~n_hosts:n_compute in
  if t.t_hosts < n_compute then
    invalid_arg
      (Printf.sprintf
         "Simtopo.for_cluster: topology %s provides %d hosts but the deployment needs %d \
          compute hosts"
         (spec_to_string spec) t.t_hosts n_compute);
  t

(* ---- fat-tree geometry ------------------------------------------- *)

(* Hosts number pods contiguously: pod p holds hosts [p*k^2/4 ..), rack
   (= edge switch) r holds hosts [r*k/2 ..).  Per-tier switch indices:
   edge/agg switch at position j of pod p is p*(k/2) + j; core switches
   number 0 .. (k/2)^2 - 1, core c uplinks to the aggregation switch at
   position c/(k/2) of every pod. *)

let rack_of_host t h =
  if t.t_k = 0 || h < 0 || h >= t.t_hosts then None else Some (h / (t.t_k / 2))

let pod_of_host t h =
  if t.t_k = 0 || h < 0 || h >= t.t_hosts then None else Some (h / (t.t_k * t.t_k / 4))

let route t ~src ~dst =
  if t.t_k = 0 || src = dst || src < 0 || dst < 0 || src >= t.t_hosts || dst >= t.t_hosts
  then []
  else begin
    let half = t.t_k / 2 in
    let rs = src / half and rd = dst / half in
    if rs = rd then [ (Edge, rs) ]
    else begin
      let ps = src / (half * half) and pd = dst / (half * half) in
      if ps = pd then
        (* The in-pod aggregation switch is a symmetric function of the
           pair, so route s->d and d->s traverse the same switches. *)
        let a = (src + dst) mod half in
        [ (Edge, rs); (Agg, (ps * half) + a); (Edge, rd) ]
      else
        (* Core choice spreads pairs over the core layer while staying
           symmetric; the aggregation position follows from which core
           group the chosen core belongs to. *)
        let c = (src + dst) mod t.t_core in
        let a = c / half in
        [ (Edge, rs); (Agg, (ps * half) + a); (Core, c); (Agg, (pd * half) + a); (Edge, rd) ]
    end
  end

let torus_hop n a b =
  let d = abs (a - b) in
  min d (n - d)

let path_len t ~src ~dst =
  if src = dst then 0
  else
    match t.t_spec with
    | Flat -> 1
    | Fat_tree _ -> List.length (route t ~src ~dst) + 1
    | Torus2d { x; y } ->
        torus_hop x (src mod x) (dst mod x) + torus_hop y (src / x) (dst / x)
    | Torus3d { x; y; z } ->
        torus_hop x (src mod x) (dst mod x)
        + torus_hop y (src / x mod y) (dst / x mod y)
        + torus_hop z (src / (x * y)) (dst / (x * y))

let check_component t c =
  match t.t_spec with
  | Flat | Torus2d _ | Torus3d _ ->
      Error
        (Printf.sprintf "topology %s has no %s (components need a fat-tree)"
           (spec_to_string t.t_spec) (component_name c))
  | Fat_tree _ -> (
      let range what i n =
        if i >= 0 && i < n then Ok ()
        else Error (Printf.sprintf "%s index %d out of range (topology has %d)" what i n)
      in
      match c with
      | Switch (tier, i) -> range ("switch " ^ tier_name tier) i (switch_count t tier)
      | Pod p -> range "pod" p t.t_pods
      | Rack r -> range "rack" r t.t_edge)

let hosts_of t c =
  match check_component t c with
  | Error _ -> []
  | Ok () -> (
      let half = t.t_k / 2 in
      let rack r = List.init half (fun i -> (r * half) + i) in
      let pod p = List.init (half * half) (fun i -> (p * half * half) + i) in
      match c with
      | Rack r | Switch (Edge, r) -> rack r
      | Pod p -> pod p
      | Switch (Agg, _) | Switch (Core, _) -> [])

let severed_hosts t c =
  match c with
  | Rack _ | Pod _ | Switch (Edge, _) -> hosts_of t c
  | Switch (Agg, _) | Switch (Core, _) -> []

let route_crosses t ~src ~dst c =
  match c with
  | Switch (tier, i) -> List.mem (tier, i) (route t ~src ~dst)
  | Pod _ | Rack _ -> false

let member_pred t c =
  let members = hosts_of t c in
  fun h -> List.mem h members

let cut_pairs t c =
  match check_component t c with
  | Error _ -> []
  | Ok () ->
      let acc = ref [] in
      (match c with
      | Pod _ | Rack _ ->
          (* Enclosure failure: every pair touching a member dies, the
             internal pairs included (the edge switches die with it). *)
          let inside = member_pred t c in
          for a = 0 to t.t_hosts - 1 do
            for b = a + 1 to t.t_hosts - 1 do
              if inside a || inside b then acc := (a, b) :: !acc
            done
          done
      | Switch _ ->
          for a = 0 to t.t_hosts - 1 do
            for b = a + 1 to t.t_hosts - 1 do
              if route_crosses t ~src:a ~dst:b c then acc := (a, b) :: !acc
            done
          done);
      List.rev !acc

let intra_pairs t c =
  match hosts_of t c with
  | [] -> []
  | members ->
      let rec go acc = function
        | [] -> List.rev acc
        | a :: rest -> go (List.fold_left (fun acc b -> (a, b) :: acc) acc rest) rest
      in
      go [] members
