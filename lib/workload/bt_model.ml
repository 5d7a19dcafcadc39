type klass = A | B | C

let klass_of_string = function
  | "A" | "a" -> Some A
  | "B" | "b" -> Some B
  | "C" | "c" -> Some C
  | _ -> None

let klass_name = function A -> "A" | B -> "B" | C -> "C"

(* Aggregate compute work in core-seconds, iteration counts and data
   footprints per class. Work is calibrated on the paper's no-fault
   BT-49 class B execution time. *)
let work_core_seconds = function A -> 3.5e3 | B -> 1.03e4 | C -> 4.1e4

let iterations_of = function A -> 200 | B -> 200 | C -> 200

let data_bytes = function A -> 1.0e8 | B -> 3.2e8 | C -> 1.3e9

(* Per-process runtime overhead in a system-level checkpoint image
   (code, libraries, communication buffers). *)
let process_overhead_bytes = 2.5e7

(* Aggregate boundary traffic scales with the total surface; per-rank
   messages shrink as ranks grow. *)
let msg_bytes_of klass ~n_ranks =
  int_of_float (data_bytes klass /. 64.0 /. float_of_int n_ranks)

let params klass ~n_ranks =
  let iterations = iterations_of klass in
  {
    Stencil.iterations;
    compute_time = work_core_seconds klass /. float_of_int (n_ranks * iterations);
    msg_bytes = msg_bytes_of klass ~n_ranks;
    jitter = 0.02;
  }

let app klass ~n_ranks =
  let base = Stencil.app (params klass ~n_ranks) ~n_ranks in
  { base with Mpivcl.App.app_name = Printf.sprintf "bt.%s.%d" (klass_name klass) n_ranks }

let state_bytes klass ~n_ranks =
  int_of_float ((data_bytes klass /. float_of_int n_ranks) +. process_overhead_bytes)

let reference_checksum klass ~n_ranks = Stencil.reference_checksum (params klass ~n_ranks) ~n_ranks
