open Simkern
open Mpivcl

type params = { iterations : int; compute_time : float; msg_bytes : int; jitter : float }

let mix a b = ((a * 1103515245) + (b * 12345) + 0x9E37) land 0x3FFFFFFF

let send_value rank iter acc = mix (mix (rank + 1) (iter + 1)) acc

let isqrt n =
  let rec find i = if i * i >= n then i else find (i + 1) in
  find 1

(* Directions in fold order; [opposite] pairs N/S and W/E. *)
let dir_codes = [ 0; 1; 2; 3 ] (* N S W E *)

let opposite = function 0 -> 1 | 1 -> 0 | 2 -> 3 | 3 -> 2 | d -> d

let neighbour ~side rank dir =
  let row = rank / side and col = rank mod side in
  let row', col' =
    match dir with
    | 0 -> ((row + side - 1) mod side, col)
    | 1 -> ((row + 1) mod side, col)
    | 2 -> (row, (col + side - 1) mod side)
    | 3 -> (row, (col + 1) mod side)
    | d -> invalid_arg (Printf.sprintf "Stencil.neighbour: bad direction %d" d)
  in
  (row' * side) + col'

let valid_ranks n =
  let side = isqrt n in
  n > 0 && side * side = n

let check_square n =
  if not (valid_ranks n) then
    invalid_arg (Printf.sprintf "Stencil: %d ranks is not a perfect square" n);
  isqrt n

let app params ~n_ranks =
  let side = check_square n_ranks in
  let main (ctx : App.ctx) =
    let state = ctx.App.state in
    let rank = ctx.App.rank in
    let start = state.(0) in
    for iter = start to params.iterations - 1 do
      ctx.App.set_app_var "iteration" iter;
      Proc.sleep (params.compute_time *. (1.0 +. (params.jitter *. ctx.App.noise iter)));
      if side > 1 then begin
        let v = send_value rank iter state.(1) in
        List.iter
          (fun dir ->
            ctx.App.send
              ~dst:(neighbour ~side rank dir)
              ~tag:((iter * 4) + dir)
              ~bytes:params.msg_bytes v)
          dir_codes;
        List.iter
          (fun dir ->
            let got =
              ctx.App.recv ~src:(neighbour ~side rank dir) ~tag:((iter * 4) + opposite dir)
            in
            state.(1) <- mix state.(1) got)
          dir_codes
      end
      else state.(1) <- mix state.(1) (send_value rank iter state.(1));
      state.(0) <- iter + 1;
      ctx.App.commit ()
    done;
    if state.(2) = 0 then begin
      let total = App.allreduce_sum ctx ~tag_base:(params.iterations * 4) state.(1) in
      (* Checksums are 30-bit; a completed allreduce is never 0 in
         practice, and 0 doubles as the "not done yet" marker. *)
      state.(2) <- (if total = 0 then 1 else total);
      ctx.App.commit ()
    end;
    ctx.App.set_app_var "checksum" state.(2);
    ctx.App.finalize ()
  in
  {
    App.app_name = Printf.sprintf "stencil-%d" n_ranks;
    state_size = 3;
    main;
  }

let reference_checksum params ~n_ranks =
  let side = check_square n_ranks in
  let accs = Array.make n_ranks 0 in
  for iter = 0 to params.iterations - 1 do
    let sent = Array.mapi (fun rank acc -> send_value rank iter acc) accs in
    Array.iteri
      (fun rank acc ->
        if side > 1 then begin
          let acc' =
            List.fold_left
              (fun acc dir -> mix acc sent.(neighbour ~side rank dir))
              acc dir_codes
          in
          accs.(rank) <- acc'
        end
        else accs.(rank) <- mix acc sent.(rank))
      (Array.copy accs)
  done;
  let total = Array.fold_left ( + ) 0 accs in
  if total = 0 then 1 else total
