let mean = function
  | [] -> None
  | xs -> Some (List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs))

let stddev = function
  | [] | [ _ ] -> None
  | xs ->
      let m = Option.get (mean xs) in
      let var =
        List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs
        /. float_of_int (List.length xs - 1)
      in
      Some (sqrt var)

let percent ~total n = if total = 0 then 0.0 else 100.0 *. float_of_int n /. float_of_int total
