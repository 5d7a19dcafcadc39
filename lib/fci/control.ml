open Simkern

type target = {
  target_name : string;
  proc : Proc.t;
  kill : unit -> unit;
  freeze : unit -> unit;
  unfreeze : unit -> unit;
  read_var : string -> int option;
  write_var : string -> int -> bool;
  subscribe_var : (string -> unit) -> unit;
}

let of_procs ~name ~main ~children =
  let all f =
    children f;
    f main
  in
  {
    target_name = name;
    proc = main;
    kill = (fun () -> all Proc.kill);
    freeze = (fun () -> all Proc.freeze);
    unfreeze = (fun () -> all Proc.unfreeze);
    read_var = (fun _ -> None);
    write_var = (fun _ _ -> false);
    subscribe_var = (fun _ -> ());
  }

let of_proc p = of_procs ~name:(Proc.name p) ~main:p ~children:ignore

type vars = {
  table : (string, int) Hashtbl.t;
  mutable subscribers : (string -> unit) list;
}

let make_vars () = { table = Hashtbl.create 8; subscribers = [] }

let set_var vars name v =
  Hashtbl.replace vars.table name v;
  List.iter (fun f -> f name) vars.subscribers

let get_var vars name = Hashtbl.find_opt vars.table name

let with_vars target vars =
  {
    target with
    read_var = get_var vars;
    write_var =
      (fun name v ->
        set_var vars name v;
        true);
    subscribe_var = (fun f -> vars.subscribers <- f :: vars.subscribers);
  }
