type ctx = {
  rank : int;
  size : int;
  state : int array;
  send : dst:int -> tag:int -> ?bytes:int -> int -> unit;
  recv : src:int -> tag:int -> int;
  commit : unit -> unit;
  finalize : unit -> unit;
  set_app_var : string -> int -> unit;
  noise : int -> float;
}

type t = { app_name : string; state_size : int; main : ctx -> unit }

let allreduce_sum ctx ~tag_base v =
  if ctx.size = 1 then v
  else if ctx.rank = 0 then begin
    let total = ref v in
    for src = 1 to ctx.size - 1 do
      total := !total + ctx.recv ~src ~tag:(tag_base + src)
    done;
    for dst = 1 to ctx.size - 1 do
      ctx.send ~dst ~tag:(tag_base + ctx.size + dst) !total
    done;
    !total
  end
  else begin
    ctx.send ~dst:0 ~tag:(tag_base + ctx.rank) v;
    ctx.recv ~src:0 ~tag:(tag_base + ctx.size + ctx.rank)
  end

