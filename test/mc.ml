(* A breadth-first model checker shared by the tests of the pure state
   machines (Mpiulfm.Agree, Mpivcl.Recovery). A model names its
   transitions the same in every state that enables them; [apply] raises
   [Violation] when a transition breaks a checked property and [Pruned]
   when it leaves the explored bounds. States with equal [key]s are one
   state. *)

exception Violation of string
exception Pruned

module type MODEL = sig
  type state
  type transition

  val enabled : state -> transition list
  val apply : state -> transition -> state
  val label : transition -> state -> string
  val key : state -> string
end

type result = { states : int; counterexample : string list option }

module Make (M : MODEL) = struct
  (* Breadth first from [init], at most [depth] transitions deep, so the
     first violation found is at the smallest depth any has. [seen]
     keeps the first transition into each state; a counterexample is
     that chain of transitions, relabelled by replaying it. *)
  let explore ?(depth = max_int) init =
    let seen : (string, (string * M.transition) option) Hashtbl.t = Hashtbl.create 65536 in
    Hashtbl.replace seen (M.key init) None;
    let rec chain k acc =
      match Hashtbl.find seen k with None -> acc | Some (parent, t) -> chain parent (t :: acc)
    in
    let replay trs =
      List.rev
        (snd
           (List.fold_left
              (fun (s, ls) t -> (M.apply s t, M.label t s :: ls))
              (init, []) trs))
    in
    let rec level d frontier =
      if d = depth || frontier = [] then None
      else begin
        let next = ref [] in
        let expand (k, s) =
          List.find_map
            (fun t ->
              match M.apply s t with
              | exception Pruned -> None
              | exception Violation v -> Some (replay (chain k []) @ [ M.label t s; "=> " ^ v ])
              | s' ->
                  let k' = M.key s' in
                  if not (Hashtbl.mem seen k') then begin
                    Hashtbl.replace seen k' (Some (k, t));
                    next := (k', s') :: !next
                  end;
                  None)
            (M.enabled s)
        in
        let found = List.find_map expand frontier in
        match found with Some _ -> found | None -> level (d + 1) (List.rev !next)
      end
    in
    let counterexample = level 0 [ (M.key init, init) ] in
    { states = Hashtbl.length seen; counterexample }
end

(* the counterexample of [r], numbered, one step a line *)
let steps r =
  let line i s = Printf.sprintf "  %d. %s" (i + 1) s in
  Option.map (fun steps -> String.concat "\n" (List.mapi line steps)) r.counterexample
