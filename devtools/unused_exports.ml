(* Unused-export check over the compiler's typed trees.

     dune build @check && dune exec devtools/unused_exports.exe

   Reads every .cmti under lib/ and every .cmt under lib/, bin/, bench/,
   examples/, devtools/ and test/ from _build/default. An exported value
   (a [val] of a lib/ interface, nested modules included) counts as used
   when another compilation unit's typed tree names it: a [Texp_ident]
   whose value description carries the export's uid. Uids survive module
   aliases and re-exports, so [Failmpi.Backend.x] and [Backend.x] are one
   name. References from the export's own unit are ignored, because its
   implementation's uids share a namespace with its interface's.

   Prints each export that no unit outside test/ uses, saying whether a
   test uses it. Exits 1 when one of them is not in
   devtools/unused_exports.allow, or when an allowlist entry names an
   export that is used after all or no longer exists; 2 when the build
   tree is missing or an entry gives no reason; 0 otherwise.

   An allowlist line is [Lib.Module.name reason]. Blank lines and lines
   starting with '#' are skipped. *)

let build_root = "_build/default"
let allow_file = "devtools/unused_exports.allow"
let user_dirs = [ "lib"; "bin"; "bench"; "examples"; "devtools"; "test" ]

let rec files_under dir ext =
  if not (Sys.file_exists dir && Sys.is_directory dir) then []
  else
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun name ->
           let path = Filename.concat dir name in
           if Sys.is_directory path then files_under path ext
           else if Filename.check_suffix name ext then [ path ]
           else [])

let under_build dirs ext =
  List.concat_map (fun d -> files_under (Filename.concat build_root d) ext) dirs

(* "Simkern__Mailbox" -> "Simkern.Mailbox" *)
let display_unit modname = Str.global_replace (Str.regexp_string "__") "." modname

type export = { name : string; loc : string }

let exports_of_signature ~unit sg =
  let found = ref [] in
  let rec walk prefix (sg : Typedtree.signature) =
    List.iter
      (fun (item : Typedtree.signature_item) ->
        match item.sig_desc with
        | Tsig_value vd ->
            let pos = vd.val_loc.loc_start in
            let loc = Printf.sprintf "%s:%d" pos.pos_fname pos.pos_lnum in
            found :=
              (vd.val_val.val_uid, { name = prefix ^ vd.val_name.txt; loc })
              :: !found
        | Tsig_module { md_name = { txt = Some m; _ }; md_type; _ } ->
            module_type (prefix ^ m ^ ".") md_type
        | _ -> ())
      sg.sig_items
  and module_type prefix (mty : Typedtree.module_type) =
    match mty.mty_desc with
    | Tmty_signature sg -> walk prefix sg
    | _ -> ()
  in
  walk (display_unit unit ^ ".") sg;
  List.rev !found

(* Every value uid a unit's implementation names, with the unit's name. *)
let references path =
  let cmt = Cmt_format.read_cmt path in
  let uids = ref [] in
  let expr (it : Tast_iterator.iterator) (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_ident (_, _, vd) -> uids := vd.val_uid :: !uids
    | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  (match cmt.cmt_annots with
  | Implementation str -> it.structure it str
  | _ -> ());
  (cmt.cmt_modname, !uids)

let read_allowlist () =
  if not (Sys.file_exists allow_file) then []
  else
    In_channel.with_open_text allow_file In_channel.input_all
    |> String.split_on_char '\n'
    |> List.mapi (fun i line -> (i + 1, String.trim line))
    |> List.filter (fun (_, l) -> l <> "" && l.[0] <> '#')
    |> List.map (fun (n, l) ->
           match String.index_opt l ' ' with
           | Some k when String.trim (String.sub l k (String.length l - k)) <> "" ->
               (String.sub l 0 k, n)
           | _ ->
               Printf.eprintf "%s:%d: entry %s gives no reason\n" allow_file n l;
               exit 2)

let () =
  if not (Sys.file_exists (Filename.concat build_root "lib")) then begin
    prerr_endline "unused_exports: run `dune build @check` from the repository root first";
    exit 2
  end;
  let exports =
    under_build [ "lib" ] ".cmti"
    |> List.concat_map (fun path ->
           let cmt = Cmt_format.read_cmt path in
           match cmt.cmt_annots with
           | Interface sg -> exports_of_signature ~unit:cmt.cmt_modname sg
           | _ -> [])
  in
  (* uid -> (used outside test/, used by a test) *)
  let use = Hashtbl.create 1024 in
  List.iter (fun (uid, _) -> Hashtbl.replace use uid (false, false)) exports;
  let test_root = Filename.concat build_root "test" ^ "/" in
  List.iter
    (fun path ->
      let is_test = String.starts_with ~prefix:test_root path in
      let modname, uids = references path in
      List.iter
        (fun uid ->
          match (uid : Shape.Uid.t) with
          | Item { comp_unit; _ } when comp_unit <> modname -> (
              match Hashtbl.find_opt use uid with
              | Some (outside, test) ->
                  Hashtbl.replace use uid (outside || not is_test, test || is_test)
              | None -> ())
          | _ -> ())
        uids)
    (under_build user_dirs ".cmt");
  let allow = read_allowlist () in
  let failed = ref false in
  let unused = ref [] in
  List.iter
    (fun (uid, e) ->
      let outside, test = Hashtbl.find use uid in
      if not outside then begin
        unused := e.name :: !unused;
        let listed = List.mem_assoc e.name allow in
        if not listed then failed := true;
        Printf.printf "%s %s (%s): %s%s\n"
          (if listed then "allowed" else "UNUSED ")
          e.name e.loc
          (if test then "used only by tests" else "used by nothing")
          (if listed then "" else ", not in the allowlist")
      end)
    exports;
  List.iter
    (fun (name, line) ->
      if not (List.mem name !unused) then begin
        failed := true;
        Printf.printf "STALE   %s (%s:%d): %s\n" name allow_file line
          (if List.exists (fun (_, e) -> e.name = name) exports then
             "used outside the tests after all"
           else "no such export")
      end)
    allow;
  if !failed then exit 1
