(* The one writer of the BENCH_<suite>.json files.

   A file is a header — the commit of the checkout, the core count,
   the OCaml version, whether the run was a --smoke run and the GC
   policy the runs were sized by (Failmpi.Gc_policy's per-host factor,
   floor and cap, and any s= override in OCAMLRUNPARAM) — followed
   by flat records {suite, metric, value, unit, layer}. A metric is a
   path that carries the suite's parameters, such as
   "loss_curve/ulfm/0.05/net_dropped"; a layer names the library the
   measured work runs in. A value is a number, a boolean (checksum_ok),
   a string (outcome names) or null (an option that is None, or a
   number that is not finite). *)

type value = Num of float | Bool of bool | Str of string | Null
type t = { metric : string; value : value; unit : string; layer : string }

let make ~layer metric unit value = { metric; value; unit; layer }
let num ~layer metric unit x = make ~layer metric unit (Num x)
let int ~layer metric unit n = num ~layer metric unit (float_of_int n)
let opt f = function Some x -> f x | None -> Null

(* A bench refuses a result it cannot vouch for: it names the failed
   check on stderr, writes no file and exits 1. *)
let refuse suite fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "%s bench: %s\n%!" suite msg;
      exit 1)
    fmt

let json_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (function
      | ('"' | '\\') as c ->
          Buffer.add_char buf '\\';
          Buffer.add_char buf c
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let json_value = function
  | Num x when Float.is_integer x && Float.abs x < 1e15 -> Printf.sprintf "%.0f" x
  | Num x when Float.is_finite x -> Printf.sprintf "%.10g" x
  | Num _ | Null -> "null"
  | Bool b -> string_of_bool b
  | Str s -> json_string s

(* The commit of the checkout the bench runs in, with "-dirty" when
   tracked files differ from it, or "unknown" outside a git checkout.
   Read once, before any suite rewrites a committed BENCH file. *)
let commit () =
  let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
  let head = In_channel.input_line ic in
  match (Unix.close_process_in ic, head) with
  | Unix.WEXITED 0, Some head ->
      if Sys.command "git diff --quiet HEAD -- 2>/dev/null" = 0 then head else head ^ "-dirty"
  | _ -> "unknown"

type header = { commit : string; smoke : bool }

let header ~smoke = { commit = commit (); smoke }

let write header ~suite records =
  let path = Printf.sprintf "BENCH_%s.json" suite in
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"commit\": %s,\n  \"cores\": %d,\n  \"ocaml\": %s,\n  \"smoke\": %b,\n"
    (json_string header.commit)
    (Domain.recommended_domain_count ())
    (json_string Sys.ocaml_version) header.smoke;
  Printf.fprintf oc
    "  \"gc_policy\": { \"words_per_host\": %d, \"floor_words\": %d, \"cap_words\": %d, \"override\": %s },\n"
    Failmpi.Gc_policy.words_per_host Failmpi.Gc_policy.floor_words Failmpi.Gc_policy.cap_words
    (json_value (opt (fun s -> Str s) (Failmpi.Gc_policy.override ())));
  let record r =
    Printf.sprintf
      "    { \"suite\": %s, \"metric\": %s, \"value\": %s, \"unit\": %s, \"layer\": %s }"
      (json_string suite) (json_string r.metric) (json_value r.value) (json_string r.unit)
      (json_string r.layer)
  in
  Printf.fprintf oc "  \"records\": [\n%s\n  ]\n}\n"
    (String.concat ",\n" (List.map record records));
  close_out oc;
  Printf.printf "wrote %s (%d records)\n%!" path (List.length records)
