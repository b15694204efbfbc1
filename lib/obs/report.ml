(** Schema-versioned run reports and the A/B diff analyzer.

    The paper's quantitative case for OPTIK is {e wasted work}: restarts,
    failed validations and failed lock acquisitions per operation. This
    module gives that evidence a machine-readable form — a JSON report
    every [optik_bench] subcommand can emit ([--report FILE]) and a
    deterministic [diff] that compares two such reports metric by metric.

    Everything here is hand-rolled on purpose: the repository carries no
    JSON dependency, and the printer is {e deterministic} — identical
    values always serialize to identical bytes, so seeded reports are
    pinned like the other exporters (the [obs] rows of [test/ledger.txt]).

    Schema ([schema_name], [schema_version]): a report is an object with
    [schema]/[version]/[tool]/[subcommand]/[seed]/[params]/[runs] members
    (plus free-form extra sections). Compatibility rule: consumers must
    reject a different [schema] or a {e greater} [version]; members may be
    added within a version, never removed or retyped. The full field
    catalogue lives in DESIGN.md ("Run reports"). *)

(* ------------------------------------------------------------------ *)
(* JSON values                                                         *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

(* ------------------------------------------------------------------ *)
(* Deterministic printing                                              *)

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* One fixed float format: deterministic bytes for a given value, and
   always a valid JSON number (non-finite values become null). *)
let float_repr f =
  if not (Float.is_finite f) then "null" else Printf.sprintf "%.12g" f

let to_buffer buf j =
  let add = Buffer.add_string buf in
  let indent n = add (String.make n ' ') in
  let rec go n = function
    | Null -> add "null"
    | Bool b -> add (if b then "true" else "false")
    | Int i -> add (string_of_int i)
    | Float f -> add (float_repr f)
    | Str s ->
        add "\"";
        add (escape s);
        add "\""
    | Arr [] -> add "[]"
    | Arr items ->
        add "[\n";
        List.iteri
          (fun i x ->
            if i > 0 then add ",\n";
            indent (n + 2);
            go (n + 2) x)
          items;
        add "\n";
        indent n;
        add "]"
    | Obj [] -> add "{}"
    | Obj kvs ->
        add "{\n";
        List.iteri
          (fun i (k, v) ->
            if i > 0 then add ",\n";
            indent (n + 2);
            add "\"";
            add (escape k);
            add "\": ";
            go (n + 2) v)
          kvs;
        add "\n";
        indent n;
        add "}"
  in
  go 0 j

let to_string j =
  let buf = Buffer.create 4096 in
  to_buffer buf j;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing (recursive descent; accepts what [to_string] emits plus
   ordinary hand-written JSON)                                         *)

exception Parse_error of string

let parse (s : string) : (json, string) result =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then (
      pos := !pos + l;
      v)
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> incr pos
      | '\\' ->
          incr pos;
          if !pos >= n then fail "unterminated escape";
          (match s.[!pos] with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              if !pos + 4 >= n then fail "truncated \\u escape";
              let hex = String.sub s (!pos + 1) 4 in
              let code =
                try int_of_string ("0x" ^ hex)
                with _ -> fail "bad \\u escape"
              in
              (* Our own writer only emits \u for control characters;
                 anything beyond one byte degrades to '?'. *)
              if code < 0x100 then Buffer.add_char b (Char.chr code)
              else Buffer.add_char b '?';
              pos := !pos + 4
          | c -> fail (Printf.sprintf "bad escape \\%c" c));
          incr pos;
          go ()
      | c ->
          Buffer.add_char b c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && num_char s.[!pos] do
      incr pos
    done;
    let lit = String.sub s start (!pos - start) in
    let is_float =
      String.exists (fun c -> c = '.' || c = 'e' || c = 'E') lit
    in
    if is_float then
      match float_of_string_opt lit with
      | Some f -> Float f
      | None -> fail "bad number"
    else
      match int_of_string_opt lit with
      | Some i -> Int i
      | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        expect '{';
        skip_ws ();
        if peek () = Some '}' then (
          expect '}';
          Obj [])
        else
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                expect ',';
                members ((k, v) :: acc)
            | Some '}' ->
                expect '}';
                Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          members []
    | Some '[' ->
        expect '[';
        skip_ws ();
        if peek () = Some ']' then (
          expect ']';
          Arr [])
        else
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                expect ',';
                items (v :: acc)
            | Some ']' ->
                expect ']';
                Arr (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          items []
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

let to_int = function Int i -> Some i | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_list = function Arr l -> Some l | _ -> None

let to_number = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Report envelope                                                     *)

let schema_name = "optik-run-report"
let schema_version = 1

(** [make ~subcommand ~seed ~params ~runs ~sections] assembles the
    envelope. [params] echoes the effective command-line parameters;
    [runs] holds one object per measured run; [sections] appends
    subcommand-specific extras (chaos trial lines, hostperf specs…). *)
let make ~subcommand ~seed ~params ~runs ~sections =
  Obj
    ([
       ("schema", Str schema_name);
       ("version", Int schema_version);
       ("tool", Str "optik_bench");
       ("subcommand", Str subcommand);
       ("seed", match seed with Some s -> Int s | None -> Null);
       ("params", Obj params);
       ("runs", Arr runs);
     ]
    @ sections)

(** Structural validation of a parsed report: schema/version gate (the
    compatibility rule above), envelope members, and for every run an
    [id], an all-numeric [metrics] object and — when present — a [wasted]
    object. Returns a description of the first violation. *)
let validate (j : json) : (unit, string) result =
  let ( let* ) r f = match r with Error _ as e -> e | Ok v -> f v in
  let req name conv ctx =
    match member name ctx with
    | None -> Error (Printf.sprintf "missing member %S" name)
    | Some v -> (
        match conv v with
        | Some x -> Ok x
        | None -> Error (Printf.sprintf "member %S has the wrong type" name))
  in
  match j with
  | Obj _ ->
      let* schema = req "schema" to_str j in
      if not (String.equal schema schema_name) then
        Error (Printf.sprintf "schema %S is not %S" schema schema_name)
      else
        let* version = req "version" to_int j in
        if version > schema_version then
          Error
            (Printf.sprintf "version %d is newer than supported %d" version
               schema_version)
        else
          let* _ = req "subcommand" to_str j in
          let* _ = req "params" (function Obj o -> Some o | _ -> None) j in
          let* runs = req "runs" to_list j in
          let check_run i r =
            let ctx msg = Printf.sprintf "run %d: %s" i msg in
            match r with
            | Obj _ -> (
                match req "id" to_str r with
                | Error e -> Error (ctx e)
                | Ok _ -> (
                    match member "metrics" r with
                    | Some (Obj ms) ->
                        if
                          List.for_all
                            (fun (_, v) -> to_number v <> None)
                            ms
                        then
                          match member "wasted" r with
                          | None | Some (Obj _) -> Ok ()
                          | Some _ -> Error (ctx "wasted is not an object")
                        else Error (ctx "metrics has a non-numeric member")
                    | _ -> Error (ctx "missing metrics object")))
            | _ -> Error (ctx "not an object")
          in
          let rec all i = function
            | [] -> Ok ()
            | r :: rest -> (
                match check_run i r with
                | Error _ as e -> e
                | Ok () -> all (i + 1) rest)
          in
          all 0 runs
  | _ -> Error "report is not an object"

(* ------------------------------------------------------------------ *)
(* Wasted-work accounting                                              *)

(* Metric taxonomy (definitions in DESIGN.md, "Wasted-work metrics"),
   by counter kind: the restart class is every attempt thrown away and
   redone ([Restart], the transaction layer's [Abort] and
   [Snapshot_retry]); [Vfail] counts failed validations and [Lock_fail]
   failed lock acquisitions. *)
let restart_class : Rt.Rt_intf.counter_kind -> bool = function
  | Restart | Abort | Snapshot_retry -> true
  | _ -> false

(** Normalized wasted-work section computed from a counter dump with
    each counter's kind: restart totals (and per operation), the
    validation-failure taxonomy, lock-acquire failures, plus a
    per-structure breakdown keyed by the owner part of the counter name
    (before its first dot). [cas_failed] comes from the scheduler, not a
    probe — it counts every failed CAS, wasted or helping. *)
let wasted ~ops ~cas_failed
    ~(counters : (string * Rt.Rt_intf.counter_kind * int) list) : json =
  let per_op v =
    Float (float_of_int v /. float_of_int (max 1 ops))
  in
  let sum p = List.fold_left (fun acc (_, k, v) -> if p k then acc + v else acc) 0 in
  let vfail = ( = ) Rt.Rt_intf.Vfail and lockfail = ( = ) Rt.Rt_intf.Lock_fail in
  let restarts = sum restart_class counters in
  let vfails = List.filter (fun (_, k, _) -> vfail k) counters in
  let lockfails = sum lockfail counters in
  let by_structure =
    let owner (name, _, _) = String.sub name 0 (String.index name '.') in
    let wasted =
      List.filter (fun (_, k, _) -> restart_class k || vfail k || lockfail k) counters
    in
    List.sort_uniq String.compare (List.map owner wasted)
    |> List.filter_map (fun o ->
           let mine = List.filter (fun c -> owner c = o) wasted in
           let r = sum restart_class mine
           and vf = sum vfail mine
           and lf = sum lockfail mine in
           if r + vf + lf = 0 then None
           else
             Some
               ( o,
                 Obj
                   [
                     ("restarts", Int r);
                     ("restarts_per_op", per_op r);
                     ("validation_fails", Int vf);
                     ("lock_acquire_fails", Int lf);
                   ] ))
  in
  Obj
    [
      ("restarts", Int restarts);
      ("restarts_per_op", per_op restarts);
      ("validation_fails", Int (sum vfail counters));
      ( "validation_fail_taxonomy",
        Obj
          (List.sort
             (fun (a, _) (b, _) -> String.compare a b)
             (List.map (fun (name, _, v) -> (name, Int v)) vfails)) );
      ("lock_acquire_fails", Int lockfails);
      ("lock_acquire_fails_per_op", per_op lockfails);
      ("cas_failed", Int cas_failed);
      ("cas_failed_per_op", per_op cas_failed);
      ("by_structure", Obj by_structure);
    ]

(* ------------------------------------------------------------------ *)
(* A/B diff                                                            *)

(* Flatten every numeric leaf of a run object into dotted paths.
   Latency/counters/wasted are emitted as objects keyed by class/probe
   name, so the flattening needs no special cases. Arrays are skipped:
   nothing numeric the diff cares about lives in arrays. *)
let flatten (j : json) : (string * float) list =
  let rec go prefix j acc =
    match j with
    | Obj kvs ->
        List.fold_left
          (fun acc (k, v) ->
            go (if prefix = "" then k else prefix ^ "." ^ k) v acc)
          acc kvs
    | Int i -> (prefix, float_of_int i) :: acc
    | Float f -> (prefix, f) :: acc
    | Bool _ | Str _ | Null | Arr _ -> acc
  in
  List.sort (fun (a, _) (b, _) -> String.compare a b) (go "" j [])

(* Direction of goodness per metric path, for ranking regressions. *)
type direction = Higher_better | Lower_better | Neutral

let contains ~sub s =
  let ls = String.length sub and l = String.length s in
  let rec at i = i + ls <= l && (String.sub s i ls = sub || at (i + 1)) in
  at 0

let direction path =
  let ends = List.exists (fun suffix -> String.ends_with ~suffix path) in
  if ends [ ".mops"; ".ops" ] then Higher_better
  else if
    contains ~sub:"wasted." path
    || contains ~sub:"cas_failed" path
    || ends
         [
           ".p50"; ".p95"; ".p99"; ".p999"; ".stalls"; ".restarts"; ".timeouts";
           ".sheds"; ".retries";
         ]
  then Lower_better
  else Neutral

(* Relative worsening of b vs a under the path's direction; 0 when the
   path carries no direction or nothing changed. *)
let worsening path a b =
  let rel = (b -. a) /. Float.max 1e-12 (Float.abs a) in
  match direction path with
  | Higher_better -> -.rel
  | Lower_better -> rel
  | Neutral -> 0.

type pairing = By_id | Positional

(* Pair the two reports' runs: by id when they share ids (seed-vs-seed,
   commit-vs-commit), positionally when they share none but have equal
   counts (structure-vs-structure). *)
let pair_runs runs_a runs_b =
  let id r = Option.value ~default:"?" (Option.bind (member "id" r) to_str) in
  let ids_a = List.map id runs_a in
  let common =
    List.filter (fun i -> List.exists (String.equal i) ids_a) (List.map id runs_b)
  in
  if common <> [] then
    ( By_id,
      List.filter_map
        (fun ra ->
          let ia = id ra in
          match
            List.find_opt (fun rb -> String.equal (id rb) ia) runs_b
          with
          | Some rb -> Some (ia, id rb, ra, rb)
          | None -> None)
        runs_a )
  else if List.length runs_a = List.length runs_b then
    (Positional, List.map2 (fun ra rb -> (id ra, id rb, ra, rb)) runs_a runs_b)
  else (Positional, [])

(* The fixed per-run table: headline metrics plus the wasted-work
   normalization, always shown when present in both runs. Every other
   common numeric path (counters, latency percentiles, hotline stalls)
   is shown only when it changed. *)
let core_paths =
  [
    "metrics.mops";
    "metrics.ops";
    "metrics.wall_s";
    "metrics.eff_update_pct";
    "metrics.cas";
    "metrics.cas_failed";
    "metrics.events";
    "wasted.restarts";
    "wasted.restarts_per_op";
    "wasted.validation_fails";
    "wasted.lock_acquire_fails";
    "wasted.cas_failed_per_op";
  ]

let fnum f =
  (* Integral values print as integers so counter rows stay readable. *)
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.4f" f

let signed v =
  let s = fnum v in
  if v >= 0. && String.length s > 0 && s.[0] <> '-' then "+" ^ s else s

let summary_line label j =
  Printf.sprintf "  %s: subcommand=%s seed=%s runs=%d" label
    (Option.value ~default:"?" (Option.bind (member "subcommand" j) to_str))
    (match member "seed" j with
    | Some (Int s) -> string_of_int s
    | _ -> "-")
    (match Option.bind (member "runs" j) to_list with
    | Some l -> List.length l
    | None -> 0)

type regression = {
  rg_run : string;
  rg_path : string;
  rg_a : float;
  rg_b : float;
  rg_worse : float;  (** relative worsening, > 0 *)
}

(** [diff ~top a b] renders a deterministic comparison of two parsed
    reports: a header, one per-metric table per paired run, the top-[top]
    regressions ranked by relative worsening, and — when both reports
    carry hot-line profiles — a stall-attribution diff by allocation
    site. Returns [Error] if either report fails {!validate}. *)
let diff ?(top = 10) (a : json) (b : json) : (string, string) result =
  match (validate a, validate b) with
  | Error e, _ -> Error ("report A invalid: " ^ e)
  | _, Error e -> Error ("report B invalid: " ^ e)
  | Ok (), Ok () ->
      let buf = Buffer.create 4096 in
      let out fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
      let runs j =
        Option.value ~default:[] (Option.bind (member "runs" j) to_list)
      in
      let pairing, pairs = pair_runs (runs a) (runs b) in
      out "report diff (%s v%d)" schema_name schema_version;
      out "%s" (summary_line "a" a);
      out "%s" (summary_line "b" b);
      out "pairing: %s (%d run pair%s)"
        (match pairing with By_id -> "by run id" | Positional -> "positional")
        (List.length pairs)
        (if List.length pairs = 1 then "" else "s");
      if pairs = [] then
        out "no comparable runs (different counts and no shared ids)";
      let regressions = ref [] in
      let common_paths = ref 0 in
      (* The numeric leaves both sides carry, in [a]'s order. *)
      let common j k =
        let fb = flatten k in
        let c =
          List.filter_map
            (fun (path, va) ->
              Option.map (fun vb -> (path, va, vb)) (List.assoc_opt path fb))
            (flatten j)
        in
        common_paths := !common_paths + List.length c;
        c
      in
      (* One table: a header, then a row per leaf, each worsening
         recorded against [run]. *)
      let table title run rows =
        out "";
        out "== %s ==" title;
        out "  %-42s %14s %14s %14s %9s" "metric" "a" "b" "delta" "rel";
        List.iter
          (fun (path, va, vb) ->
            let delta = vb -. va in
            let rel =
              if va = 0. then (if vb = 0. then 0. else Float.infinity)
              else 100. *. delta /. Float.abs va
            in
            out "  %-42s %14s %14s %14s %9s" path (fnum va) (fnum vb)
              (signed delta)
              (if Float.is_finite rel then Printf.sprintf "%+.1f%%" rel
               else "new");
            let w = worsening path va vb in
            if w > 0.0005 then
              regressions :=
                { rg_run = run; rg_path = path; rg_a = va; rg_b = vb; rg_worse = w }
                :: !regressions)
          rows
      in
      List.iter
        (fun (ida, idb, ra, rb) ->
          let rows =
            List.filter
              (fun (path, va, vb) -> List.mem path core_paths || va <> vb)
              (common ra rb)
          in
          if String.equal ida idb then table ida ida rows
          else table (Printf.sprintf "a:%s vs b:%s" ida idb) (ida ^ "|" ^ idb) rows)
        pairs;
      (* Free-form sections (oracle extras, attrib, timeline…) diff the
         same way: flatten each side's non-envelope members and compare
         the common numeric leaves, so a phase share or a window's
         failover count is as diffable as any run metric. *)
      let envelope =
        [ "schema"; "version"; "tool"; "subcommand"; "seed"; "params"; "runs" ]
      in
      let section_members j =
        match j with
        | Obj members ->
            Obj (List.filter (fun (k, _) -> not (List.mem k envelope)) members)
        | _ -> Obj []
      in
      let changed =
        List.filter
          (fun (_, va, vb) -> va <> vb)
          (common (section_members a) (section_members b))
      in
      if changed <> [] then table "sections" "sections" changed;
      (* Top-k regressions, ranked by relative worsening; deterministic
         tie-break on (run, path). *)
      let ranked =
        List.sort
          (fun x y ->
            match compare y.rg_worse x.rg_worse with
            | 0 -> (
                match String.compare x.rg_run y.rg_run with
                | 0 -> String.compare x.rg_path y.rg_path
                | c -> c)
            | c -> c)
          !regressions
      in
      let rec take n = function
        | [] -> []
        | _ when n = 0 -> []
        | x :: rest -> x :: take (n - 1) rest
      in
      out "";
      (match ranked with
      | [] -> out "top regressions (b worse than a): none"
      | _ ->
          out "top regressions (b worse than a):";
          List.iteri
            (fun i r ->
              out "  %2d. %-24s %-42s a=%s b=%s (%+.1f%%)" (i + 1) r.rg_run
                r.rg_path (fnum r.rg_a) (fnum r.rg_b) (100. *. r.rg_worse))
            (take top ranked));
      (* Stall attribution: per-site hotline stall deltas, when both
         sides recorded a profile. *)
      let stalls r =
        match member "hotlines" r with
        | Some (Obj sites) ->
            List.filter_map
              (fun (site, h) ->
                Option.map (fun s -> (site, s))
                  (Option.bind (member "stalls" h) to_number))
              sites
        | _ -> []
      in
      let stall_pairs =
        List.concat_map
          (fun (ida, idb, ra, rb) ->
            let sa = stalls ra and sb = stalls rb in
            if sa = [] || sb = [] then []
            else
              let sites =
                List.sort_uniq String.compare (List.map fst sa @ List.map fst sb)
              in
              [
                ( (if String.equal ida idb then ida else ida ^ "|" ^ idb),
                  List.map
                    (fun site ->
                      ( site,
                        Option.value ~default:0. (List.assoc_opt site sa),
                        Option.value ~default:0. (List.assoc_opt site sb) ))
                    sites );
              ])
          pairs
      in
      if stall_pairs <> [] then begin
        out "";
        out "stall attribution (hot-line serialization stalls by site):";
        List.iter
          (fun (id, rows) ->
            out "  [%s]" id;
            out "    %-30s %12s %12s %12s" "site" "a" "b" "delta";
            List.iter
              (fun (site, sa, sb) ->
                out "    %-30s %12s %12s %12s" site (fnum sa) (fnum sb)
                  (signed (sb -. sa)))
              rows)
          stall_pairs
      end;
      (* Runs paired up but shared not a single numeric path: the reports
         measure different things (e.g. a [run] report vs a [kv] report)
         and an empty table would be misleading. Surface it as an error so
         the CLI exits distinctly instead of printing "no regressions". *)
      if pairs <> [] && !common_paths = 0 then
        Error "reports have disjoint metric sets: no common numeric paths"
      else Ok (Buffer.contents buf)

(* ------------------------------------------------------------------ *)
(* Files                                                               *)

let write_file path j =
  let oc = open_out path in
  output_string oc (to_string j);
  close_out oc

let read_file path : (json, string) result =
  match In_channel.with_open_text path In_channel.input_all with
  | s -> parse s
  | exception Sys_error msg -> Error msg
