(** One knob of a run configuration, declared once: the name its errors
    use, its one-character replay token, its command-line flag, its
    range, and how to read and set it. A family's table of knobs, in
    token order, is where its trial string's printer and parser, the
    per-knob part of its [check] and its CLI flags all come from. *)

type flag = { flag : string; docv : string; doc : string }

type 'a kind =
  | Int of { range : Range.t; get : 'a -> int; set : 'a -> int -> 'a }
  | Bool of { get : 'a -> bool; set : 'a -> bool -> 'a }
      (** the bare token [c] when true *)
  | Text of { get : 'a -> string option; set : 'a -> string -> 'a }
      (** printed only when [get] has a value *)

type 'a t = {
  name : string;
  token : char option;
  cli : flag option;
  kind : 'a kind;
}

let row ?tok ?flag ?(docv = "N") ?(doc = "") name kind =
  let cli = Option.map (fun flag -> { flag; docv; doc }) flag in
  { name; token = tok; cli; kind }

let int ?tok ?flag ?docv ?doc name range get set =
  row ?tok ?flag ?docv ?doc name (Int { range; get; set })

let bool ?tok ?flag ?doc name get set =
  row ?tok ?flag ?doc name (Bool { get; set })

let text ?tok ?flag ?docv ?doc name get set =
  row ?tok ?flag ?docv ?doc name (Text { get; set })

(* Every integer knob in its range, in table order. *)
let check fn knobs c =
  List.iter
    (function
      | { name; kind = Int { range; get; _ }; _ } ->
          Range.check fn name range (get c)
      | _ -> ())
    knobs

(* The tokens of [c], each after a space, in table order. *)
let to_string knobs c =
  String.concat ""
    (List.filter_map
       (fun k ->
         Option.bind k.token (fun tok ->
             Option.map
               (Printf.sprintf " %c%s" tok)
               (match k.kind with
               | Int { get; _ } -> Some (string_of_int (get c))
               | Bool { get; _ } -> if get c then Some "" else None
               | Text { get; _ } -> get c)))
       knobs)
