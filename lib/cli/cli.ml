(* The command-line arguments the optik_bench subcommands share, and the
   kv and txn config terms, derived from each family's knob table. *)

open Cmdliner

(* An integer flag; a value outside [range] is a parse error, which names
   the flag. *)
let int_arg ?(range = Harness.Range.any) name ?(docv = "N") default doc =
  let parse s =
    Result.bind (Arg.conv_parser Arg.int s) (fun v ->
        Option.fold ~none:(Ok v)
          ~some:(fun m -> Error (`Msg m))
          (Harness.Range.violation range v))
  in
  Arg.(
    value
    & opt (conv (parse, conv_printer int)) default
    & info [ name ] ~docv ~doc)

let flag_arg name doc = Arg.(value & flag & info [ name ] ~doc)

let machine_arg =
  Arg.(
    value & opt string "xeon"
    & info [ "machine" ] ~docv:"M" ~doc:"xeon | opteron")

let topology_of_machine = function
  | "xeon" -> Sim.Topology.xeon
  | "opteron" -> Sim.Topology.opteron
  | m -> invalid_arg (Printf.sprintf "unknown machine %S (use xeon or opteron)" m)

(* A knob's flag, if it has one, as an edit of a config; its help shows
   [default]'s value. An integer knob's range is left to the family's
   [check], so a flag and a trial field out of range get one message. *)
let knob_arg default (k : _ Harness.Knob.t) =
  Option.map
    (fun { Harness.Knob.flag = f; docv; doc } ->
      let edit set arg = Term.(const (fun v c -> set c v) $ arg) in
      match k.kind with
      | Int { get; set; _ } -> edit set (int_arg f ~docv (get default) doc)
      | Bool { set; _ } ->
          edit (fun c b -> if b then set c true else c) (flag_arg f doc)
      | Text { get; set } ->
          edit
            (fun c -> Option.fold ~none:c ~some:(set c))
            Arg.(
              value
              & opt (some' ?none:(get default) string) None
              & info [ f ] ~docv ~doc))
    k.cli

(* [default] with every flag of [knobs] given and --machine applied. The
   edits run when the thunk is forced, inside the subcommand, so a
   malformed value exits like any other malformed input. *)
let config knobs default set_topo =
  let edits =
    List.fold_left
      (fun acc k ->
        match knob_arg default k with
        | None -> acc
        | Some t -> Term.(const (fun f g c -> g (f c)) $ acc $ t))
      (Term.const Fun.id) knobs
  in
  Term.(
    const (fun machine edit () ->
        let topo = topology_of_machine machine in
        set_topo (edit default) topo)
    $ machine_arg $ edits)

let kv = config Kv.knobs Kv.default_config (fun c topo -> { c with Kv.topo })

let txn =
  config Txn.Workload.knobs Txn.Workload.default_config (fun c topo ->
      { c with Txn.Workload.topo })
