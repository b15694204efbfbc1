(** Domain-parallel trial fleet.

    Farms a list of independent, seeded tasks across real OCaml domains.
    The simulator's entire mutable world is domain-local, so each worker
    domain is an independent simulator; when every simulated run in a
    task starts from {!World.reset} (as chaos, kv and txn trials do), a
    task's result is a pure function of the task alone — independent of
    which domain ran it, what ran on that domain before it, and how
    tasks were interleaved. That is the fleet determinism contract:
    [map ~jobs:4 tasks] returns exactly what [map ~jobs:1 tasks]
    returns, byte for byte, while using the host's cores.

    Tasks are claimed from a shared atomic counter (work stealing
    degenerates to a ticket queue for same-size tasks, which seeded
    trials are), results land in a per-index slot, and joining the
    workers gives the happens-before edge that makes the slots readable.

    The main domain never runs tasks — even at [jobs = 1] the single
    worker is a spawned domain — so the caller's own simulator world
    (structures under test, installed fault plans, recording sessions)
    is never clobbered by a fleet, and serial and parallel fleets run on
    identical machinery. *)

type 'a task = { label : string; run : unit -> 'a }

let task ~label run = { label; run }

(** A sensible default worker count: the host's recommended domain count
    minus the main domain, at least 1. *)
let default_jobs () = max 1 (Domain.recommended_domain_count () - 1)

exception
  Task_failed of {
    t_label : string;
    t_index : int;
    t_exn : exn;
    t_backtrace : string;
  }

let () =
  Printexc.register_printer (function
    | Task_failed { t_label; t_index; t_exn; _ } ->
        Some
          (Printf.sprintf "Fleet.Task_failed(#%d %s: %s)" t_index t_label
             (Printexc.to_string t_exn))
    | _ -> None)

(** [map ~jobs tasks] runs every task and returns their results in task
    order. [jobs] (default {!default_jobs}) caps the number of spawned
    worker domains; it is further capped by the task count. If any task
    raises, the first failure in {e task order} is re-raised as
    {!Task_failed} after all workers have drained (workers don't abandon
    the fleet — deterministic trials that fail, fail cheaply). *)
let map ?jobs (tasks : 'a task list) : 'a list =
  match tasks with
  | [] -> []
  | _ ->
      let tasks = Array.of_list tasks in
      let n = Array.length tasks in
      let jobs =
        match jobs with
        | Some j when j < 1 -> invalid_arg "Fleet.map: jobs must be >= 1"
        | Some j -> min j n
        | None -> min (default_jobs ()) n
      in
      let results : ('a, exn * string) result option array =
        Array.make n None
      in
      let next = Atomic.make 0 in
      let worker () =
        let rec loop () =
          let i = Atomic.fetch_and_add next 1 in
          if i < n then begin
            (results.(i) <-
               (match tasks.(i).run () with
               | v -> Some (Ok v)
               | exception e -> Some (Error (e, Printexc.get_backtrace ()))));
            loop ()
          end
        in
        loop ()
      in
      let domains = Array.init jobs (fun _ -> Domain.spawn worker) in
      Array.iter Domain.join domains;
      Array.iteri
        (fun i r ->
          match r with
          | Some (Error (e, bt)) ->
              raise
                (Task_failed
                   {
                     t_label = tasks.(i).label;
                     t_index = i;
                     t_exn = e;
                     t_backtrace = bt;
                   })
          | Some (Ok _) -> ()
          | None -> assert false)
        results;
      List.init n (fun i ->
          match results.(i) with Some (Ok v) -> v | _ -> assert false)
