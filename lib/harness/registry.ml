(** Instantiation of every data structure for a given runtime backend,
    wrapped into the monomorphic driver interfaces of
    {!Dstruct.Dstruct_intf}, under the names used by the paper's figures.

    {!ForRt.entries} is the one list of structures. Each row holds a
    {!Dstruct.Dstruct_intf.Mono_set} application, or for the pool family
    (queues and stacks, one driver view) a [Mono_queue] or [Mono_stack]
    one: the implementation supplies the shared operations, the inline
    spec supplies only the figure name and the [create] call with its
    variant flags baked in.

    {!Native} runs on real atomics and domains; {!Sim_backend} runs under
    the deterministic multicore simulator. Every selector names a
    structure [family/name] of {!ForRt.entries} and resolves it with
    {!ForRt.find}. *)

module type SET_OPS = Dstruct.Dstruct_intf.SET_OPS
module type POOL_OPS = Dstruct.Dstruct_intf.POOL_OPS
module type IN_PLACE = Dstruct.Dstruct_intf.IN_PLACE

module Mono_set = Dstruct.Dstruct_intf.Mono_set
module Mono_queue = Dstruct.Dstruct_intf.Mono_queue
module Mono_stack = Dstruct.Dstruct_intf.Mono_stack

(** A structure's progress guarantee (§2 of the paper): what a crashed
    or stalled thread may do to the others. *)
type guarantee = Lock_free | Blocking

type structure = Set of (module SET_OPS) | Pool of (module POOL_OPS)

type entry = {
  family : string;
      (** [map], [list], [hashtable], [skiplist], [bst], [queue] or [stack] *)
  name : string;  (** the figure name, unique within the family *)
  guarantee : guarantee;
  structure : structure;
  in_place : (module IN_PLACE) option;  (** the set's in-place view, if any *)
}

(** [family/name], the spelling every selector takes. *)
let id e = e.family ^ "/" ^ e.name

let guarantee_name = function Lock_free -> "lock-free" | Blocking -> "blocking"

let not_a kind e =
  invalid_arg
    (Printf.sprintf "%s is a %s, not a %s structure" (id e) e.family kind)

(** The set behind [e]; raises [Invalid_argument] for a queue or a stack. *)
let set_ops e = match e.structure with Set s -> s | Pool _ -> not_a "set" e

(** The queue or stack behind [e]; raises [Invalid_argument] for a set. *)
let pool_ops e = match e.structure with Pool p -> p | Set _ -> not_a "pool" e

module ForRt (Rt : Rt.Rt_intf.RT) = struct
  module Map_lock = Dstruct.Maps.Lock_based (Rt)
  module Map_optik = Dstruct.Maps.Optik_based (Rt)
  module Ll_optik = Dstruct.Ll_optik.Make (Rt)
  module Ll_gl_mcs = Dstruct.Ll_gl.Pessimistic (Rt) (Locks.Mcs (Rt))
  module Ll_gl_tas = Dstruct.Ll_gl.Pessimistic (Rt) (Locks.Tas (Rt))
  module Ll_optik_gl = Dstruct.Ll_gl.Optik_gl (Rt)
  module Ll_lazy = Dstruct.Ll_lazy.Make (Rt)
  module Ll_harris = Dstruct.Ll_harris.Make (Rt)
  module Sl_herlihy = Dstruct.Sl_herlihy.Make (Rt)
  module Sl_optik = Dstruct.Sl_optik.Make (Rt)
  module Sl_fraser = Dstruct.Sl_fraser.Make (Rt)
  module Queues = Dstruct.Queues.Make (Rt)
  module Ht_java = Dstruct.Ht.Java (Rt)
  module Ht_java_optik = Dstruct.Ht.Java_optik (Rt)
  module Stacks = Dstruct.Stacks.Make (Rt)
  module Bst_optik = Dstruct.Bst_optik.Make (Rt)
  module Bst_gl = Dstruct.Bst_optik.Global_lock (Rt) (Locks.Mcs (Rt))

  (* Per-bucket list capacities are small, so plain buckets suffice. *)
  module Ht_lazy_gl =
    Dstruct.Ht.Of_bucket (Ll_gl_tas) (struct let create () = Ll_gl_tas.create () end)

  module Ht_optik_gl =
    Dstruct.Ht.Of_bucket (Ll_optik_gl) (struct let create () = Ll_optik_gl.create () end)

  module Ht_optik =
    Dstruct.Ht.In_place (Ll_optik) (struct let create () = Ll_optik.create () end)

  (* The lock-free hash table: Harris lists as buckets, the lock-free
     representative of the fault-injection experiment. *)
  module Ht_harris =
    Dstruct.Ht.Of_bucket (Ll_harris) (struct let create () = Ll_harris.create () end)

  (* Bucket arrays of 8 slots; the paper sizes buckets at about one
     element, leaving ample slack at range = 2x size. *)
  module Ht_map_optik =
    Dstruct.Ht.Of_bucket (Map_optik) (struct
      let create () = Map_optik.create ~capacity:8 ()
    end)

  (* The two structures the host benchmark also names directly. *)

  let map_optik : (module SET_OPS) =
    (module Mono_set (Map_optik) (struct
      let name = "optik"
      let probe_prefix = Some "map-optik"
      let create ?capacity () = Map_optik.create ?capacity ()
    end))

  let ll_optik_in_place : (module IN_PLACE) =
    (module Dstruct.Dstruct_intf.Mono_in_place (Ll_optik) (Mono_set (Ll_optik) (struct
      let name = "optik"
      let probe_prefix = Some "ll-optik"
      let create ?capacity:_ () = Ll_optik.create ()
    end)))

  let ll_optik : (module SET_OPS) = (module (val ll_optik_in_place : IN_PLACE))

  let ht_optik_in_place : (module IN_PLACE) =
    (module Dstruct.Dstruct_intf.Mono_in_place (Ht_optik) (Mono_set (Ht_optik) (struct
      let name = "optik"
      let probe_prefix = Some "ll-optik"
      let create ?capacity () = Ht_optik.create ?capacity ()
    end)))

  (** Every structure, once, family by family. The guarantee follows §2
      of the paper: Harris, Fraser, Treiber, MS-LF and the elimination
      stack are lock-free; every validate-and-lock or global-lock design
      is blocking. *)
  let entries =
    let set ?in_place family guarantee ((module S : SET_OPS) as s) =
      { family; name = S.name; guarantee; structure = Set s; in_place }
    and pool guarantee ((module P : POOL_OPS) as p) =
      {
        family = (if P.lifo then "stack" else "queue");
        name = P.name;
        guarantee;
        structure = Pool p;
        in_place = None;
      }
    in
    [
      (* ---------------- maps (Figure 7) ---------------- *)
      set "map" Blocking
        (module Mono_set (Map_lock) (struct
          let name = "mcs"
          let probe_prefix = None
          let create ?capacity () = Map_lock.create ?capacity ()
        end));
      set "map" Blocking map_optik;
      (* ---------------- linked lists (Figure 9) ---------------- *)
      set "list" Lock_free
        (module Mono_set (Ll_harris) (struct
          let name = "harris"
          let probe_prefix = Some "ll-harris"
          let create ?capacity:_ () = Ll_harris.create ()
        end));
      set "list" Blocking
        (module Mono_set (Ll_lazy) (struct
          let name = "lazy"
          let probe_prefix = Some "ll-lazy"
          let create ?capacity:_ () = Ll_lazy.create ()
        end));
      set "list" Blocking
        (module Mono_set (Ll_gl_mcs) (struct
          let name = "mcs-gl-opt"
          let probe_prefix = None
          let create ?capacity:_ () = Ll_gl_mcs.create ()
        end));
      set "list" Blocking
        (module Mono_set (Ll_optik_gl) (struct
          let name = "optik-gl"
          let probe_prefix = Some "ll-optik-gl"
          let create ?capacity:_ () = Ll_optik_gl.create ()
        end));
      set ~in_place:ll_optik_in_place "list" Blocking ll_optik;
      set "list" Blocking
        (module Mono_set (Ll_optik) (struct
          let name = "optik-cache"
          let probe_prefix = Some "ll-optik"
          let create ?capacity:_ () = Ll_optik.create ~cache:true ()
        end));
      set "list" Blocking
        (module Mono_set (Ll_lazy) (struct
          let name = "lazy-cache"
          let probe_prefix = Some "ll-lazy"
          let create ?capacity:_ () = Ll_lazy.create ~cache:true ()
        end));
      (* ---------------- hash tables (Figure 10) ---------------- *)
      set "hashtable" Lock_free
        (module Mono_set (Ht_harris) (struct
          let name = "harris-ht"
          let probe_prefix = Some "ll-harris"
          let create ?capacity () = Ht_harris.create ?capacity ()
        end));
      set "hashtable" Blocking
        (module Mono_set (Ht_lazy_gl) (struct
          let name = "lazy-gl"
          let probe_prefix = None
          let create ?capacity () = Ht_lazy_gl.create ?capacity ()
        end));
      set "hashtable" Blocking
        (module Mono_set (Ht_java) (struct
          let name = "java"
          let probe_prefix = None
          let create ?capacity () = Ht_java.create ?capacity ()
        end));
      set "hashtable" Blocking
        (module Mono_set (Ht_java_optik) (struct
          let name = "java-optik"
          let probe_prefix = Some "ht-java-optik"
          let create ?capacity () = Ht_java_optik.create ?capacity ()
        end));
      set ~in_place:ht_optik_in_place "hashtable" Blocking
        (module (val ht_optik_in_place : IN_PLACE));
      set "hashtable" Blocking
        (module Mono_set (Ht_optik_gl) (struct
          let name = "optik-gl"
          let probe_prefix = Some "ll-optik-gl"
          let create ?capacity () = Ht_optik_gl.create ?capacity ()
        end));
      set "hashtable" Blocking
        (module Mono_set (Ht_map_optik) (struct
          let name = "optik-map"
          let probe_prefix = Some "map-optik"
          let create ?capacity () = Ht_map_optik.create ?capacity ()
        end));
      (* ---------------- skip lists (Figure 11) ---------------- *)
      set "skiplist" Lock_free
        (module Mono_set (Sl_fraser) (struct
          let name = "fraser"
          let probe_prefix = Some "sl-fraser"
          let create ?capacity:_ () = Sl_fraser.create ()
        end));
      set "skiplist" Blocking
        (module Mono_set (Sl_herlihy) (struct
          let name = "herlihy"
          let probe_prefix = Some "sl-herlihy"
          let create ?capacity:_ () = Sl_herlihy.create ()
        end));
      set "skiplist" Blocking
        (module Mono_set (Sl_herlihy) (struct
          let name = "herl-optik"
          let probe_prefix = Some "sl-herlihy"
          let create ?capacity:_ () = Sl_herlihy.create ~optik:true ()
        end));
      set "skiplist" Blocking
        (module Mono_set (Sl_optik) (struct
          let name = "optik1"
          let probe_prefix = Some "sl-optik"
          let create ?capacity:_ () = Sl_optik.create ~variant:`Validate ()
        end));
      set "skiplist" Blocking
        (module Mono_set (Sl_optik) (struct
          let name = "optik2"
          let probe_prefix = Some "sl-optik"
          let create ?capacity:_ () = Sl_optik.create ~variant:`Restart ()
        end));
      (* ---------------- binary search trees (extension; §6 / BST-TK) *)
      set "bst" Blocking
        (module Mono_set (Bst_gl) (struct
          let name = "bst-gl"
          let probe_prefix = None
          let create ?capacity:_ () = Bst_gl.create ()
        end));
      set "bst" Blocking
        (module Mono_set (Bst_optik) (struct
          let name = "bst-optik"
          let probe_prefix = Some "bst-optik"
          let create ?capacity:_ () = Bst_optik.create ()
        end));
      (* ---------------- queues (Figure 12) ---------------- *)
      pool Lock_free
        (module Mono_queue (Queues.Ms_lf) (struct
          let name = "ms-lf"
          let probe_prefix = Some "q-ms-lf"
          let create () = Queues.Ms_lf.create ()
        end));
      pool Blocking
        (module Mono_queue (Queues.Ms_lb) (struct
          let name = "ms-lb"
          let probe_prefix = None
          let create () = Queues.Ms_lb.create ()
        end));
      pool Blocking
        (module Mono_queue (Queues.Optik0) (struct
          let name = "optik0"
          let probe_prefix = Some "q-optik0"
          let create () = Queues.Optik0.create ()
        end));
      pool Blocking
        (module Mono_queue (Queues.Optik1) (struct
          let name = "optik1"
          let probe_prefix = Some "q-optik1"
          let create () = Queues.Optik1.create ()
        end));
      pool Blocking
        (module Mono_queue (Queues.Optik2) (struct
          let name = "optik2"
          let probe_prefix = Some "q-optik2"
          let create () = Queues.Optik2.create ()
        end));
      pool Blocking
        (module Mono_queue (Queues.Optik3) (struct
          let name = "optik3"
          let probe_prefix = Some "q-optik3"
          let create () = Queues.Optik3.create ()
        end));
      (* ---------------- stacks (§5.5) ---------------- *)
      pool Lock_free
        (module Mono_stack (Stacks.Treiber) (struct
          let name = "treiber"
          let probe_prefix = Some "stack-treiber"
          let create () = Stacks.Treiber.create ()
        end));
      pool Blocking
        (module Mono_stack (Stacks.Optik_stack) (struct
          let name = "optik"
          let probe_prefix = Some "stack-optik"
          let create () = Stacks.Optik_stack.create ()
        end));
      pool Lock_free
        (module Mono_stack (Stacks.Elimination) (struct
          let name = "elimination"
          let probe_prefix = Some "stack-elim"
          let create () = Stacks.Elimination.create ()
        end));
    ]

  (** The entries of [family], in table order: the lineup a figure or a
      sweep runs. [hashtable/harris-ht] is left out, because the paper's
      Figure 10 has no Harris-bucket table. *)
  let lineup family =
    List.filter
      (fun e -> String.equal e.family family && id e <> "hashtable/harris-ht")
      entries

  (** The entry spelled [family/name]. Raises [Invalid_argument] naming
      the spelling and listing the known ones. *)
  let find spelling =
    match List.find_opt (fun e -> String.equal (id e) spelling) entries with
    | Some e -> e
    | None ->
        invalid_arg
          (Printf.sprintf "unknown structure %S; known: %s" spelling
             (String.concat ", " (List.map id entries)))
end

module Native = ForRt (Rt.Native_rt)
module Sim_backend = ForRt (Sim.Sim_rt)
