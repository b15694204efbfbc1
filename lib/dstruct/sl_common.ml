(* Shared skip-list machinery.

   Level geometry and the deterministic per-thread level generator serve
   all three skip lists. Levels follow the usual p = 1/2 geometric
   distribution, capped at [max_level] (supports the paper's largest
   experiment, 65536 elements, comfortably). The generator is a
   per-thread xorshift so that simulator runs are deterministic — and the
   state array is per-domain, so fleet worker domains draw independent,
   pristine sequences.

   {!Base} is the node both lock-based skip lists are built on: the paper
   gets herl-optik by changing only the validation of Herlihy's list, and
   builds its own OPTIK skip list on the same node (§5.3). It holds the
   node layout (lock, level links, logical-deletion flag, [fully_linked]),
   [mk_node], the sentinel pair both [create]s start from, the per-level
   arrays updates fill, [check_key], [next_at] and the quiescent [size],
   [fold] and [validate] (no deleted, partially linked or locked node
   stays linked). {!Sl_herlihy} and {!Sl_optik} add only their
   traversals and update protocols. {!Sl_fraser} marks its links, not
   its nodes, and keeps its own. *)

let max_level = 20

let seed_state i = (0x9E3779B9 * (i + 1)) lxor 0x2545F491

let skey : int array Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Array.init 128 seed_state)

let reset_states () =
  let states = Domain.DLS.get skey in
  for i = 0 to Array.length states - 1 do
    states.(i) <- seed_state i
  done

let xorshift states i =
  let x = states.(i) in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) in
  let x = x land max_int in
  states.(i) <- x;
  x

(* Toplevel index in [0, max_level - 1]: count leading 1-bits of a random
   word (geometric, p = 1/2). *)
let random_toplevel tid =
  let x = xorshift (Domain.DLS.get skey) (tid land 127) in
  let rec count lvl x =
    if lvl >= max_level - 1 then max_level - 1
    else if x land 1 = 1 then count (lvl + 1) (x lsr 1)
    else lvl
  in
  count 0 x

module Base
    (Rt : Rt.Rt_intf.RT)
    (N : sig
      val node_site : string option
      (** Allocation site the nodes are filed under, if any. *)
    end) =
struct
  module OL = Optik.Versioned (Rt)
  module Q = Mem.Qsbr.Make (Rt)

  let max_level = max_level

  type 'v node = {
    key : int;
    value : 'v;
    lock : OL.t;
    nexts : 'v node option Rt.atomic array;
    deleted : bool Rt.atomic;
        (** logical deletion, set under the node's lock and never reset
            (Herlihy's [marked]) *)
    fully_linked : bool Rt.atomic;
    toplevel : int;  (** highest valid index into [nexts] *)
  }

  (* A node's fields share one cache line (lock, flags and the level
     links — tall nodes would spill onto further lines in C, but levels
     above 3 are rare and the approximation is conservative for OPTIK,
     whose per-node version already covers every level). *)
  let build_node key value toplevel =
    let anchor = Rt.atomic None in
    let nexts =
      Array.init (toplevel + 1) (fun i ->
          if i = 0 then anchor else Rt.atomic_with anchor None)
    in
    {
      key;
      value;
      lock = Rt.atomic_with anchor 0;
      nexts;
      deleted = Rt.atomic_with anchor false;
      fully_linked = Rt.atomic_with anchor false;
      toplevel;
    }

  let mk_node key value toplevel =
    match N.node_site with
    | None -> build_node key value toplevel
    | Some site ->
        Rt.Probe.with_site site (fun () -> build_node key value toplevel)

  (* The head sentinel, linked to the tail at every level. *)
  let sentinels () =
    let tail = mk_node max_int (Obj.magic 0) (max_level - 1) in
    let head = mk_node min_int (Obj.magic 0) (max_level - 1) in
    for l = 0 to max_level - 1 do
      Rt.set head.nexts.(l) (Some tail)
    done;
    Rt.set head.fully_linked true;
    Rt.set tail.fully_linked true;
    head

  (* An update's per-level predecessors, successors and predecessor
     versions. *)
  let level_arrays head =
    ( Array.make max_level head,
      Array.make max_level head,
      Array.make max_level 0 )

  let check_key k =
    if k = min_int || k = max_int then invalid_arg "sl: key out of range"

  let next_at node l =
    match Rt.get node.nexts.(l) with
    | Some n -> n
    | None -> invalid_arg "sl: missing level link"

  let live n = Rt.get n.fully_linked && not (Rt.get n.deleted)

  (* The quiescent helpers walk from the head sentinel; each variant
     applies them to its own [t]. *)
  let size head =
    let n = ref 0 in
    let cur = ref (next_at head 0) in
    while !cur.key < max_int do
      if live !cur then incr n;
      cur := next_at !cur 0
    done;
    !n

  let fold head f acc =
    let acc = ref acc in
    let cur = ref (next_at head 0) in
    while !cur.key < max_int do
      if live !cur then acc := f !cur.key !cur.value !acc;
      cur := next_at !cur 0
    done;
    !acc

  (* Quiescent invariants: each level sorted; every node linked at level
     [l] is linked at all lower levels; no deleted, partially linked or
     locked node. *)
  let validate head =
    let ok = ref true in
    let cur = ref (next_at head 0) in
    let prev_key = ref min_int in
    while !cur.key < max_int do
      if !cur.key <= !prev_key then ok := false;
      if Rt.get !cur.deleted then ok := false;
      if not (Rt.get !cur.fully_linked) then ok := false;
      if OL.is_locked (OL.get_version !cur.lock) then ok := false;
      prev_key := !cur.key;
      cur := next_at !cur 0
    done;
    for l = 1 to max_level - 1 do
      let keys_below = Hashtbl.create 64 in
      let c = ref (next_at head (l - 1)) in
      while !c.key < max_int do
        Hashtbl.replace keys_below !c.key ();
        c := next_at !c (l - 1)
      done;
      let c = ref (next_at head l) in
      let pk = ref min_int in
      while !c.key < max_int do
        if !c.key <= !pk then ok := false;
        if not (Hashtbl.mem keys_below !c.key) then ok := false;
        pk := !c.key;
        c := next_at !c l
      done
    done;
    !ok
end
