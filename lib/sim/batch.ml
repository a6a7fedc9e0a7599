(* The simulation kernel: up to 63 testbench lanes per machine word.

   [Simulator] is this kernel at one lane; [Batch] is the same kernel
   at up to 63. The immutable [Plan] supplies dense net numbering, CSR
   fan-out, the level of each rank and the checkpoint tables; the
   kernel owns the dirty worklist bucketed by those levels (see
   [store]). The per-net state is a pair of bit-plane words:
   bit [l] of plane 0 / plane 1 holds bit 0 / bit 1 of lane [l]'s
   2-bit code ([Bit.to_code]: Zero=00, One=01, X=10, Z=11 in plane
   order (p1,p0)). A node evaluation is a handful of word-wise bitwise
   operations covering every lane at once:

   - INV/BUF/MULT_AND/XORCY are direct boolean-algebra translations of
     the four-valued gate tables;
   - MUXCY and the FF next-state chain use a word-wise [Bit.mux]
     ([mux4] below);
   - LUT1-4 build the 2^k per-lane address-possibility products with a
     doubling tree over per-input could-be-0/could-be-1 words, then OR
     the products into "can produce 0"/"can produce 1" accumulators: an
     output is defined only where every address an unknown input can
     reach agrees;
   - SRL16/RAM16X1 reads run the same product tree over the 4 address
     bits, with an exact pass-through path (Z included) for lanes whose
     address is fully defined;
   - at one lane, a LUT or memory read whose address bits are all
     defined skips the tree: the LUT reads its INIT bit and the read
     passes the addressed cell's code through ([lut_eval],
     [mem_read]);
   - FF/SRL/RAM sequential state lives in per-node plane words with a
     two-phase compute/commit clock step;
   - behavioural black boxes run their [Prim.behavior] closures over
     boxed [Bits.t]. Their state is opaque and cannot be lane-packed,
     so they are admitted only when the kernel has one lane.

   Evaluation is change-tracked per word: a write marks consumers when
   any lane changed, and re-evaluating an unchanged lane reproduces the
   same value (node outputs are pure functions of the store), so each
   lane equals an independent run of the golden [Reference] — the fuzz
   [batch] and [sim-vs-ref] oracles and the qcheck lane suite pin this.

   The hot loops allocate nothing: plane words are immediates, the mux
   scratch and the product tree live on the sim record, and local
   accumulators are unboxed refs. *)

open Jhdl_circuit.Types
module Bit = Jhdl_logic.Bit
module Bits = Jhdl_logic.Bits
module Lut_init = Jhdl_logic.Lut_init
module Prim = Jhdl_circuit.Prim
module Wire = Jhdl_circuit.Wire
module Cell = Jhdl_circuit.Cell
module Design = Jhdl_circuit.Design

exception Combinational_cycle = Plan.Combinational_cycle

let max_lanes = 63

(* ------------------------------------------------------------------ *)
(* Plane store and dirty worklist.                                     *)

(* Two words per dense net, and the worklist over the plan's ranks: a
   pending flag per rank plus a pending count per level, drained in
   ascending level order. Combinational edges strictly increase level,
   so one sweep settles the cone and each dirty node is evaluated
   exactly once. The worklist lives here, beside [write], and not in
   the plan: under [-opaque] (dune's dev profile) a call into another
   module is an unknown call through its module block, and [write]
   marks consumers on every net change. *)
type store = {
  p0 : int array; (* plane 0 (code bit 0) per dense net *)
  p1 : int array; (* plane 1 (code bit 1) per dense net *)
  mask : int; (* low [lanes] bits set *)
  plan : Plan.t;
  dirty : Bytes.t; (* per-rank pending flag *)
  level_pending : int array; (* dirty count per level *)
  mutable pending_total : int;
  mutable evals : int; (* node evaluations by settles *)
  mutable changes : int; (* change-tracked net writes that stuck *)
}

(* mux/product scratch shared by every closure of one sim; results land
   in [m0]/[m1] because returning a tuple would allocate *)
type scratch = {
  mutable m0 : int;
  mutable m1 : int;
  prod : int array; (* 2^k address products, k <= 6 *)
}

let[@inline] mark st rank =
  if Bytes.unsafe_get st.dirty rank = '\000' then begin
    Bytes.unsafe_set st.dirty rank '\001';
    let lv = Array.unsafe_get st.plan.Plan.level_of rank in
    Array.unsafe_set st.level_pending lv (Array.unsafe_get st.level_pending lv + 1);
    st.pending_total <- st.pending_total + 1
  end

(* a net write that changed dense net [idx]: count it and mark the
   net's CSR consumers *)
let changed st idx =
  st.changes <- st.changes + 1;
  let row = st.plan.Plan.row and col = st.plan.Plan.col in
  for k = Array.unsafe_get row idx to Array.unsafe_get row (idx + 1) - 1 do
    mark st (Array.unsafe_get col k)
  done

(* change-tracked plane write: any changed lane marks the net's CSR
   consumers dirty (re-evaluating unchanged lanes is idempotent) *)
let[@inline] write st idx n0 n1 =
  if
    Array.unsafe_get st.p0 idx <> n0 || Array.unsafe_get st.p1 idx <> n1
  then begin
    Array.unsafe_set st.p0 idx n0;
    Array.unsafe_set st.p1 idx n1;
    changed st idx
  end

(* evaluate every dirty rank in ascending level order, stopping once
   nothing is pending; returns how many it evaluated *)
let drain st eval =
  let before = st.evals in
  let depth = st.plan.Plan.depth and level_lo = st.plan.Plan.level_lo in
  let lv = ref 0 in
  while st.pending_total > 0 && !lv <= depth do
    let cnt = Array.unsafe_get st.level_pending !lv in
    if cnt > 0 then begin
      Array.unsafe_set st.level_pending !lv 0;
      st.pending_total <- st.pending_total - cnt;
      st.evals <- st.evals + cnt;
      let left = ref cnt in
      let r = ref (Array.unsafe_get level_lo !lv) in
      while !left > 0 do
        if Bytes.unsafe_get st.dirty !r <> '\000' then begin
          Bytes.unsafe_set st.dirty !r '\000';
          decr left;
          (Array.unsafe_get eval !r) ()
        end;
        incr r
      done
    end;
    incr lv
  done;
  st.evals - before

(* evaluate every rank once and clear the worklist *)
let full_pass st eval =
  for r = 0 to Array.length eval - 1 do
    (Array.unsafe_get eval r) ()
  done;
  st.evals <- st.evals + Array.length eval;
  Bytes.fill st.dirty 0 (Bytes.length st.dirty) '\000';
  Array.fill st.level_pending 0 (Array.length st.level_pending) 0;
  st.pending_total <- 0

(* word-wise Bit.mux: per lane [a] when sel=0, [b] when sel=1, else X
   unless a and b agree on a defined value *)
let[@inline] mux4 sc mask s0 s1 a0 a1 b0 b1 =
  let zs = lnot s0 land lnot s1 in
  let os = s0 land lnot s1 in
  let su = mask land lnot (zs lor os) in
  let eq = lnot (a0 lxor b0) land lnot a1 land lnot b1 in
  sc.m0 <- (zs land a0) lor (os land b0) lor (su land eq land a0);
  sc.m1 <- (zs land a1) lor (os land b1) lor (su land lnot eq)

(* Fill sc.prod.(0 .. 2^k-1) with the per-lane address-possibility
   products over inputs [addrs]: bit [l] of prod.(j) is set when lane
   [l]'s address can resolve to [j] — exactly one j for a fully defined
   address, every j matching the defined bits otherwise (X and Z
   address bits are both "unknown", as in [Reference]). The
   tree descends so slot writes never clobber unread parents, and
   inputs are folded high-to-low so table bit [i] of [j] corresponds to
   input [i]. [root] restricts all products to a lane subset. *)
let build_products sc st addrs k root =
  let prod = sc.prod in
  Array.unsafe_set prod 0 root;
  let width = ref 1 in
  for i = k - 1 downto 0 do
    let idx = Array.unsafe_get addrs i in
    let v0 = Array.unsafe_get st.p0 idx
    and v1 = Array.unsafe_get st.p1 idx in
    let hi = v0 lor v1 and lo = lnot v0 lor v1 in
    for j = !width - 1 downto 0 do
      let t = Array.unsafe_get prod j in
      Array.unsafe_set prod (2 * j) (t land lo);
      Array.unsafe_set prod ((2 * j) + 1) (t land hi)
    done;
    width := !width * 2
  done

(* LUT1-4: the product tree covers inputs 1..k-1 ([upper]); the split
   on input 0 ([i0]) is folded into the accumulation. Possibility sets:
   can0/can1 collect the lanes that can reach a 0/1 table bit; both
   reachable = X, exactly the unknown-subset walk of [Reference]. *)
let lut_tree sc st upper i0 table o =
  let k1 = Array.length upper in
  build_products sc st upper k1 st.mask;
  let v0 = Array.unsafe_get st.p0 i0 and v1 = Array.unsafe_get st.p1 i0 in
  let hi = v0 lor v1 and lo = lnot v0 lor v1 in
  let can0 = ref 0 and can1 = ref 0 in
  for m = 0 to (1 lsl k1) - 1 do
    let pr = Array.unsafe_get sc.prod m in
    let a = pr land lo and b = pr land hi (* address 2m, 2m+1 *) in
    (* all ones where the table bit is 1 *)
    let ta = 0 - ((table lsr (2 * m)) land 1)
    and tb = 0 - ((table lsr ((2 * m) + 1)) land 1) in
    can1 := !can1 lor (a land ta) lor (b land tb);
    can0 := !can0 lor (a land lnot ta) lor (b land lnot tb)
  done;
  write st o (!can1 land lnot !can0) (!can1 land !can0)

(* SRL16/RAM16X1 read port: one product tree over the 4 address bits,
   then an exact pass-through path (X and Z cells included) for lanes
   whose address is fully defined, and a reachable-cell possibility
   analysis for the rest: a defined result needs a defined base cell
   and every cell an unknown address bit can reach to agree with it. *)
let mem_read_eval sc st a c0 c1 o () =
  let mask = st.mask in
  let au =
    Array.unsafe_get st.p1 (Array.unsafe_get a 0)
    lor Array.unsafe_get st.p1 (Array.unsafe_get a 1)
    lor Array.unsafe_get st.p1 (Array.unsafe_get a 2)
    lor Array.unsafe_get st.p1 (Array.unsafe_get a 3)
  in
  let da = mask land lnot au in
  build_products sc st a 4 mask;
  let ones = ref 0 and zeros = ref 0 and undef = ref 0 and zeds = ref 0 in
  for j = 0 to 15 do
    let p = Array.unsafe_get sc.prod j in
    let v0 = Array.unsafe_get c0 j and v1 = Array.unsafe_get c1 j in
    let pv0 = p land v0 and pv1 = p land v1 in
    ones := !ones lor (pv0 land lnot v1);
    zeros := !zeros lor (p land lnot (v0 lor v1));
    undef := !undef lor pv1;
    zeds := !zeds lor (pv0 land v1)
  done;
  (* defined address: exactly one hot product selects the cell, whose
     code passes through untouched *)
  let r0d = da land (!ones lor !zeds) and r1d = da land !undef in
  (* unknown address: a defined result needs every reachable cell to
     agree on that one defined value (X/Z cells spoil it via [undef]) *)
  let u1 = au land !ones land lnot !zeros land lnot !undef in
  let u0 = au land !zeros land lnot !ones land lnot !undef in
  write st o (r0d lor u1) (r1d lor (au land lnot (u0 lor u1)))

(* One lane: an address none of whose bits is X or Z (no [p1] bit set)
   spells its index directly in [p0], so a LUT reads its INIT bit and
   an SRL16/RAM16X1 read passes the addressed cell's code through, Z
   included. Anything else falls back to the product tree every lane
   count runs. *)
let[@inline] unknown st idx = Array.unsafe_get st.p1 idx
let[@inline] addr_bit st idx i = Array.unsafe_get st.p0 idx lsl i
let[@inline] lut_bit st o table a = write st o ((table lsr a) land 1) 0

let lut_eval sc st ~lanes addrs table o =
  let upper = Array.sub addrs 1 (Array.length addrs - 1) in
  match lanes, addrs with
  | 1, [| a0 |] ->
    fun () ->
      if unknown st a0 = 0 then lut_bit st o table (addr_bit st a0 0)
      else lut_tree sc st upper a0 table o
  | 1, [| a0; a1 |] ->
    fun () ->
      if unknown st a0 lor unknown st a1 = 0 then
        lut_bit st o table (addr_bit st a0 0 lor addr_bit st a1 1)
      else lut_tree sc st upper a0 table o
  | 1, [| a0; a1; a2 |] ->
    fun () ->
      if unknown st a0 lor unknown st a1 lor unknown st a2 = 0 then
        lut_bit st o table
          (addr_bit st a0 0 lor addr_bit st a1 1 lor addr_bit st a2 2)
      else lut_tree sc st upper a0 table o
  | 1, [| a0; a1; a2; a3 |] ->
    fun () ->
      if unknown st a0 lor unknown st a1 lor unknown st a2 lor unknown st a3 = 0
      then
        lut_bit st o table
          (addr_bit st a0 0 lor addr_bit st a1 1 lor addr_bit st a2 2
          lor addr_bit st a3 3)
      else lut_tree sc st upper a0 table o
  | _ ->
    let i0 = addrs.(0) in
    fun () -> lut_tree sc st upper i0 table o

let mem_read sc st ~lanes a c0 c1 o =
  if lanes > 1 then mem_read_eval sc st a c0 c1 o
  else
    let a0 = a.(0) and a1 = a.(1) and a2 = a.(2) and a3 = a.(3) in
    fun () ->
      if unknown st a0 lor unknown st a1 lor unknown st a2 lor unknown st a3 = 0
      then begin
        let j =
          addr_bit st a0 0 lor addr_bit st a1 1 lor addr_bit st a2 2
          lor addr_bit st a3 3
        in
        write st o (Array.unsafe_get c0 j) (Array.unsafe_get c1 j)
      end
      else mem_read_eval sc st a c0 c1 o ()

(* ------------------------------------------------------------------ *)
(* Sequential nodes: per-lane state in plane words (FF) or plane-word
   arrays (SRL/RAM cells), with preallocated next-state buffers.       *)

type ff_node = {
  ff_rank : int;
  ff_d : int;
  ff_ce : int; (* dense net index, -1 when the pin is absent *)
  ff_clr : int;
  ff_r : int;
  mutable ff_cur0 : int;
  mutable ff_cur1 : int;
  mutable ff_next0 : int;
  mutable ff_next1 : int;
  ff_init : int; (* 2-bit code *)
}

type srl_node = {
  srl_rank : int;
  srl_d : int;
  srl_ce : int;
  srl_c0 : int array; (* 16 taps, plane words *)
  srl_c1 : int array;
  srl_n0 : int array;
  srl_n1 : int array;
  srl_init : int; (* 16 init bits *)
}

type ram_node = {
  ram_rank : int;
  ram_d : int;
  ram_we : int;
  ram_a : int array;
  ram_c0 : int array; (* 16 cells, plane words *)
  ram_c1 : int array;
  ram_n0 : int array;
  ram_n1 : int array;
  ram_init : int;
}

(* one-lane kernels only: the closures read and write lane 0 *)
type bb_node = {
  bb_rank : int;
  bb_behavior : Prim.behavior;
  bb_read : string -> Bits.t;
}

type snode =
  | S_ff of ff_node
  | S_srl of srl_node
  | S_ram of ram_node
  | S_bb of bb_node

(* precompiled input-port target: dense index per bit, or the error a
   forced write must raise (output direction, driven net) *)
type force_target = {
  ft_idx : int array;
  ft_reject : string option;
}

type t = {
  sim_design : Design.t;
  st : store;
  sc : scratch;
  n_lanes : int;
  eval : (unit -> unit) array; (* compiled per-node evaluators, by rank *)
  seq_all : snode array;
  seq_clocked : snode array;
  seq_snap : snode array; (* the plan's checkpoint table, entry by entry *)
  in_targets : (string, force_target) Hashtbl.t;
  mutable cycles : int;
  mutable words_hist : Jhdl_metrics.Metrics.histogram option;
}

(* ------------------------------------------------------------------ *)
(* Settle.                                                             *)

let observe_settle b words =
  match b.words_hist with
  | None -> ()
  | Some h -> Jhdl_metrics.Metrics.observe h words

let propagate_full b =
  full_pass b.st b.eval;
  observe_settle b (Array.length b.eval)

(* one drain of the worklist reaches the all-lane fixpoint *)
let propagate b =
  let evaluated = drain b.st b.eval in
  if evaluated > 0 then observe_settle b evaluated

(* ------------------------------------------------------------------ *)
(* Two-phase clock step. Compute reads pre-edge values into the
   preallocated next buffers; commit applies them and marks the node's
   rank dirty when its outputs may have changed. Commits touch only
   internal state, so black-box edge closures still observe pre-edge
   nets regardless of commit order. *)

let compute_snode st sc = function
  | S_ff f ->
    let mask = st.mask in
    (* loaded = mux(R, D, 0); held = mux(CE, cur, loaded);
       next = mux(CLR, held, 0): with CLR unknown, zero and the
       clocked value must agree. An absent pin's mux is the identity. *)
    sc.m0 <- Array.unsafe_get st.p0 f.ff_d;
    sc.m1 <- Array.unsafe_get st.p1 f.ff_d;
    if f.ff_r >= 0 then
      mux4 sc mask (Array.unsafe_get st.p0 f.ff_r) (Array.unsafe_get st.p1 f.ff_r)
        sc.m0 sc.m1 0 0;
    if f.ff_ce >= 0 then
      mux4 sc mask (Array.unsafe_get st.p0 f.ff_ce) (Array.unsafe_get st.p1 f.ff_ce)
        f.ff_cur0 f.ff_cur1 sc.m0 sc.m1;
    if f.ff_clr >= 0 then
      mux4 sc mask (Array.unsafe_get st.p0 f.ff_clr) (Array.unsafe_get st.p1 f.ff_clr)
        sc.m0 sc.m1 0 0;
    f.ff_next0 <- sc.m0;
    f.ff_next1 <- sc.m1
  | S_srl s ->
    let mask = st.mask in
    let ce0 = Array.unsafe_get st.p0 s.srl_ce
    and ce1 = Array.unsafe_get st.p1 s.srl_ce in
    let c0 = s.srl_c0 and c1 = s.srl_c1 in
    (* per tap: next = mux(CE, cur, shifted) — hold when CE=0, shift
       when CE=1, CE-unknown keeps a tap only where shifting would not
       change a defined value *)
    for i = 0 to 15 do
      let sh0 =
        if i = 0 then Array.unsafe_get st.p0 s.srl_d
        else Array.unsafe_get c0 (i - 1)
      and sh1 =
        if i = 0 then Array.unsafe_get st.p1 s.srl_d
        else Array.unsafe_get c1 (i - 1)
      in
      mux4 sc mask ce0 ce1 (Array.unsafe_get c0 i) (Array.unsafe_get c1 i)
        sh0 sh1;
      Array.unsafe_set s.srl_n0 i sc.m0;
      Array.unsafe_set s.srl_n1 i sc.m1
    done
  | S_ram m ->
    let mask = st.mask in
    let we0 = Array.unsafe_get st.p0 m.ram_we
    and we1 = Array.unsafe_get st.p1 m.ram_we in
    let we_one = we0 land lnot we1 in
    let a = m.ram_a in
    let au =
      Array.unsafe_get st.p1 (Array.unsafe_get a 0)
      lor Array.unsafe_get st.p1 (Array.unsafe_get a 1)
      lor Array.unsafe_get st.p1 (Array.unsafe_get a 2)
      lor Array.unsafe_get st.p1 (Array.unsafe_get a 3)
    in
    (* WE unknown, or WE=1 at an unknown address: every cell of the
       lane goes X; WE=1 at a defined address writes D (X/Z included)
       to the decoded cell; WE=0 holds *)
    let clobber = we1 lor (we_one land au) in
    let wen = we_one land lnot au land mask in
    build_products sc st a 4 wen;
    let d0 = Array.unsafe_get st.p0 m.ram_d
    and d1 = Array.unsafe_get st.p1 m.ram_d in
    let prod = sc.prod in
    for j = 0 to 15 do
      let w = Array.unsafe_get prod j in
      let keep = lnot (w lor clobber) in
      Array.unsafe_set m.ram_n0 j
        ((w land d0) lor (keep land Array.unsafe_get m.ram_c0 j));
      Array.unsafe_set m.ram_n1 j
        ((w land d1) lor clobber
        lor (keep land Array.unsafe_get m.ram_c1 j))
    done
  | S_bb _ -> ()

let commit_snode st = function
  | S_ff f ->
    if f.ff_cur0 <> f.ff_next0 || f.ff_cur1 <> f.ff_next1 then begin
      f.ff_cur0 <- f.ff_next0;
      f.ff_cur1 <- f.ff_next1;
      mark st f.ff_rank
    end
  | S_srl s ->
    let changed = ref false in
    for i = 0 to 15 do
      if
        Array.unsafe_get s.srl_c0 i <> Array.unsafe_get s.srl_n0 i
        || Array.unsafe_get s.srl_c1 i <> Array.unsafe_get s.srl_n1 i
      then begin
        changed := true;
        Array.unsafe_set s.srl_c0 i (Array.unsafe_get s.srl_n0 i);
        Array.unsafe_set s.srl_c1 i (Array.unsafe_get s.srl_n1 i)
      end
    done;
    if !changed then mark st s.srl_rank
  | S_ram m ->
    let changed = ref false in
    for i = 0 to 15 do
      if
        Array.unsafe_get m.ram_c0 i <> Array.unsafe_get m.ram_n0 i
        || Array.unsafe_get m.ram_c1 i <> Array.unsafe_get m.ram_n1 i
      then begin
        changed := true;
        Array.unsafe_set m.ram_c0 i (Array.unsafe_get m.ram_n0 i);
        Array.unsafe_set m.ram_c1 i (Array.unsafe_get m.ram_n1 i)
      end
    done;
    if !changed then mark st m.ram_rank
  | S_bb b ->
    (match b.bb_behavior.Prim.clock_edge with
     | Some edge ->
       edge ~read:b.bb_read;
       (* behavioural state is opaque: conservatively re-evaluate *)
       mark st b.bb_rank
     | None -> ())

(* ------------------------------------------------------------------ *)
(* Compilation: the plan's nodes, lowered to word-wise closures.       *)

(* plane words of a broadcast 2-bit code *)
let bcast0 mask c = if c land 1 = 1 then mask else 0
let bcast1 mask c = if c land 2 = 2 then mask else 0

(* lane [lane]'s 2-bit code of dense net [idx] *)
let lane_code st idx lane =
  ((Array.unsafe_get st.p0 idx lsr lane) land 1)
  lor (((Array.unsafe_get st.p1 idx lsr lane) land 1) lsl 1)

let create_as ~who ~clock ~lanes design =
  if lanes < 1 || lanes > max_lanes then
    invalid_arg
      (Printf.sprintf "%s.create: lanes must be within 1..%d (got %d)" who
         max_lanes lanes);
  let plan, nodes = Plan.create ~who ~clock design in
  (match plan.Plan.black_boxes with
   | (path, model_name) :: _ when lanes > 1 ->
     invalid_arg
       (Printf.sprintf
          "%s.create: behavioural black box %s (%s) cannot be lane-packed; \
           simulate it with one lane"
          who path model_name)
   | _ -> ());
  let mask = if lanes = max_lanes then -1 else (1 lsl lanes) - 1 in
  let st =
    { p0 = Array.make plan.Plan.n_nets 0;
      p1 = Array.make plan.Plan.n_nets mask (* everything starts X in every lane *);
      mask;
      plan;
      dirty = Bytes.make (Array.length nodes) '\000';
      level_pending = Array.make (plan.Plan.depth + 1) 0;
      pending_total = 0;
      evals = 0;
      changes = 0 }
  in
  let sc = { m0 = 0; m1 = 0; prod = Array.make 64 0 } in
  let eval = Array.make (Array.length nodes) (fun () -> ()) in
  let seq_all = ref [] and seq_clocked = ref [] in
  let seq_at = Hashtbl.create 64 in (* rank -> node *)
  Array.iteri
    (fun rank { Plan.inst; prim; ins; outs; clocked } ->
       let add_seq sn on_edge =
         seq_all := sn :: !seq_all;
         Hashtbl.replace seq_at rank sn;
         if on_edge then seq_clocked := sn :: !seq_clocked
       in
       let p1 ports name = (Plan.port plan ports name).(0) in
       match prim with
       | Prim.Lut init ->
         let addrs =
           Array.init (Lut_init.inputs init) (fun i -> p1 ins (Printf.sprintf "I%d" i))
         in
         eval.(rank) <- lut_eval sc st ~lanes addrs (Lut_init.to_int init) (p1 outs "O")
       | Prim.Ff { clock_enable; async_clear; sync_reset; init } ->
         let c = Bit.to_code init in
         let f =
           { ff_rank = rank;
             ff_d = p1 ins "D";
             ff_ce = (if clock_enable then p1 ins "CE" else -1);
             ff_clr = (if async_clear then p1 ins "CLR" else -1);
             ff_r = (if sync_reset then p1 ins "R" else -1);
             ff_cur0 = bcast0 mask c;
             ff_cur1 = bcast1 mask c;
             ff_next0 = bcast0 mask c;
             ff_next1 = bcast1 mask c;
             ff_init = c }
         in
         let q = p1 outs "Q" in
         eval.(rank) <-
           (if async_clear then
              let clr = f.ff_clr in
              fun () ->
                mux4 sc mask
                  (Array.unsafe_get st.p0 clr)
                  (Array.unsafe_get st.p1 clr)
                  f.ff_cur0 f.ff_cur1 0 0;
                write st q sc.m0 sc.m1
            else fun () -> write st q f.ff_cur0 f.ff_cur1);
         add_seq (S_ff f) clocked
       | Prim.Muxcy ->
         let s = p1 ins "S" and di = p1 ins "DI" and ci = p1 ins "CI" in
         let o = p1 outs "O" in
         eval.(rank) <-
           (fun () ->
              mux4 sc mask
                (Array.unsafe_get st.p0 s)
                (Array.unsafe_get st.p1 s)
                (Array.unsafe_get st.p0 di)
                (Array.unsafe_get st.p1 di)
                (Array.unsafe_get st.p0 ci)
                (Array.unsafe_get st.p1 ci);
              write st o sc.m0 sc.m1)
       | Prim.Xorcy ->
         let li = p1 ins "LI" and ci = p1 ins "CI" in
         let o = p1 outs "O" in
         eval.(rank) <-
           (fun () ->
              let a1 = Array.unsafe_get st.p1 li
              and b1 = Array.unsafe_get st.p1 ci in
              let r1 = a1 lor b1 in
              write st o
                ((Array.unsafe_get st.p0 li lxor Array.unsafe_get st.p0 ci)
                 land mask land lnot r1)
                r1)
       | Prim.Mult_and ->
         let i0 = p1 ins "I0" and i1 = p1 ins "I1" in
         let lo = p1 outs "LO" in
         eval.(rank) <-
           (fun () ->
              let a0 = Array.unsafe_get st.p0 i0
              and a1 = Array.unsafe_get st.p1 i0
              and b0 = Array.unsafe_get st.p0 i1
              and b1 = Array.unsafe_get st.p1 i1 in
              let ones = a0 land lnot a1 land b0 land lnot b1 in
              let zeros = lnot (a0 lor a1) lor lnot (b0 lor b1) in
              write st lo ones (mask land lnot (zeros lor ones)))
       | Prim.Srl16 { init } ->
         let s =
           { srl_rank = rank;
             srl_d = p1 ins "D";
             srl_ce = p1 ins "CE";
             srl_c0 = Array.init 16 (fun i -> bcast0 mask ((init lsr i) land 1));
             srl_c1 = Array.make 16 0;
             srl_n0 = Array.make 16 0;
             srl_n1 = Array.make 16 0;
             srl_init = init }
         in
         let a = Array.init 4 (fun i -> p1 ins (Printf.sprintf "A%d" i)) in
         let q = p1 outs "Q" in
         let c0 = s.srl_c0 and c1 = s.srl_c1 in
         eval.(rank) <- mem_read sc st ~lanes a c0 c1 q;
         add_seq (S_srl s) clocked
       | Prim.Ram16x1 { init } ->
         let m =
           { ram_rank = rank;
             ram_d = p1 ins "D";
             ram_we = p1 ins "WE";
             ram_a = Array.init 4 (fun i -> p1 ins (Printf.sprintf "A%d" i));
             ram_c0 = Array.init 16 (fun i -> bcast0 mask ((init lsr i) land 1));
             ram_c1 = Array.make 16 0;
             ram_n0 = Array.make 16 0;
             ram_n1 = Array.make 16 0;
             ram_init = init }
         in
         let o = p1 outs "O" in
         eval.(rank) <- mem_read sc st ~lanes m.ram_a m.ram_c0 m.ram_c1 o;
         add_seq (S_ram m) clocked
       | Prim.Buf ->
         let i = p1 ins "I" and o = p1 outs "O" in
         eval.(rank) <-
           (fun () ->
              write st o (Array.unsafe_get st.p0 i) (Array.unsafe_get st.p1 i))
       | Prim.Inv ->
         let i = p1 ins "I" and o = p1 outs "O" in
         eval.(rank) <-
           (fun () ->
              let a0 = Array.unsafe_get st.p0 i
              and a1 = Array.unsafe_get st.p1 i in
              write st o (mask land lnot (a0 lor a1)) a1)
       | Prim.Gnd ->
         let g = p1 outs "G" in
         eval.(rank) <- (fun () -> write st g 0 0)
       | Prim.Vcc ->
         let v = p1 outs "P" in
         eval.(rank) <- (fun () -> write st v mask 0)
       | Prim.Black_box { make_behavior; _ } ->
         (* admitted with one lane only (checked above) *)
         let behavior = make_behavior () in
         let read port =
           let arr =
             match List.assoc_opt port ins with
             | Some a -> a
             | None -> Plan.port plan outs port
           in
           Bits.init (Array.length arr) (fun i -> Bit.of_code (lane_code st arr.(i) 0))
         in
         let path = Cell.path inst in
         eval.(rank) <-
           (fun () ->
              List.iter
                (fun (port, bits) ->
                   let nets = Plan.port plan outs port in
                   if Array.length nets <> Bits.width bits then
                     invalid_arg
                       (Printf.sprintf "%s: black box %s wrote %d bits to %d-bit port %s"
                          who path (Bits.width bits) (Array.length nets) port);
                   Array.iteri
                     (fun i idx ->
                        let c = Bit.to_code (Bits.get bits i) in
                        write st idx (c land 1) (c lsr 1))
                     nets)
                (behavior.Prim.comb ~read));
         add_seq
           (S_bb { bb_rank = rank; bb_behavior = behavior; bb_read = read })
           (clocked && Option.is_some behavior.Prim.clock_edge))
    nodes;
  let in_targets = Hashtbl.create 16 in
  List.iter
    (fun port ->
       let name = port.Design.port_name in
       let nets = Wire.nets port.Design.port_wire in
       let reject = ref None in
       let idx =
         Array.mapi
           (fun i n ->
              (match n.driver with
               | Some term when !reject = None ->
                 reject :=
                   Some
                     (Printf.sprintf
                        "Simulator.Batch.set_input: net %s[%d] is driven by %s"
                        (Wire.name port.Design.port_wire) i
                        (Cell.path term.term_cell))
               | _ -> ());
              match Hashtbl.find_opt plan.Plan.net_idx n.net_id with
              | Some idx -> idx
              | None -> -1)
           nets
       in
       Hashtbl.replace in_targets name { ft_idx = idx; ft_reject = !reject })
    (Design.inputs design);
  let b =
    { sim_design = design;
      st;
      sc;
      n_lanes = lanes;
      eval;
      seq_all = Array.of_list (List.rev !seq_all);
      seq_clocked = Array.of_list (List.rev !seq_clocked);
      seq_snap = Array.map (fun e -> Hashtbl.find seq_at e.Plan.rank) plan.Plan.seq;
      in_targets;
      cycles = 0;
      words_hist = None }
  in
  propagate_full b;
  b

let create ?clock ~lanes design = create_as ~who:"Simulator.Batch" ~clock ~lanes design

(* ------------------------------------------------------------------ *)
(* Public API.                                                         *)

let design b = b.sim_design
let lanes b = b.n_lanes

let check_lane b lane =
  if lane < 0 || lane >= b.n_lanes then
    invalid_arg
      (Printf.sprintf "Simulator.Batch: lane %d out of range 0..%d" lane
         (b.n_lanes - 1))

(* lane-bit plane write without settling; marking is shared with the
   word-wise [write] *)
let write_lane st idx lane c0 c1 =
  let bit = 1 lsl lane in
  let o0 = Array.unsafe_get st.p0 idx
  and o1 = Array.unsafe_get st.p1 idx in
  let n0 = o0 land lnot bit lor (c0 land bit)
  and n1 = o1 land lnot bit lor (c1 land bit) in
  write st idx n0 n1

let set_input b ~lane port bits =
  check_lane b lane;
  match Hashtbl.find_opt b.in_targets port with
  | None ->
    (match Design.find_port b.sim_design port with
     | Some _ ->
       invalid_arg
         (Printf.sprintf "Simulator.Batch.set_input: %s is an output" port)
     | None ->
       invalid_arg
         (Printf.sprintf "Simulator.Batch.set_input: no port %s" port))
  | Some ft ->
    (match ft.ft_reject with
     | Some msg -> invalid_arg msg
     | None -> ());
    let w = Array.length ft.ft_idx in
    if Bits.width bits <> w then
      invalid_arg
        (Printf.sprintf "Simulator.Batch.set_input: %d bits for %d-bit port %s"
           (Bits.width bits) w port);
    let st = b.st in
    if w <= 63 then begin
      (* fast path: one packed-plane conversion, then per-net lane writes *)
      let v0, v1 = Bits.to_planes bits in
      for i = 0 to w - 1 do
        let idx = Array.unsafe_get ft.ft_idx i in
        if idx >= 0 then
          write_lane st idx lane
            (0 - ((v0 lsr i) land 1))
            (0 - ((v1 lsr i) land 1))
      done
    end
    else
      for i = 0 to w - 1 do
        let idx = Array.unsafe_get ft.ft_idx i in
        if idx >= 0 then begin
          let c = Bit.to_code (Bits.get bits i) in
          write_lane st idx lane (0 - (c land 1)) (0 - ((c lsr 1) land 1))
        end
      done

let set_inputs b ~lane assignments =
  List.iter (fun (port, bits) -> set_input b ~lane port bits) assignments

let force_net b ~lane n bit =
  match Hashtbl.find_opt b.st.plan.Plan.net_idx n.net_id with
  | Some idx ->
    let c = Bit.to_code bit in
    write_lane b.st idx lane (0 - (c land 1)) (0 - (c lsr 1))
  | None -> ()

let read_nets b ~lane nets =
  Bits.init (Array.length nets) (fun i ->
    match Hashtbl.find_opt b.st.plan.Plan.net_idx nets.(i).net_id with
    | None -> Bit.X
    | Some idx -> Bit.of_code (lane_code b.st idx lane))

let get b ~lane w =
  check_lane b lane;
  propagate b;
  read_nets b ~lane (Wire.nets w)

let get_port b ~lane port =
  check_lane b lane;
  propagate b;
  match Design.find_port b.sim_design port with
  | None ->
    invalid_arg (Printf.sprintf "Simulator.Batch.get_port: no port %s" port)
  | Some p -> read_nets b ~lane (Wire.nets p.Design.port_wire)

let cycle ?(n = 1) b =
  propagate b (* settle deferred input forces before the edge *);
  let st = b.st and sc = b.sc in
  let seq = b.seq_clocked in
  let k = Array.length seq in
  for _ = 1 to n do
    for i = 0 to k - 1 do
      compute_snode st sc (Array.unsafe_get seq i)
    done;
    for i = 0 to k - 1 do
      commit_snode st (Array.unsafe_get seq i)
    done;
    b.cycles <- b.cycles + 1;
    propagate b
  done

let reset b =
  let mask = b.st.mask in
  Array.iter
    (function
      | S_ff f ->
        f.ff_cur0 <- bcast0 mask f.ff_init;
        f.ff_cur1 <- bcast1 mask f.ff_init
      | S_srl s ->
        for i = 0 to 15 do
          s.srl_c0.(i) <- bcast0 mask ((s.srl_init lsr i) land 1);
          s.srl_c1.(i) <- 0
        done
      | S_ram m ->
        for i = 0 to 15 do
          m.ram_c0.(i) <- bcast0 mask ((m.ram_init lsr i) land 1);
          m.ram_c1.(i) <- 0
        done
      | S_bb bb -> Option.iter (fun f -> f ()) bb.bb_behavior.Prim.state_reset)
    b.seq_all;
  b.cycles <- 0;
  propagate_full b

let cycle_count b = b.cycles
let prim_count b = Array.length b.eval
let levels b = b.st.plan.Plan.depth
let eval_count b = b.st.evals
let event_count b = b.st.changes

let attach_settle_histogram b h = b.words_hist <- Some h

let register_metrics b registry =
  let module M = Jhdl_metrics.Metrics in
  M.probe registry "lanes_active" (fun () -> b.n_lanes);
  M.probe registry "batch_cycles_total" (fun () -> b.cycles);
  M.probe registry "batch_settle_evals_total" (fun () -> eval_count b);
  M.probe registry "batch_net_events_total" (fun () -> event_count b);
  if not (M.is_nil registry) then
    attach_settle_histogram b (M.histogram registry "words_per_settle")

(* ------------------------------------------------------------------ *)
(* Lane extraction: one lane's state as a standard [Snapshot] image.
   The blob of lane [l] is byte-identical to [Reference.snapshot] of a
   watchless run of lane [l]'s stimulus.                               *)

let lane_image b ~lane =
  check_lane b lane;
  Plan.check_snapshot b.st.plan;
  propagate b;
  let plan = b.st.plan in
  let lane_mem c0 c1 =
    Bytes.init 16 (fun i ->
      Char.unsafe_chr (((c0.(i) lsr lane) land 1) lor (((c1.(i) lsr lane) land 1) lsl 1)))
  in
  let state = function
    | S_ff f ->
      Snapshot.Flop
        (((f.ff_cur0 lsr lane) land 1) lor (((f.ff_cur1 lsr lane) land 1) lsl 1))
    | S_srl s -> Snapshot.Mem (lane_mem s.srl_c0 s.srl_c1)
    | S_ram m -> Snapshot.Mem (lane_mem m.ram_c0 m.ram_c1)
    | S_bb _ -> assert false (* black boxes have no table entry *)
  in
  let nets = Bytes.create plan.Plan.snapshot_nets in
  for i = 0 to plan.Plan.snapshot_nets - 1 do
    Bytes.unsafe_set nets i (Char.unsafe_chr (lane_code b.st i lane))
  done;
  { Snapshot.image_signature = Plan.signature plan;
    image_cycles = b.cycles;
    image_nets = nets;
    image_seq =
      List.init (Array.length b.seq_snap) (fun i ->
        (plan.Plan.seq.(i).Plan.path, state b.seq_snap.(i)));
    image_watches = [] }

let snapshot_lane b ~lane = Snapshot.encode (lane_image b ~lane)

(* [lane] is in range: [restore_lane] checks it before decoding *)
let restore_image b ~lane img =
  Plan.check_image b.st.plan img (* before anything is written *);
  let bit = 1 lsl lane in
  let put c0 c1 i c =
    c0.(i) <- c0.(i) land lnot bit lor ((0 - (c land 1)) land bit);
    c1.(i) <- c1.(i) land lnot bit lor ((0 - (c lsr 1)) land bit)
  in
  Bytes.iteri (fun i c -> put b.st.p0 b.st.p1 i (Char.code c)) img.Snapshot.image_nets;
  List.iteri
    (fun i (_, state) ->
       match b.seq_snap.(i), state with
       | S_ff f, Snapshot.Flop c ->
         f.ff_cur0 <- f.ff_cur0 land lnot bit lor ((0 - (c land 1)) land bit);
         f.ff_cur1 <- f.ff_cur1 land lnot bit lor ((0 - (c lsr 1)) land bit)
       | ( ( S_srl { srl_c0 = c0; srl_c1 = c1; _ }
           | S_ram { ram_c0 = c0; ram_c1 = c1; _ } ),
           Snapshot.Mem cells ) ->
         Bytes.iteri (fun j c -> put c0 c1 j (Char.code c)) cells
       | _ -> assert false (* kinds checked against the plan *))
    img.Snapshot.image_seq;
  (* the shared cycle counter is deliberately left unchanged: lanes step
     together, so the restored lane adopts the batch's clock position *)
  propagate_full b

let restore_lane b ~lane blob =
  check_lane b lane;
  restore_image b ~lane (Snapshot.decode blob)
