(* Compile plan of the simulation kernel.

   Everything [Batch] needs before it chooses a value store and the
   primitive rules that read and write it is built here, once per
   kernel [create]:

   - the design-rule and 1-bit clock prechecks;
   - the shared [Levelize] walk, stably sorted by level so each level
     occupies a contiguous rank range;
   - dense net numbering: the design's nets first, in [Design.all_nets]
     order, then any node-port net no declared wire reaches;
   - the CSR fan-out ([row]/[col]) from a net to the ranks of its
     combinational consumers, and the level of each rank and first rank
     of each level, which the kernel's dirty worklist is bucketed by;
   - the checkpoint tables. Design nets are the first dense indices, so
     a blob's net section is a prefix of the kernel's store; [seq] lists
     the sequential elements in the hierarchy order their state entries
     take in a blob.

   A plan holds tables only; nothing in it changes after [create]. The
   per-rank [node]s go back to the caller, which compiles its eval
   closures from them and drops them. *)

open Jhdl_circuit.Types
module Prim = Jhdl_circuit.Prim
module Wire = Jhdl_circuit.Wire
module Cell = Jhdl_circuit.Cell
module Design = Jhdl_circuit.Design
module Levelize = Jhdl_circuit.Levelize

exception Combinational_cycle of string list

type node = {
  inst : cell;
  prim : Prim.t;
  ins : (string * int array) list;
  outs : (string * int array) list;
  clocked : bool;
}

type seq = {
  path : string;
  rank : int;
  flop : bool;
}

type t = {
  design : Design.t;
  who : string;
  net_idx : (int, int) Hashtbl.t;
  n_nets : int;
  snapshot_nets : int;
  row : int array;
  col : int array;
  level_of : int array;
  level_lo : int array;
  depth : int;
  seq : seq array;
  black_boxes : (string * string) list;
  signature : int Lazy.t;
}

let create ~who ~clock design =
  (* The precheck skips the loop walk: levelization below reports a
     loop through [Combinational_cycle], carrying the same cell list as
     [Design.validate]. *)
  (match Design.rule_errors design with
   | [] -> ()
   | violation :: _ ->
     invalid_arg
       (Format.asprintf "%s.create: design-rule error: %a" who
          Design.pp_violation violation));
  let clock_nets =
    match clock with
    | None -> None
    | Some w ->
      if Wire.width w <> 1 then
        invalid_arg (who ^ ".create: clock wire must be 1 bit wide");
      let table = Hashtbl.create 4 in
      Array.iter (fun n -> Hashtbl.replace table n.net_id ()) (Wire.nets w);
      Some table
  in
  let in_domain (s : Levelize.source) =
    match clock_nets, Prim.clock_port s.prim with
    | None, _ | _, None -> true (* black boxes follow the global cycle *)
    | Some table, Some port ->
      (match List.assoc_opt port s.in_ports with
       | None -> false
       | Some nets -> Array.exists (fun n -> Hashtbl.mem table n.net_id) nets)
  in
  let sources = Levelize.sources_of_root (Design.root design) in
  let kahn, kahn_levels, depth =
    try Levelize.levelize sources
    with Levelize.Cycle cells ->
      raise (Combinational_cycle (List.map Cell.path cells))
  in
  let by_level = Array.init (Array.length kahn) Fun.id in
  Array.stable_sort
    (fun i j -> Int.compare kahn_levels.(i) kahn_levels.(j))
    by_level;
  let order = Array.map (Array.get kahn) by_level in
  let level_of = Array.map (Array.get kahn_levels) by_level in
  let n_ranks = Array.length order in
  let net_idx = Hashtbl.create 1024 in
  let index_net n =
    if not (Hashtbl.mem net_idx n.net_id) then
      Hashtbl.add net_idx n.net_id (Hashtbl.length net_idx)
  in
  List.iter index_net (Design.all_nets design);
  let snapshot_nets = Hashtbl.length net_idx in
  Array.iter
    (fun (s : Levelize.source) ->
       List.iter (fun (_, nets) -> Array.iter index_net nets) s.in_ports;
       List.iter (fun (_, nets) -> Array.iter index_net nets) s.out_ports)
    order;
  let n_nets = Hashtbl.length net_idx in
  let dense ports =
    List.map
      (fun (name, nets) ->
         (name, Array.map (fun n -> Hashtbl.find net_idx n.net_id) nets))
      ports
  in
  let nodes =
    Array.map
      (fun (s : Levelize.source) ->
         { inst = s.inst;
           prim = s.prim;
           ins = dense s.in_ports;
           outs = dense s.out_ports;
           clocked = in_domain s })
      order
  in
  (* consumer fan-out as CSR: count, prefix-sum, fill *)
  let iter_comb_nets rank f =
    List.iter
      (fun port ->
         match List.assoc_opt port nodes.(rank).ins with
         | None -> ()
         | Some idx -> Array.iter f idx)
      (Levelize.comb_inputs order.(rank))
  in
  let row = Array.make (n_nets + 1) 0 in
  for rank = 0 to n_ranks - 1 do
    iter_comb_nets rank (fun i -> row.(i + 1) <- row.(i + 1) + 1)
  done;
  for i = 1 to n_nets do
    row.(i) <- row.(i) + row.(i - 1)
  done;
  let col = Array.make row.(n_nets) 0 in
  let cursor = Array.sub row 0 n_nets in
  for rank = 0 to n_ranks - 1 do
    iter_comb_nets rank (fun i ->
      col.(cursor.(i)) <- rank;
      cursor.(i) <- cursor.(i) + 1)
  done;
  let level_lo = Array.make (depth + 1) n_ranks in
  for r = n_ranks - 1 downto 0 do
    level_lo.(level_of.(r)) <- r
  done;
  let rank_of = Hashtbl.create n_ranks in
  Array.iteri
    (fun rank (s : Levelize.source) -> Hashtbl.replace rank_of s.inst.cell_id rank)
    order;
  let seq_entry (s : Levelize.source) flop =
    Some { path = Cell.path s.inst; rank = Hashtbl.find rank_of s.inst.cell_id; flop }
  in
  let seq =
    List.filter_map
      (fun (s : Levelize.source) ->
         match s.prim with
         | Prim.Ff _ -> seq_entry s true
         | Prim.Srl16 _ | Prim.Ram16x1 _ -> seq_entry s false
         | _ -> None)
      sources
  in
  let black_boxes =
    List.filter_map
      (fun (s : Levelize.source) ->
         match s.prim with
         | Prim.Black_box { model_name; _ } -> Some (Cell.path s.inst, model_name)
         | _ -> None)
      sources
  in
  ( { design;
      who;
      net_idx;
      n_nets;
      snapshot_nets;
      row;
      col;
      level_of;
      level_lo;
      depth;
      seq = Array.of_list seq;
      black_boxes;
      signature = lazy (Snapshot.signature design) },
    nodes )

let port p ports name =
  match List.assoc_opt name ports with
  | Some idx -> idx
  | None -> invalid_arg (Printf.sprintf "%s: no port %s" p.who name)

(* ------------------------------------------------------------------ *)
(* Checkpoint tables.                                                  *)

let signature p = Lazy.force p.signature

(* [Snapshot.check_design] walks every primitive; it runs only once a
   black box is known to be there, to raise its message *)
let check_snapshot p = if p.black_boxes <> [] then Snapshot.check_design p.design

let check_image p img =
  check_snapshot p (* no blob carries a black box's opaque state *);
  let expect = signature p in
  if img.Snapshot.image_signature <> expect then
    raise
      (Snapshot.Error
         (Printf.sprintf
            "snapshot: design signature mismatch (blob %08x, design %s is %08x)"
            img.Snapshot.image_signature (Design.name p.design) expect));
  if Bytes.length img.Snapshot.image_nets <> p.snapshot_nets then
    raise (Snapshot.Error "snapshot: net count mismatch");
  let n = Array.length p.seq in
  let rec walk i = function
    | [] ->
      if i < n then
        raise (Snapshot.Error ("snapshot: no state entry for " ^ p.seq.(i).path))
    | (path, state) :: rest ->
      let flop = match state with Snapshot.Flop _ -> true | Snapshot.Mem _ -> false in
      if i >= n || flop <> p.seq.(i).flop || not (String.equal path p.seq.(i).path)
      then
        raise
          (Snapshot.Error
             ("snapshot: state entry does not match the design at " ^ path));
      walk (i + 1) rest
  in
  walk 0 img.Snapshot.image_seq
