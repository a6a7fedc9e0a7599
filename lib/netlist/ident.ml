type style =
  | Edif
  | Vhdl
  | Verilog

module Names = Hashtbl.Make (String)

type t = {
  style : style;
  forward : string Names.t;
  taken : unit Names.t;
}

let create style = { style; forward = Names.create 1024; taken = Names.create 1024 }

let vhdl_reserved =
  [ "abs"; "access"; "after"; "alias"; "all"; "and"; "architecture"; "array";
    "assert"; "attribute"; "begin"; "block"; "body"; "buffer"; "bus"; "case";
    "component"; "configuration"; "constant"; "disconnect"; "downto"; "else";
    "elsif"; "end"; "entity"; "exit"; "file"; "for"; "function"; "generate";
    "generic"; "group"; "guarded"; "if"; "impure"; "in"; "inertial"; "inout";
    "is"; "label"; "library"; "linkage"; "literal"; "loop"; "map"; "mod";
    "nand"; "new"; "next"; "nor"; "not"; "null"; "of"; "on"; "open"; "or";
    "others"; "out"; "package"; "port"; "postponed"; "procedure"; "process";
    "pure"; "range"; "record"; "register"; "reject"; "rem"; "report";
    "return"; "rol"; "ror"; "select"; "severity"; "signal"; "shared"; "sla";
    "sll"; "sra"; "srl"; "subtype"; "then"; "to"; "transport"; "type";
    "unaffected"; "units"; "until"; "use"; "variable"; "wait"; "when";
    "while"; "with"; "xnor"; "xor" ]

let verilog_reserved =
  [ "always"; "and"; "assign"; "begin"; "buf"; "bufif0"; "bufif1"; "case";
    "casex"; "casez"; "cmos"; "deassign"; "default"; "defparam"; "disable";
    "edge"; "else"; "end"; "endcase"; "endfunction"; "endmodule";
    "endprimitive"; "endspecify"; "endtable"; "endtask"; "event"; "for";
    "force"; "forever"; "fork"; "function"; "highz0"; "highz1"; "if";
    "ifnone"; "initial"; "inout"; "input"; "integer"; "join"; "large";
    "macromodule"; "medium"; "module"; "nand"; "negedge"; "nmos"; "nor";
    "not"; "notif0"; "notif1"; "or"; "output"; "parameter"; "pmos";
    "posedge"; "primitive"; "pull0"; "pull1"; "pulldown"; "pullup";
    "rcmos"; "real"; "realtime"; "reg"; "release"; "repeat"; "rnmos";
    "rpmos"; "rtran"; "rtranif0"; "rtranif1"; "scalared"; "small";
    "specify"; "specparam"; "strong0"; "strong1"; "supply0"; "supply1";
    "table"; "task"; "time"; "tran"; "tranif0"; "tranif1"; "tri"; "tri0";
    "tri1"; "triand"; "trior"; "trireg"; "vectored"; "wait"; "wand";
    "weak0"; "weak1"; "while"; "wire"; "wor"; "xnor"; "xor" ]

let is_letter c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
let is_word_char c = is_letter c || (c >= '0' && c <= '9') || c = '_'

let is_reserved style s =
  match style with
  | Vhdl -> List.mem (String.lowercase_ascii s) vhdl_reserved
  | Verilog -> List.mem (String.lowercase_ascii s) verilog_reserved
  | Edif -> false

let case_key style s =
  match style with
  | Vhdl -> String.lowercase_ascii s
  | Edif | Verilog -> s

(* every character outside the identifier syntax becomes '_', behind an
   'n' when the name would not start with a letter *)
let word name =
  let n = String.length name in
  if n = 0 then "n"
  else begin
    let off = if is_letter (String.unsafe_get name 0) then 0 else 1 in
    let s = Bytes.create (n + off) in
    Bytes.unsafe_set s 0 'n';
    for i = 0 to n - 1 do
      let c = String.unsafe_get name i in
      Bytes.unsafe_set s (i + off) (if is_word_char c then c else '_')
    done;
    Bytes.unsafe_to_string s
  end

(* VHDL forbids double and trailing underscores *)
let vhdl_word s =
  let n = String.length s in
  let b = Bytes.create (n + 1) in
  let len = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    if c <> '_' || i = 0 || String.unsafe_get s (i - 1) <> '_' then begin
      Bytes.unsafe_set b !len c;
      incr len
    end
  done;
  if Bytes.get b (!len - 1) = '_' then begin
    Bytes.unsafe_set b !len 'n';
    incr len
  end;
  Bytes.sub_string b 0 !len

let sanitize style name =
  let s = word name in
  let s = match style with Vhdl -> vhdl_word s | Edif | Verilog -> s in
  if is_reserved style s then s ^ "_id" else s

(* the first [base_k] the table has not taken *)
let rec pick t base k =
  let candidate = base ^ "_" ^ string_of_int k in
  if Names.mem t.taken (case_key t.style candidate) then pick t base (k + 1)
  else candidate

let legalize t name =
  match Names.find_opt t.forward name with
  | Some s -> s
  | None ->
    let base = sanitize t.style name in
    let chosen =
      if Names.mem t.taken (case_key t.style base) then pick t base 1 else base
    in
    (* neither table holds its key yet *)
    Names.add t.taken (case_key t.style chosen) ();
    Names.add t.forward name chosen;
    chosen
