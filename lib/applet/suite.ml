module Metering = Jhdl_security.Metering

type command =
  | List_ips
  | Select of string
  | Ip_command of Applet.command

let command_to_string = function
  | List_ips -> "ips"
  | Select name -> Printf.sprintf "select %s" name
  | Ip_command c -> Applet.command_to_string c

type entry = {
  ip : Ip_module.t;
  applet : Applet.t;
}

type t = {
  entries : entry list;
  mutable active : entry;
  lint_cache : Jhdl_lint.Lint.report Jhdl_cache.Store.t option;
  clock : unit -> float;
}

let create ?lint_cache ?(clock = fun () -> 0.) ~ips ~license ~user () =
  match ips with
  | [] -> invalid_arg "Suite.create: no IP modules"
  | _ :: _ ->
    let meter = Metering.create ~limits:license.License.limits in
    let entries =
      List.map
        (fun ip -> { ip; applet = Applet.create ~ip ~license ~user ~meter () })
        ips
    in
    (match entries with
     | first :: _ -> { entries; active = first; lint_cache; clock }
     | [] -> assert false)

let selected t = t.active.ip

let find t name =
  let lower = String.lowercase_ascii name in
  List.find_opt
    (fun e -> String.lowercase_ascii e.ip.Ip_module.ip_name = lower)
    t.entries

let exec t command =
  match command with
  | List_ips ->
    let lines =
      List.map
        (fun e ->
           Printf.sprintf "%s %-24s %s [lint: %s]"
             (if e == t.active then "*" else " ")
             e.ip.Ip_module.ip_name e.ip.Ip_module.description
             (Catalog.lint_summary ?cache:t.lint_cache ~now:(t.clock ())
                e.ip))
        t.entries
    in
    Ok (String.concat "\n" lines)
  | Select name ->
    (match find t name with
     | Some entry ->
       t.active <- entry;
       Ok (Printf.sprintf "selected %s" entry.ip.Ip_module.ip_name)
     | None -> Error (Printf.sprintf "no IP named %s in this applet" name))
  | Ip_command c -> Applet.exec t.active.applet c

let run_script t commands =
  let buffer = Buffer.create 1024 in
  List.iter
    (fun command ->
       Buffer.add_string buffer ("> " ^ command_to_string command ^ "\n");
       (match exec t command with
        | Ok text -> Buffer.add_string buffer text
        | Error message -> Buffer.add_string buffer ("ERROR: " ^ message));
       Buffer.add_char buffer '\n')
    commands;
  Buffer.contents buffer
