(* Interactive IP delivery applet, as a terminal program: the browser
   experience of Figures 1/3 driven from stdin.

   Usage: jhdl_applet_cli [--ip NAME] [--tier TIER] [--user NAME]
   Then type `help` at the prompt. *)

open Jhdl

let parse_command line =
  let line = String.trim line in
  let split_eq s =
    Result.to_option (Cli_common.split_eq "set" s)
    |> Option.map (fun (k, v) -> (String.trim k, String.trim v))
  in
  let words = String.split_on_char ' ' line |> List.filter (fun w -> w <> "") in
  match words with
  | [] -> None
  | "form" :: _ -> Some Applet.Show_form
  | "build" :: _ -> Some Applet.Build
  | "estimate" :: _ -> Some Applet.Estimate
  | [ "schematic" ] -> Some (Applet.View_schematic None)
  | [ "schematic"; path ] -> Some (Applet.View_schematic (Some path))
  | "hierarchy" :: _ -> Some Applet.View_hierarchy
  | "layout" :: _ -> Some Applet.View_layout
  | [ "cycle" ] -> Some (Applet.Cycle 1)
  | [ "cycle"; n ] ->
    Option.map (fun n -> Applet.Cycle n) (int_of_string_opt n)
  | "reset" :: _ -> Some Applet.Reset
  | [ "output"; port ] -> Some (Applet.Get_output port)
  | "waveform" :: _ -> Some Applet.View_waveform
  | "vcd" :: _ -> Some Applet.Export_vcd
  | "selftest" :: _ -> Some Applet.Self_test
  | [ "netlist"; fmt ] -> Some (Applet.Netlist fmt)
  | "license" :: _ -> Some Applet.Show_license
  | "help" :: _ -> Some Applet.Help
  | "set" :: rest ->
    Option.map
      (fun (k, v) -> Applet.Set_param (k, v))
      (split_eq (String.concat " " rest))
  | "input" :: rest ->
    Option.map
      (fun (k, v) -> Applet.Set_input (k, v))
      (split_eq (String.concat " " rest))
  | _ -> None

let repl applet =
  print_endline "JHDL IP evaluation applet (type `help`, `quit` to exit)";
  let rec loop () =
    print_string "applet> ";
    match read_line () with
    | exception End_of_file -> ()
    | "quit" | "exit" -> ()
    | line ->
      (match parse_command line with
       | None ->
         if String.trim line <> "" then
           print_endline "unrecognized command (try `help`)"
       | Some command ->
         (match Applet.exec applet command with
          | Ok text -> print_endline text
          | Error message -> print_endline ("ERROR: " ^ message)));
      loop ()
  in
  loop ()

open Cmdliner

let ip_arg =
  let doc = "IP module to evaluate (VirtexKCMMultiplier, FirFilter, UpCounter)." in
  Arg.(value & opt string "VirtexKCMMultiplier" & info [ "ip" ] ~doc)

let tier_arg =
  let doc = "License tier: passive, evaluator, licensed or vendor." in
  Arg.(value & opt string "licensed" & info [ "tier" ] ~doc)

let user_arg =
  let doc = "User name recorded by the license meter." in
  Arg.(value & opt string "demo-user" & info [ "user" ] ~doc)

let run ip_name tier_name user =
  match Catalog.find ip_name with
  | None ->
    Printf.eprintf "unknown IP %s; catalog: %s\n" ip_name
      (String.concat ", "
         (List.map (fun ip -> ip.Ip_module.ip_name) Catalog.all));
    1
  | Some ip ->
    let tier =
      match String.lowercase_ascii tier_name with
      | "passive" -> Some License.Passive
      | "evaluator" -> Some License.Evaluator
      | "licensed" -> Some License.Licensed
      | "vendor" -> Some License.Vendor
      | _ -> None
    in
    (match tier with
     | None ->
       Printf.eprintf "unknown tier %s\n" tier_name;
       1
     | Some tier ->
       let applet =
         Applet.create ~ip ~license:(License.of_tier tier) ~user ()
       in
       repl applet;
       0)

let cmd =
  let doc = "evaluate FPGA IP inside a JHDL applet" in
  Cmd.v
    (Cmd.info "jhdl_applet_cli" ~doc)
    Term.(const run $ ip_arg $ tier_arg $ user_arg)

let () = exit (Cmd.eval' cmd)
