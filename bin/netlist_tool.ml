(* Batch netlist generation from the IP catalog: the vendor-side or
   licensed-customer command-line path from generator to tool-chain
   file.

   Usage: netlist_tool --ip VirtexKCMMultiplier --format vhdl \
            --param constant=-56 --param multiplicand_width=8 [-o out.vhd] *)

open Jhdl
open Cmdliner

let run ip_name format_name params output watermark_vendor =
  let result =
    match Catalog.find ip_name with
    | None -> Error (Printf.sprintf "unknown IP %s" ip_name)
    | Some ip ->
      (match Format_kind.of_string format_name with
       | None -> Error (Printf.sprintf "unknown format %s" format_name)
       | Some fmt ->
         (match Cli_common.elaborate ip params with
          | Error message -> Error message
          | Ok built ->
            let design = built.Ip_module.design in
            (match watermark_vendor with
             | Some vendor ->
               let _ = Watermark.embed design ~vendor () in
               ()
             | None -> ());
            Ok (Format_kind.write fmt (Model.of_design design))))
  in
  match result with
  | Error message ->
    Printf.eprintf "netlist_tool: %s\n" message;
    1
  | Ok text ->
    (match output with
     | None -> print_string text
     | Some path ->
       let oc = open_out path in
       output_string oc text;
       close_out oc;
       Printf.printf "wrote %s (%d bytes)\n" path (String.length text));
    0

let ip_arg =
  Arg.(
    value
    & opt string "VirtexKCMMultiplier"
    & info [ "ip" ] ~doc:"IP module name from the catalog.")

let format_arg =
  Arg.(
    value & opt string "edif"
    & info [ "format" ] ~doc:"Output format: edif, vhdl or verilog.")

let param_arg =
  Arg.(
    value & opt_all string []
    & info [ "param"; "p" ] ~doc:"Generator parameter as name=value.")

let output_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~doc:"Write to a file instead of stdout.")

let watermark_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "watermark" ] ~doc:"Embed a vendor watermark before export.")

let cmd =
  let doc = "generate tool-chain netlists from JHDL module generators" in
  Cmd.v
    (Cmd.info "netlist_tool" ~doc)
    Term.(
      const run $ ip_arg $ format_arg $ param_arg $ output_arg $ watermark_arg)

let () = exit (Cmd.eval' cmd)
