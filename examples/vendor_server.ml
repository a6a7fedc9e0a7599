(* The IP vendor's web presence: three customers with three licenses
   request the same IP page and receive three differently-capable
   applets (Section 1.1 and Figure 2), each with the jar set its feature
   mix requires. A vendor update then shows the central-server
   advantage: revisits re-fetch only the bumped applet jar.

   Run with: dune exec examples/vendor_server.exe *)

open Jhdl

let show_session user (session : Server.session) =
  Printf.printf "%s -> applet v%d with tools: %s\n" user session.Server.version
    (String.concat ", "
       (List.map Feature.name (Applet.features session.Server.applet)));
  Printf.printf "   jars: %s\n"
    (String.concat ", "
       (List.map (fun j -> j.Jar.jar_name) session.Server.jars));
  Printf.printf "   fetched %d jar(s), %.1f s over 1M DSL\n\n"
    (List.length session.Server.fetched)
    session.Server.download_seconds

let () =
  let server = Server.create ~vendor:"BYU Configurable Computing Lab" () in
  let _ = Server.publish server Catalog.kcm in
  let _ = Server.publish server Catalog.fir in
  Server.register_user server ~user:"browser-bob" ~tier:License.Passive;
  Server.register_user server ~user:"eval-eve" ~tier:License.Evaluator;
  Server.register_user server ~user:"paid-pat" ~tier:License.Licensed;

  print_endline "== catalog ==";
  List.iter
    (fun (name, version) -> Printf.printf "  %s (v%d)\n" name version)
    (Server.catalog server);
  print_newline ();

  print_endline "== license feature matrix ==";
  print_endline (License.feature_matrix ());

  print_endline "== three customers request the KCM page ==";
  let request ~user =
    Result.map_error
      (fun rejection -> rejection.Server.rej_reason)
      (Server.user_request server ~now:0.0 ~user ~ip_name:"VirtexKCMMultiplier"
         ~link:Download.dsl_1m ())
  in
  List.iter
    (fun user ->
       match request ~user with
       | Ok session -> show_session user session
       | Error message -> Printf.printf "%s -> ERROR %s\n" user message)
    [ "browser-bob"; "eval-eve"; "paid-pat" ];

  print_endline "== the passive applet really is passive ==";
  (match request ~user:"browser-bob" with
   | Error message -> print_endline message
   | Ok session ->
     let applet = session.Server.applet in
     List.iter
       (fun command ->
          match Applet.exec applet command with
          | Ok _ -> Printf.printf "  %s: allowed\n" (Applet.command_to_string command)
          | Error m -> Printf.printf "  %s: refused (%s)\n" (Applet.command_to_string command) m)
       [ Applet.Build; Applet.Estimate; Applet.View_hierarchy;
         Applet.Cycle 1; Applet.Netlist "EDIF" ]);
  print_newline ();

  print_endline "== vendor publishes a KCM update; pat revisits ==";
  let v = Server.publish server Catalog.kcm in
  Printf.printf "republished VirtexKCMMultiplier as v%d\n" v;
  (match request ~user:"paid-pat" with
   | Ok session ->
     Printf.printf "pat re-fetched only: %s (%.2f s)\n"
       (String.concat ", "
          (List.map (fun j -> j.Jar.jar_name) session.Server.fetched))
       session.Server.download_seconds
   | Error message -> print_endline message);
  print_newline ();

  print_endline "== server access log ==";
  List.iter (fun line -> print_endline ("  " ^ line)) (Server.access_log server)
