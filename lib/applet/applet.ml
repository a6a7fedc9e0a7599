module Bits = Jhdl_logic.Bits
module Design = Jhdl_circuit.Design
module Types = Jhdl_circuit.Types
module Simulator = Jhdl_sim.Simulator
module Estimate = Jhdl_estimate.Estimate
module Format_kind = Jhdl_netlist.Format_kind
module Model = Jhdl_netlist.Model
module Hierarchy = Jhdl_viewer.Hierarchy
module Schematic = Jhdl_viewer.Schematic
module Floorplan = Jhdl_viewer.Floorplan
module Waveform = Jhdl_viewer.Waveform
module Vcd = Jhdl_viewer.Vcd
module Metering = Jhdl_security.Metering
module Tb = Jhdl_sim.Testbench
module Watermark = Jhdl_security.Watermark

type command =
  | Show_form
  | Set_param of string * string
  | Build
  | Estimate
  | View_schematic of string option
  | View_hierarchy
  | View_layout
  | Set_input of string * string
  | Cycle of int
  | Reset
  | Get_output of string
  | View_waveform
  | Export_vcd
  | Self_test
  | Netlist of string
  | Show_license
  | Help

let command_to_string = function
  | Show_form -> "form"
  | Set_param (name, value) -> Printf.sprintf "set %s = %s" name value
  | Build -> "build"
  | Estimate -> "estimate"
  | View_schematic None -> "schematic"
  | View_schematic (Some path) -> Printf.sprintf "schematic %s" path
  | View_hierarchy -> "hierarchy"
  | View_layout -> "layout"
  | Set_input (port, value) -> Printf.sprintf "input %s = %s" port value
  | Cycle n -> Printf.sprintf "cycle %d" n
  | Reset -> "reset"
  | Get_output port -> Printf.sprintf "output %s" port
  | View_waveform -> "waveform"
  | Export_vcd -> "vcd"
  | Self_test -> "selftest"
  | Netlist fmt -> Printf.sprintf "netlist %s" fmt
  | Show_license -> "license"
  | Help -> "help"

type built_state = {
  built : Ip_module.built;
  assignment : (string * Ip_module.param_value) list;
  sim : Simulator.t option;
  mutable watermarked : bool;
}

type t = {
  applet_ip : Ip_module.t;
  applet_license : License.t;
  user : string;
  meter : Metering.t;
  mutable params : (string * Ip_module.param_value) list;
  mutable state : built_state option;
}

let create ~ip ~license ~user ?meter () =
  let meter =
    match meter with
    | Some meter -> meter
    | None -> Metering.create ~limits:license.License.limits
  in
  { applet_ip = ip;
    applet_license = license;
    user;
    meter;
    params = Ip_module.defaults ip;
    state = None }

let ip t = t.applet_ip
let user t = t.user
let license t = t.applet_license
let features t = t.applet_license.License.features
let jar_components t = Feature.components (features t)
let built_design t = Option.map (fun s -> s.built.Ip_module.design) t.state
let simulator t = Option.bind t.state (fun s -> s.sim)
let latency t = Option.map (fun s -> s.built.Ip_module.latency) t.state

let granted t f = License.grants t.applet_license f

let require t f k =
  if granted t f then k ()
  else
    Error
      (Printf.sprintf "the %s is not included in your %s applet" (Feature.name f)
         (License.tier_name t.applet_license.License.tier))

let require_built t k =
  match t.state with
  | Some state -> k state
  | None -> Error "no circuit built yet: set parameters and run `build`"

let meter t action k =
  match Metering.record t.meter ~user:t.user action with
  | Ok _remaining -> k ()
  | Error used ->
    Error
      (Printf.sprintf "license limit reached for %s (%d used)"
         (Metering.action_name action) used)

(* Input values: binary with 0b prefix, else decimal (negative allowed). *)
let parse_bits ~width s =
  let s = String.trim s in
  if String.length s >= 2 && s.[0] = '0' && (s.[1] = 'b' || s.[1] = 'B') then begin
    let v = Bits.of_string s in
    if Bits.width v <> width then
      Error (Printf.sprintf "%d bits given for a %d-bit port" (Bits.width v) width)
    else Ok v
  end
  else
    match int_of_string_opt s with
    | Some v -> Ok (Bits.of_int ~width v)
    | None -> Error (Printf.sprintf "cannot parse value %s" s)

let do_build t () =
  match Ip_module.validate t.applet_ip t.params with
  | Error message -> Error message
  | Ok assignment ->
    t.params <- assignment;
    (match Catalog.elaborate t.applet_ip assignment with
     | Error e -> Error (Catalog.elaboration_error_to_string e)
     | Ok built ->
       let sim =
         if granted t Feature.Simulator_tool then begin
           let clock =
             Option.bind built.Ip_module.clock_port (fun name ->
               Option.map
                 (fun p -> p.Design.port_wire)
                 (Design.find_port built.Ip_module.design name))
           in
           let sim = Simulator.create ?clock built.Ip_module.design in
           if granted t Feature.Waveform_viewer then
             List.iter
               (fun p ->
                  Simulator.watch sim ~label:p.Design.port_name
                    p.Design.port_wire)
               (Design.ports built.Ip_module.design);
           Some sim
         end
         else None
       in
       t.state <- Some { built; assignment; sim; watermarked = false };
       let stats = Design.stats built.Ip_module.design in
       let lines =
         [ Printf.sprintf "built %s with %s" t.applet_ip.Ip_module.ip_name
             (String.concat ", "
                (List.map
                   (fun (n, v) ->
                      Printf.sprintf "%s=%s" n (Ip_module.param_to_string v))
                   assignment));
           Printf.sprintf "%d primitive instances, %d nets, latency %d cycle(s)"
             stats.Design.primitive_instances stats.Design.nets
             built.Ip_module.latency ]
         @ built.Ip_module.notes
       in
       Ok (String.concat "\n" lines))

let require_sim state k =
  match state.sim with
  | Some sim -> k sim
  | None -> Error "simulator not linked into this applet"

let exec t command =
  match command with
  | Help ->
    let lines =
      [ "commands: form, set <param> = <value>, build" ]
      @ (if granted t Feature.Estimator then [ "  estimate" ] else [])
      @ (if granted t Feature.Schematic_viewer then
           [ "  schematic [path], hierarchy" ]
         else [])
      @ (if granted t Feature.Layout_viewer then [ "  layout" ] else [])
      @ (if granted t Feature.Simulator_tool then
           [ "  input <port> = <value>, cycle <n>, reset, output <port>" ]
         else [])
      @ (if granted t Feature.Waveform_viewer then [ "  waveform" ] else [])
      @ (if granted t Feature.Netlister then
           [ Printf.sprintf "  netlist <%s>"
               (String.concat "|"
                  (List.map Format_kind.to_string
                     t.applet_license.License.formats)) ]
         else [])
      @ [ "  license, help" ]
    in
    Ok (String.concat "\n" lines)
  | Show_license ->
    Ok
      (Printf.sprintf "user %s, %s license\ntools: %s\nusage:\n%s" t.user
         (License.tier_name t.applet_license.License.tier)
         (String.concat ", " (List.map Feature.name (features t)))
         (Metering.report t.meter))
  | Show_form ->
    require t Feature.Generator_interface (fun () ->
      let current =
        List.map
          (fun (n, v) ->
             Printf.sprintf "  %s = %s" n (Ip_module.param_to_string v))
          t.params
      in
      Ok
        (Ip_module.form t.applet_ip
         ^ "current values:\n"
         ^ String.concat "\n" current))
  | Set_param (name, text) ->
    require t Feature.Generator_interface (fun () ->
      match Ip_module.parse_field t.applet_ip name text with
      | Error message -> Error message
      | Ok value ->
        t.params <- (name, value) :: List.remove_assoc name t.params;
        Ok (Printf.sprintf "%s = %s" name (Ip_module.param_to_string value)))
  | Build ->
    require t Feature.Generator_interface (fun () ->
      meter t Metering.Build (do_build t))
  | Estimate ->
    require t Feature.Estimator (fun () ->
      require_built t (fun state ->
        (* generators carry RLOCs, so estimate with placement-aware nets *)
        Ok
          (Estimate.to_string
             (Estimate.of_design ~use_placement:true
                state.built.Ip_module.design))))
  | View_schematic focus ->
    require t Feature.Schematic_viewer (fun () ->
      require_built t (fun state ->
        let design = state.built.Ip_module.design in
        match focus with
        | None -> Ok (Schematic.render (Design.root design))
        | Some path ->
          (match Jhdl_circuit.Cell.find_path (Design.root design) path with
           | Some cell -> Ok (Schematic.render cell)
           | None -> Error (Printf.sprintf "no cell at path %s" path))))
  | View_hierarchy ->
    require t Feature.Schematic_viewer (fun () ->
      require_built t (fun state ->
        Ok (Hierarchy.render_design state.built.Ip_module.design)))
  | View_layout ->
    require t Feature.Layout_viewer (fun () ->
      require_built t (fun state ->
        Ok (Floorplan.render (Design.root state.built.Ip_module.design))))
  | Set_input (port, text) ->
    require t Feature.Simulator_tool (fun () ->
      require_built t (fun state ->
        require_sim state (fun sim ->
          match Design.find_port state.built.Ip_module.design port with
          | None -> Error (Printf.sprintf "no port %s" port)
          | Some p when p.Design.port_dir = Types.Output ->
            Error (Printf.sprintf "%s is an output" port)
          | Some p ->
            (match
               parse_bits ~width:(Jhdl_circuit.Wire.width p.Design.port_wire)
                 text
             with
             | Error message -> Error message
             | Ok value ->
               Simulator.set_input sim port value;
               Ok (Printf.sprintf "%s <= %s" port (Bits.to_string value))))))
  | Cycle n ->
    require t Feature.Simulator_tool (fun () ->
      require_built t (fun state ->
        require_sim state (fun sim ->
          if n < 1 then Error "cycle count must be positive"
          else
            meter t Metering.Simulate (fun () ->
              Simulator.cycle ~n sim;
              Ok (Printf.sprintf "cycle -> %d" (Simulator.cycle_count sim))))))
  | Reset ->
    require t Feature.Simulator_tool (fun () ->
      require_built t (fun state ->
        require_sim state (fun sim ->
          Simulator.reset sim;
          Ok "reset")))
  | Get_output port ->
    require t Feature.Simulator_tool (fun () ->
      require_built t (fun state ->
        require_sim state (fun sim ->
          match Design.find_port state.built.Ip_module.design port with
          | None -> Error (Printf.sprintf "no port %s" port)
          | Some _ ->
            let v = Simulator.get_port sim port in
            Ok
              (Printf.sprintf "%s = %s (%s)" port (Bits.to_string v)
                 (Waveform.value_to_string ~radix:`Unsigned v)))))
  | View_waveform ->
    require t Feature.Waveform_viewer (fun () ->
      require_built t (fun state ->
        require_sim state (fun sim -> Ok (Waveform.render sim))))
  | Export_vcd ->
    require t Feature.Waveform_viewer (fun () ->
      require_built t (fun state ->
        require_sim state (fun sim -> Ok (Vcd.of_history sim))))
  | Self_test ->
    require t Feature.Simulator_tool (fun () ->
      require_built t (fun state ->
        require_sim state (fun sim ->
          match t.applet_ip.Ip_module.shipped_bench with
          | None -> Error "the vendor shipped no validation bench for this IP"
          | Some bench ->
            Simulator.reset sim;
            let report = Tb.run sim (bench state.assignment state.built) in
            Simulator.reset sim;
            Ok (Format.asprintf "@[<v>%a@]" Tb.pp_report report))))
  | Netlist format_name ->
    require t Feature.Netlister (fun () ->
      require_built t (fun state ->
        match Format_kind.of_string format_name with
        | None -> Error (Printf.sprintf "unknown format %s" format_name)
        | Some fmt ->
          if not (List.mem fmt t.applet_license.License.formats) then
            Error
              (Printf.sprintf "your license does not allow %s export"
                 (Format_kind.to_string fmt))
          else
            meter t Metering.Netlist_export (fun () ->
              let design = state.built.Ip_module.design in
              if t.applet_license.License.watermark && not state.watermarked
              then begin
                let _ =
                  Watermark.embed design ~vendor:t.applet_ip.Ip_module.vendor ()
                in
                state.watermarked <- true
              end;
              Ok (Format_kind.write fmt (Model.of_design design)))))

let run_script t commands =
  let buffer = Buffer.create 2048 in
  List.iter
    (fun command ->
       Buffer.add_string buffer ("> " ^ command_to_string command ^ "\n");
       (match exec t command with
        | Ok text -> Buffer.add_string buffer text
        | Error message -> Buffer.add_string buffer ("ERROR: " ^ message));
       Buffer.add_char buffer '\n')
    commands;
  Buffer.contents buffer
