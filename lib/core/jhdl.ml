(** Facade: one [open Jhdl] exposes the whole system under short names.

    Layering, bottom up:
    - {!Bit}, {!Bits}, {!Lut_init}: four-valued logic values.
    - {!Wire}, {!Cell}, {!Design}, {!Prim}, {!Types}: the circuit data
      structure (structural netlists built JHDL-style, by construction).
    - {!Virtex}: the technology library (primitives, area/delay models).
    - {!Simulator}: cycle-based simulation, the one-lane face of the
      bit-plane kernel {!Simulator.Batch}, with {!Reference} as the
      retained golden-model interpreter.
    - {!Model}, {!Edif}, {!Vhdl}, {!Verilog}, {!Format_kind}, {!Ident}:
      netlist interchange.
    - {!Estimate}: area and static-timing estimation.
    - {!Lint}, {!Const_prop}, {!Levelize}: the rule-based netlist lint
      engine and the analyses it shares with the simulators.
    - {!Bdd}, {!Cone}, {!Absint}, {!Deep_lint}: the formal analysis
      engine — hash-consed BDDs, dual-rail cone extraction, the
      constancy/observability abstract interpreter and the
      proof-backed lint rules it powers ([lint_tool --deep]).
    - {!Adders}, {!Kcm}, {!Fir}, {!Counter}, {!Datapath}, {!Multiplier},
      {!Modgen_util}: module generators.
    - {!Hierarchy}, {!Schematic}, {!Floorplan}, {!Waveform}, {!Vcd}:
      viewers.
    - {!Class_file}, {!Jar}, {!Partition}, {!Download}: delivery bundles.
    - {!Obfuscator}, {!Crypto}, {!Watermark}, {!Metering}: IP protection.
    - {!Cache_store}, {!Delivery_cache}: the content-addressed artifact
      cache for the delivery path (collision-safe 64-bit signatures,
      verify-on-hit, closed LRU accounting).
    - {!Feature}, {!License}, {!Ip_module}, {!Applet}, {!Catalog}: the IP
      delivery applets.
    - {!Server}: the vendor web server.
    - {!Admission}, {!Breaker}, {!Chaos}: overload control — admission
      queues with deadlines and tier-aware shedding, circuit breakers,
      and the chaos scenario scheduler that audits recovery.
    - {!Prng}, {!Fault}: seeded fault injection for lossy consumer links.
    - {!Network}, {!Protocol}, {!Endpoint}, {!Cosim}: black-box
      co-simulation.
    - {!Fuzz}, {!Fuzz_recipe}, {!Fuzz_gen}, {!Fuzz_oracle},
      {!Fuzz_reduce}: the seeded netlist fuzzer and its differential
      validation oracles. *)

module Bit = Jhdl_logic.Bit
module Bits = Jhdl_logic.Bits
module Lut_init = Jhdl_logic.Lut_init
module Types = Jhdl_circuit.Types
module Prim = Jhdl_circuit.Prim
module Wire = Jhdl_circuit.Wire
module Cell = Jhdl_circuit.Cell
module Design = Jhdl_circuit.Design
module Virtex = Jhdl_virtex.Virtex
module Simulator = Jhdl_sim.Simulator
module Reference = Jhdl_sim.Reference
module Snapshot = Jhdl_sim.Snapshot
module Testbench = Jhdl_sim.Testbench
module Model = Jhdl_netlist.Model
module Ident = Jhdl_netlist.Ident
module Edif = Jhdl_netlist.Edif
module Vhdl = Jhdl_netlist.Vhdl
module Verilog = Jhdl_netlist.Verilog
module Format_kind = Jhdl_netlist.Format_kind
module Xnf = Jhdl_netlist.Xnf
module Edif_reader = Jhdl_netlist.Edif_reader
module Estimate = Jhdl_estimate.Estimate
module Levelize = Jhdl_circuit.Levelize
module Lint = Jhdl_lint.Lint
module Const_prop = Jhdl_lint.Const_prop
module Bdd = Jhdl_analysis.Bdd
module Cone = Jhdl_analysis.Cone
module Absint = Jhdl_analysis.Absint
module Deep_lint = Jhdl_analysis.Deep_lint
module Adders = Jhdl_modgen.Adders
module Kcm = Jhdl_modgen.Kcm
module Fir = Jhdl_modgen.Fir
module Dafir = Jhdl_modgen.Dafir
module Cordic = Jhdl_modgen.Cordic
module Counter = Jhdl_modgen.Counter
module Datapath = Jhdl_modgen.Datapath
module Multiplier = Jhdl_modgen.Multiplier
module Misc_logic = Jhdl_modgen.Misc_logic
module Modgen_util = Jhdl_modgen.Util
module Hierarchy = Jhdl_viewer.Hierarchy
module Schematic = Jhdl_viewer.Schematic
module Floorplan = Jhdl_viewer.Floorplan
module Waveform = Jhdl_viewer.Waveform
module Vcd = Jhdl_viewer.Vcd
module Class_file = Jhdl_bundle.Class_file
module Jar = Jhdl_bundle.Jar
module Partition = Jhdl_bundle.Partition
module Download = Jhdl_bundle.Download
module Placer = Jhdl_place.Placer
module Equiv = Jhdl_verify.Equiv
module Router = Jhdl_place.Router
module Config_mem = Jhdl_bitstream.Config_mem
module Jbits = Jhdl_bitstream.Jbits
module Obfuscator = Jhdl_security.Obfuscator
module Crypto = Jhdl_security.Crypto
module Watermark = Jhdl_security.Watermark
module Metering = Jhdl_security.Metering
module Cache_store = Jhdl_cache.Store
module Delivery_cache = Jhdl_cache.Delivery
module Feature = Jhdl_applet.Feature
module License = Jhdl_applet.License
module Ip_module = Jhdl_applet.Ip_module
module Applet = Jhdl_applet.Applet
module Catalog = Jhdl_applet.Catalog
module Suite = Jhdl_applet.Suite
module Server = Jhdl_webserver.Server
module Secure_channel = Jhdl_webserver.Secure_channel
module Session_manager = Jhdl_webserver.Session_manager
module Admission = Jhdl_resilience.Admission
module Breaker = Jhdl_resilience.Breaker
module Chaos = Jhdl_chaos.Chaos
module Prng = Jhdl_faults.Prng
module Fault = Jhdl_faults.Fault
module Network = Jhdl_netproto.Network
module Protocol = Jhdl_netproto.Protocol
module Endpoint = Jhdl_netproto.Endpoint
module Cosim = Jhdl_netproto.Cosim
module Verilog_tb = Jhdl_netproto.Verilog_tb
module Metrics = Jhdl_metrics.Metrics
module Crc16 = Jhdl_logic.Crc16
module Fuzz = Jhdl_fuzz.Fuzz
module Fuzz_recipe = Jhdl_fuzz.Recipe
module Fuzz_gen = Jhdl_fuzz.Gen
module Fuzz_stimulus = Jhdl_fuzz.Stimulus
module Fuzz_oracle = Jhdl_fuzz.Oracle
module Fuzz_reduce = Jhdl_fuzz.Reduce
