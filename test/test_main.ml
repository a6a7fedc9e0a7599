let () =
  Alcotest.run "jhdl-applets"
    [ ("logic", Test_logic.suite);
      ("metrics", Test_metrics.suite);
      ("circuit", Test_circuit.suite);
      ("sim", Test_sim.suite);
      ("snapshot", Test_snapshot.suite);
      ("netlist", Test_netlist.suite);
      ("golden", Test_golden.suite);
      ("estimate", Test_estimate.suite);
      ("modgen", Test_modgen.suite);
      ("cordic", Test_cordic.suite);
      ("dafir", Test_dafir.suite);
      ("testbench", Test_testbench.suite);
      ("misc-logic", Test_misc_logic.suite);
      ("placer", Test_placer.suite);
      ("lint", Test_lint.suite);
      ("equiv", Test_equiv.suite);
      ("analysis", Test_analysis.suite);
      ("differential", Test_differential.suite);
      ("fuzz", Test_fuzz.suite);
      ("viewer", Test_viewer.suite);
      ("bundle", Test_bundle.suite);
      ("security", Test_security.suite);
      ("applet", Test_applet.suite);
      ("cache", Test_cache.suite);
      ("webserver", Test_webserver.suite);
      ("resilience", Test_resilience.suite);
      ("netproto", Test_netproto.suite);
      ("extensions", Test_extensions.suite);
      ("integration", Test_integration.suite);
      ("scale", Test_scale.suite) ]
