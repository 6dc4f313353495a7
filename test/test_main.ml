let () =
  Alcotest.run "blockstm"
    [
      ("kernel", Test_kernel.suite);
      ("mvmemory", Test_mvmemory.suite);
      ("scheduler", Test_scheduler.suite);
      ("block_stm", Test_block_stm.suite);
      ("baselines", Test_baselines.suite);
      ("storage", Test_storage.suite);
      ("workload", Test_workload.suite);
      ("minimove", Test_minimove.suite);
      ("simexec", Test_simexec.suite);
      ("virtual_exec", Test_virtual_exec.suite);
      ("stats", Test_stats.suite);
      ("obs", Test_obs.suite);
      ("stress", Test_stress.suite);
      ("scaling_stress", Test_scaling_stress.suite);
      ("chain", Test_chain.suite);
      ("pipeline", Test_pipeline.suite);
      ("merkle", Test_merkle.suite);
      ("delta", Test_delta.suite);
      ("properties", Test_props.suite);
      ("vm_diff", Test_vm_diff.suite);
      ("access", Test_access.suite);
      ("lanes", Test_lanes.suite);
    ]
