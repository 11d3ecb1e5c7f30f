# Incremental-flow gate: run the SIL3 flow twice on the same v1+wbuf-parity
# edit — once cold into a fresh artifact store, once as a delta on a store
# warmed with the v1 baseline — and require the two JSON reports to agree at
# rtol 1e-9 after stripping the volatile sections (timings, cache counters,
# delta statistics).  The warm run must also stay under the 30 % re-simulation
# budget, which is the acceptance bound for a single architectural edit.
# Both stores must hold nothing but campaign artifacts and head slots.
file(REMOVE_RECURSE ${WORK}/inc_gate_cold ${WORK}/inc_gate_warm)

execute_process(COMMAND ${FLOW} --cache-dir ${WORK}/inc_gate_cold
                        --edit wbuf-parity --json ${WORK}/inc_cold.json
                RESULT_VARIABLE rc1 OUTPUT_QUIET)
if(NOT rc1 EQUAL 0)
  message(FATAL_ERROR "cold incremental flow failed (rc ${rc1})")
endif()

execute_process(COMMAND ${FLOW} --cache-dir ${WORK}/inc_gate_warm --edit none
                RESULT_VARIABLE rc2 OUTPUT_QUIET)
if(NOT rc2 EQUAL 0)
  message(FATAL_ERROR "v1 store-warming flow failed (rc ${rc2})")
endif()

execute_process(COMMAND ${FLOW} --cache-dir ${WORK}/inc_gate_warm
                        --edit wbuf-parity --max-resim 0.30
                        --json ${WORK}/inc_warm.json
                RESULT_VARIABLE rc3 OUTPUT_QUIET)
if(NOT rc3 EQUAL 0)
  message(FATAL_ERROR
          "warm one-edit delta flow failed (rc ${rc3}); rc 3 means the "
          "campaign re-simulated more than 30 % of the fault list")
endif()

# The store keeps campaigns and heads only: the analytic stages (compile,
# zones, sheet) always run in process and leave nothing behind.
foreach(store inc_gate_cold inc_gate_warm)
  file(GLOB stored RELATIVE ${WORK}/${store} ${WORK}/${store}/*)
  if(NOT stored)
    message(FATAL_ERROR "${store} holds no artifacts")
  endif()
  foreach(f ${stored})
    if(NOT f MATCHES "^(campaign|head)-.*\\.json$")
      message(FATAL_ERROR "${store} holds ${f}: only campaign-*.json and "
                          "head-*.json belong in the artifact store")
    endif()
  endforeach()
endforeach()

# Strip what legitimately differs between a cold and a warm run: stage
# timings, store statistics, delta bookkeeping, execution counters and
# process telemetry.  Everything left — verdicts, SFF/DC, campaign outcome
# metrics, coverage — must be bit-identical.
set(volatile stages store execution delta full_hit delta_run telemetry)
execute_process(COMMAND ${GATE} strip ${WORK}/inc_cold.json
                        ${WORK}/inc_cold.stripped.json ${volatile}
                RESULT_VARIABLE rc4)
execute_process(COMMAND ${GATE} strip ${WORK}/inc_warm.json
                        ${WORK}/inc_warm.stripped.json ${volatile}
                RESULT_VARIABLE rc5)
if(NOT rc4 EQUAL 0 OR NOT rc5 EQUAL 0)
  message(FATAL_ERROR "report_gate strip failed (rc ${rc4}/${rc5})")
endif()

execute_process(COMMAND ${GATE} check ${WORK}/inc_cold.stripped.json
                        ${WORK}/inc_warm.stripped.json 1e-9
                RESULT_VARIABLE rc6)
if(NOT rc6 EQUAL 0)
  message(FATAL_ERROR "warm delta report drifted from the cold run (rc ${rc6})")
endif()
execute_process(COMMAND ${GATE} check ${WORK}/inc_warm.stripped.json
                        ${WORK}/inc_cold.stripped.json 1e-9
                RESULT_VARIABLE rc7)
if(NOT rc7 EQUAL 0)
  message(FATAL_ERROR "cold report drifted from the warm delta run (rc ${rc7})")
endif()
