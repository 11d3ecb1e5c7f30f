# Round-trip smoke test for the netlist_tool CLI: emit the v2 reference
# design, then run stats / zones / fmea over the emitted .snl file; bad
# input exits 2.
execute_process(COMMAND ${TOOL} emit v2 ${WORK}/frmem_v2.snl RESULT_VARIABLE rc1)
execute_process(COMMAND ${TOOL} stats ${WORK}/frmem_v2.snl RESULT_VARIABLE rc2
                OUTPUT_VARIABLE stats)
execute_process(COMMAND ${TOOL} zones ${WORK}/frmem_v2.snl RESULT_VARIABLE rc3
                OUTPUT_QUIET)
execute_process(COMMAND ${TOOL} fmea ${WORK}/frmem_v2.snl alarm_
                RESULT_VARIABLE rc4 OUTPUT_VARIABLE fmea)
if(NOT rc1 EQUAL 0 OR NOT rc2 EQUAL 0 OR NOT rc3 EQUAL 0 OR NOT rc4 EQUAL 0)
  message(FATAL_ERROR "netlist_tool failed: ${rc1} ${rc2} ${rc3} ${rc4}")
endif()
if(NOT stats MATCHES "flip-flops")
  message(FATAL_ERROR "stats output missing expected fields")
endif()
if(NOT fmea MATCHES "SFF")
  message(FATAL_ERROR "fmea output missing the SFF verdict")
endif()
execute_process(COMMAND ${TOOL} srs ${WORK}/frmem_v2.snl alarm_
                RESULT_VARIABLE rc5 OUTPUT_VARIABLE srs)
if(NOT rc5 EQUAL 0 OR NOT srs MATCHES "Safety Requirements Specification")
  message(FATAL_ERROR "srs generation failed")
endif()

# Bad input exits 2: an unknown design version, an output that cannot be
# opened, a missing or malformed .snl, and an .snl the reader's design-rule
# check refuses (an undriven net).
function(expect_exit2 what)
  execute_process(COMMAND ${TOOL} ${ARGN} RESULT_VARIABLE rc
                  OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "netlist_tool ${what}: exit ${rc}, expected 2")
  endif()
endfunction()
expect_exit2("emit v3" emit v3 ${WORK}/frmem_v3.snl)
if(EXISTS ${WORK}/frmem_v3.snl)
  message(FATAL_ERROR "netlist_tool emit v3 wrote a design")
endif()
expect_exit2("emit to a missing directory"
             emit v2 ${WORK}/no-such-dir/frmem_v2.snl)
expect_exit2("stats on a missing file" stats ${WORK}/no-such-file.snl)
file(WRITE ${WORK}/malformed.snl "design bad\nno-such-statement x\n")
expect_exit2("stats on a malformed file" stats ${WORK}/malformed.snl)
file(WRITE ${WORK}/undriven.snl
     "design undriven\ninput a\nnet floating\noutput o floating\n")
expect_exit2("stats on an undriven net" stats ${WORK}/undriven.snl)
