# CI metrics gate: run the end-to-end SIL3 flow with --json, then diff the
# emitted safety report against the checked-in golden (reports/
# memsys_sil3.golden.json).  The golden is a subset spec — strings exact,
# numbers at rtol 1e-9 — regenerate it with scripts/update_golden.sh after
# an intentional metrics change.
#
# Optional: ARGS, extra flow arguments in one space-separated string (e.g.
# "--engine serial"), and NAME, the base name of the files this run writes
# under WORK (default memsys_sil3), so variants can run in parallel.
if(NOT DEFINED NAME)
  set(NAME memsys_sil3)
endif()
separate_arguments(extra_args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${FLOW} ${extra_args} --json ${WORK}/${NAME}.json
                RESULT_VARIABLE rc1 OUTPUT_QUIET)
if(NOT rc1 EQUAL 0)
  message(FATAL_ERROR "memsys_sil3_flow ${ARGS} failed (rc ${rc1})")
endif()
execute_process(COMMAND ${GATE} check ${GOLDEN} ${WORK}/${NAME}.json
                RESULT_VARIABLE rc2)
if(NOT rc2 EQUAL 0)
  message(FATAL_ERROR
          "metrics gate: report drifted from the golden (rc ${rc2}); if the "
          "change is intentional, run scripts/update_golden.sh")
endif()

# Self-test: the gate must REJECT a perturbed report, otherwise it guards
# nothing.  Downgrade the SIL verdict in a copy of the golden and expect a
# non-zero exit.
file(READ ${GOLDEN} golden_text)
string(REPLACE "SIL3" "SIL2" perturbed_text "${golden_text}")
if(perturbed_text STREQUAL golden_text)
  message(FATAL_ERROR "metrics gate self-test: golden lacks a SIL3 verdict")
endif()
file(WRITE ${WORK}/${NAME}.perturbed.json "${perturbed_text}")
execute_process(COMMAND ${GATE} check ${WORK}/${NAME}.perturbed.json
                ${WORK}/${NAME}.json
                RESULT_VARIABLE rc3 OUTPUT_QUIET ERROR_QUIET)
if(rc3 EQUAL 0)
  message(FATAL_ERROR "metrics gate self-test: perturbed golden not rejected")
endif()
