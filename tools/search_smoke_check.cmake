# Search smoke: run arch_search with --json, then check the report's
# fixed-value keys that the search-gate CI job reads, so a renamed key fails
# here on every PR and not only in that job.  Exit 0 from arch_search
# already requires the target reached AND the cold-flat verify to pass.
execute_process(COMMAND ${SEARCH} --cache-dir ${WORK}/search-smoke-store
                        --rounds 1 --beam 1 --candidates 2 --target-sff 0.96
                        --json ${WORK}/search_smoke.json
                RESULT_VARIABLE rc1 OUTPUT_QUIET)
if(NOT rc1 EQUAL 0)
  message(FATAL_ERROR "arch_search failed (rc ${rc1})")
endif()

file(WRITE ${WORK}/search_smoke.spec.json
     "{\"budget\": 0, \"search\": {\"target_reached\": true,"
     " \"verified_identical\": true, \"budget_exhausted\": false}}\n")
execute_process(COMMAND ${GATE} check ${WORK}/search_smoke.spec.json
                        ${WORK}/search_smoke.json
                RESULT_VARIABLE rc2)
if(NOT rc2 EQUAL 0)
  message(FATAL_ERROR "search report: a key the search gate reads is "
                      "missing or wrong (rc ${rc2})")
endif()
