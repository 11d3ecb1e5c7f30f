# Writes a document nested 100 000 arrays deep and checks that report_gate
# rejects it like any other malformed input: exit 2 with a diagnostic, not
# a crash of the parser's recursion on a signal.
#
#   cmake -DGATE=<report_gate> -DWORK=<scratch dir> -P report_gate_deep_nesting.cmake
string(REPEAT "[" 100000 open)
string(REPEAT "]" 100000 close)
file(WRITE ${WORK}/deep_nesting.json "${open}${close}")
execute_process(COMMAND ${GATE} check ${WORK}/deep_nesting.json
                        ${WORK}/deep_nesting.json
                RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "report_gate on a 100000-deep document: exit '${rc}', "
                      "want 2 (stderr: ${err})")
endif()
