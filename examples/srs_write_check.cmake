# Drives memsys_sil3_flow where its SRS cannot be written (a directory named
# frmem_v2_srs.md occupies the path) and asserts the flow exits 2 with a
# diagnostic instead of reporting that it wrote the document.
#
#   cmake -DTOOL=<memsys_sil3_flow binary> -DWORK=<scratch dir> \
#         -P srs_write_check.cmake

set(dir ${WORK}/srs_blocked)
file(REMOVE_RECURSE ${dir})
file(MAKE_DIRECTORY ${dir}/frmem_v2_srs.md)
execute_process(COMMAND ${TOOL} WORKING_DIRECTORY ${dir}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "unwritable SRS: exit ${rc}, expected 2")
endif()
if(NOT err MATCHES "frmem_v2_srs.md")
  message(FATAL_ERROR "unwritable SRS: no diagnostic on stderr (got '${err}')")
endif()
if(out MATCHES "wrote frmem_v2_srs.md")
  message(FATAL_ERROR "unwritable SRS: the flow still reports writing it")
endif()
message(STATUS "unwritable SRS rejected with exit 2")
