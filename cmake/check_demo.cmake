# Runs one demo for ctest: passes only when the demo exits 0 and its
# standard output matches PATTERN. (ctest's PASS_REGULAR_EXPRESSION alone
# ignores the exit code, so a demo that printed its pinned lines and then
# failed or crashed would pass.)
#
#   cmake -DDEMO=<executable> [-DDEMO_ARGS=<args>] -DPATTERN=<regex>
#         -P check_demo.cmake
execute_process(COMMAND ${DEMO} ${DEMO_ARGS}
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                RESULT_VARIABLE status)
message("${out}${err}")
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${DEMO} exited with status ${status}")
endif()
if(NOT out MATCHES "${PATTERN}")
  message(FATAL_ERROR "${DEMO} output does not match: ${PATTERN}")
endif()
