# Runs one program and byte-compares its standard output with a committed
# golden file. Invoked by ctest as
#   cmake -DPROGRAM=<exe> [-DARGS=<a;b>] -DGOLDEN=<file> -DACTUAL=<file>
#         -P compare_output.cmake
# The output is kept in ACTUAL, so a failure can be inspected with
# `diff GOLDEN ACTUAL`. To re-record a golden after a justified output
# change, run the program from the repository root and redirect its stdout
# over the golden file.

execute_process(
  COMMAND ${PROGRAM} ${ARGS}
  OUTPUT_FILE ${ACTUAL}
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} exited with status ${status}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${ACTUAL}
  RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "output differs from the golden file:\n"
                      "  diff ${GOLDEN} ${ACTUAL}")
endif()
