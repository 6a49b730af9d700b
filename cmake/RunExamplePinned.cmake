# Pins one program's output: it must exit 0 AND print exactly the bytes in
# EXPECTED_FILE on stdout. (A plain PASS_REGULAR_EXPRESSION would ignore the
# exit code and accept drift, so both checks are done explicitly here.)
# EXAMPLE_ARGS, optional, holds the program's arguments separated by spaces.
if(NOT DEFINED EXAMPLE_BIN OR NOT DEFINED EXPECTED_FILE)
  message(FATAL_ERROR "EXAMPLE_BIN and EXPECTED_FILE must be set")
endif()
separate_arguments(example_args UNIX_COMMAND "${EXAMPLE_ARGS}")

execute_process(
  COMMAND ${EXAMPLE_BIN} ${example_args}
  RESULT_VARIABLE example_rc
  OUTPUT_VARIABLE example_out
  ERROR_VARIABLE example_err)

if(NOT example_rc EQUAL 0)
  message(FATAL_ERROR
    "${EXAMPLE_BIN} exited with ${example_rc}\nstdout:\n${example_out}\n"
    "stderr:\n${example_err}")
endif()

file(READ ${EXPECTED_FILE} expected_out)
if(NOT example_out STREQUAL expected_out)
  message(FATAL_ERROR
    "${EXAMPLE_BIN} stdout differs from ${EXPECTED_FILE}\n"
    "--- expected ---\n${expected_out}\n--- actual ---\n${example_out}")
endif()
