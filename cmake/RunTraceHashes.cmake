# Pins rxl_trace outputs by their SHA-256. Every line of EXPECTED_FILE that
# is not blank or a '#' comment reads "<sha256>  <arguments>": TRACE_BIN run
# with those arguments must exit 0 and print exactly the bytes whose SHA-256
# is <sha256>. All mismatches are reported together, each with its actual
# hash, so one run shows every output that moved.
if(NOT DEFINED TRACE_BIN OR NOT DEFINED EXPECTED_FILE)
  message(FATAL_ERROR "TRACE_BIN and EXPECTED_FILE must be set")
endif()

file(STRINGS ${EXPECTED_FILE} lines)
set(checked 0)
set(failures "")
foreach(line IN LISTS lines)
  if(line STREQUAL "" OR line MATCHES "^#")
    continue()
  endif()
  if(NOT line MATCHES "^([0-9a-f]+)  (.+)$")
    message(FATAL_ERROR "malformed line in ${EXPECTED_FILE}: ${line}")
  endif()
  set(expected_hash ${CMAKE_MATCH_1})
  set(arguments ${CMAKE_MATCH_2})
  separate_arguments(argument_list UNIX_COMMAND "${arguments}")
  execute_process(
    COMMAND ${TRACE_BIN} ${argument_list}
    RESULT_VARIABLE trace_rc
    OUTPUT_VARIABLE trace_out
    ERROR_VARIABLE trace_err)
  if(NOT trace_rc EQUAL 0)
    string(APPEND failures
      "\n${arguments}: exited with ${trace_rc}: ${trace_err}")
  else()
    string(SHA256 actual_hash "${trace_out}")
    if(NOT actual_hash STREQUAL expected_hash)
      string(APPEND failures "\n${arguments}: stdout hashes to ${actual_hash}")
    endif()
  endif()
  math(EXPR checked "${checked} + 1")
endforeach()

if(checked EQUAL 0)
  message(FATAL_ERROR "${EXPECTED_FILE} pins no output")
endif()
if(NOT failures STREQUAL "")
  message(FATAL_ERROR
    "rxl_trace outputs differ from ${EXPECTED_FILE}:${failures}")
endif()
message(STATUS "${checked} rxl_trace outputs match ${EXPECTED_FILE}")
