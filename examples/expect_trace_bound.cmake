# Runs one sysdp_trace command line that must succeed and write a trace
# file no larger than MAX_BYTES whose text matches the regular expression
# MATCH.
#
#   cmake -DTRACE=<file> -DMAX_BYTES=<n> -DMATCH=<regex>
#         -P expect_trace_bound.cmake -- <program> [args...]
#
# Used by the bounded-trace tests in examples/CMakeLists.txt.  A run that
# takes longer than 20 s is killed and counts as a failure.
set(cmd)
set(seen_dashes FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(seen_dashes)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(seen_dashes TRUE)
  endif()
endforeach()
if(NOT cmd)
  message(FATAL_ERROR "expect_trace_bound: no command after --")
endif()

file(REMOVE "${TRACE}")
execute_process(COMMAND ${cmd}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  TIMEOUT 20)
if(NOT "${rc}" STREQUAL "0")
  message(FATAL_ERROR "expected exit 0, got '${rc}'\n${out}${err}")
endif()
if(NOT EXISTS "${TRACE}")
  message(FATAL_ERROR "no trace written at ${TRACE}\n${out}${err}")
endif()
file(SIZE "${TRACE}" size)
if(size GREATER MAX_BYTES)
  message(FATAL_ERROR "${TRACE} is ${size} bytes, over the ${MAX_BYTES} bound")
endif()
file(READ "${TRACE}" text)
if(NOT text MATCHES "${MATCH}")
  message(FATAL_ERROR "${TRACE} (${size} bytes) does not match '${MATCH}'")
endif()
