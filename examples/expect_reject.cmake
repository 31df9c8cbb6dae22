# Runs one command line that the tool must refuse: it has to exit nonzero
# and print a message matching the regular expression MATCH.
#
#   cmake -DMATCH=<regex> -P expect_reject.cmake -- <program> [args...]
#
# Used by the command-line rejection tests in examples/CMakeLists.txt.  A
# run that takes longer than 5 s is killed and counts as a failure.
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
  message(FATAL_ERROR "expect_reject: no command after --")
endif()

execute_process(COMMAND ${cmd}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  TIMEOUT 5)
if("${rc}" STREQUAL "0")
  message(FATAL_ERROR "expected a nonzero exit, got 0\n${out}${err}")
endif()
if(NOT "${out}${err}" MATCHES "${MATCH}")
  message(FATAL_ERROR
    "exit '${rc}', but no message matches '${MATCH}':\n${out}${err}")
endif()
