# Runs one command line that must succeed and print every regular
# expression in the list MATCHES.
#
#   cmake "-DMATCHES=<regex>;<regex>..." -P expect_output.cmake -- <program> [args...]
#
# Used by the output tests in examples/CMakeLists.txt.  A run that takes
# longer than 5 s is killed and counts as a failure.
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
  message(FATAL_ERROR "expect_output: no command after --")
endif()

execute_process(COMMAND ${cmd}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  TIMEOUT 5)
if(NOT "${rc}" STREQUAL "0")
  message(FATAL_ERROR "expected exit 0, got '${rc}'\n${out}${err}")
endif()
foreach(match IN LISTS MATCHES)
  if(NOT "${out}" MATCHES "${match}")
    message(FATAL_ERROR "output does not match '${match}'\n${out}${err}")
  endif()
endforeach()
