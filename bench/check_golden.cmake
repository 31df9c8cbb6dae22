# Runs one paper bench program with its google-benchmark pass off and
# checks that its stdout, the paper's tables, equals the committed golden.
#
#   cmake -DBENCH=<program> -DGOLDEN=<golden file> -P check_golden.cmake
#
# A golden moves only in a commit that says why the table moved.
cmake_policy(VERSION 3.16)
if(NOT BENCH OR NOT GOLDEN)
  message(FATAL_ERROR "check_golden: pass -DBENCH=<program> "
                      "-DGOLDEN=<golden file>")
endif()
execute_process(COMMAND "${BENCH}" "--benchmark_filter=^$"
                OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "check_golden: ${BENCH} exited with ${rc}:\n${err}")
endif()
file(READ "${GOLDEN}" golden)
if(out STREQUAL golden)
  return()
endif()
# Name the first line that differs.
string(REPLACE ";" "," out "${out}")
string(REPLACE ";" "," golden "${golden}")
string(REPLACE "\n" ";" got_lines "${out}")
string(REPLACE "\n" ";" want_lines "${golden}")
list(LENGTH got_lines got_n)
list(LENGTH want_lines want_n)
set(line 0)
while(line LESS got_n AND line LESS want_n)
  list(GET got_lines ${line} got)
  list(GET want_lines ${line} want)
  if(NOT got STREQUAL want)
    break()
  endif()
  math(EXPR line "${line} + 1")
endwhile()
set(got "(end of output)")
set(want "(end of golden)")
if(line LESS got_n)
  list(GET got_lines ${line} got)
endif()
if(line LESS want_n)
  list(GET want_lines ${line} want)
endif()
math(EXPR lineno "${line} + 1")
message(FATAL_ERROR "check_golden: ${BENCH} differs from ${GOLDEN} at "
                    "line ${lineno}:\n  golden: ${want}\n  output: ${got}")
