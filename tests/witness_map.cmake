# Checks that the witness map in docs/ARCHITECTURE.md covers every array
# model, names no model that is gone, and cites only tests that exist.
#
#   cmake -DROOT=<source dir> -DTESTS=<sysdp_tests binary> -P witness_map.cmake
#
# A model is a `class Design*` or `class *Array` defined in
# src/arrays/*.hpp or src/andor/pipeline_array.hpp.  Each must have a row
# in the map's model table (a line starting "| `Name`" or "| `Name<").
# Every model-like name the map writes in backticks (`Name`, `Name<...>`,
# `Name::...`) must be defined by one of those headers; test ids such as
# `Design3.Foo` are not model names and are skipped.
#
# Every test id the map writes in backticks (`Suite.Name`, `Suite.*`, with
# an optional parameterised prefix such as `Grid/`) must match a test that
# `TESTS --gtest_list_tests` lists; a listed test's parameter suffix (`/0`)
# and typed-suite suffix (`Suite/0`) are ignored.
if(NOT ROOT OR NOT TESTS)
  message(FATAL_ERROR "witness_map: pass -DROOT=<source dir> "
                      "-DTESTS=<sysdp_tests binary>")
endif()
set(doc "${ROOT}/docs/ARCHITECTURE.md")
set(model_pattern "^(Design[A-Za-z0-9_]*|[A-Za-z0-9_]*Array)$")

file(GLOB headers "${ROOT}/src/arrays/*.hpp")
list(APPEND headers "${ROOT}/src/andor/pipeline_array.hpp")
set(models)
foreach(header IN LISTS headers)
  file(READ "${header}" text)
  # Definitions only: a forward or friend declaration ends in ';'.
  string(REGEX MATCHALL "class[ \t\r\n]+[A-Za-z0-9_]+[ \t\r\n]*[{:]" defs
         "${text}")
  foreach(def IN LISTS defs)
    string(REGEX REPLACE "^class[ \t\r\n]+([A-Za-z0-9_]+).*$" "\\1" name
           "${def}")
    if(name MATCHES "${model_pattern}")
      list(APPEND models "${name}")
      file(RELATIVE_PATH rel "${ROOT}" "${header}")
      set(where_${name} "${rel}")
    endif()
  endforeach()
endforeach()
if(NOT models)
  message(FATAL_ERROR "witness_map: no model classes found under ${ROOT}/src")
endif()

file(READ "${doc}" text)
string(FIND "${text}" "\n## Witness map\n" start)
if(start EQUAL -1)
  message(FATAL_ERROR "witness_map: docs/ARCHITECTURE.md has no "
                      "'## Witness map' section")
endif()
math(EXPR start "${start} + 1")
string(SUBSTRING "${text}" ${start} -1 map)
string(FIND "${map}" "\n## " end)
if(NOT end EQUAL -1)
  string(SUBSTRING "${map}" 0 ${end} map)
endif()

foreach(name IN LISTS models)
  if(NOT map MATCHES "\n\\| `${name}[`<]")
    message(FATAL_ERROR "witness_map: class ${name} (${where_${name}}) has "
                        "no row in the witness map's model table")
  endif()
endforeach()

string(REGEX MATCHALL "`[A-Za-z0-9_]+(`|<|::)" named "${map}")
foreach(token IN LISTS named)
  string(REGEX REPLACE "^`([A-Za-z0-9_]+).*$" "\\1" name "${token}")
  if(name MATCHES "${model_pattern}")
    list(FIND models "${name}" found)
    if(found EQUAL -1)
      message(FATAL_ERROR "witness_map: the witness map names ${name}, which "
                          "no header in src/arrays or "
                          "src/andor/pipeline_array.hpp defines")
    endif()
  endif()
endforeach()

# Test ids: "\n<id>\n" entries, each listed test under its full suite and,
# for a parameterised suite, without its prefix too.
execute_process(COMMAND "${TESTS}" --gtest_list_tests
                OUTPUT_VARIABLE listing RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "witness_map: ${TESTS} --gtest_list_tests failed")
endif()
string(REPLACE ";" "," listing "${listing}")
string(REPLACE "\n" ";" lines "${listing}")
set(ids "\n")
set(suite "")
foreach(line IN LISTS lines)
  if(line MATCHES "^([A-Za-z0-9_/]+)\\.( |$)")
    string(REGEX REPLACE "/[0-9]+$" "" suite "${CMAKE_MATCH_1}")
  elseif(suite AND line MATCHES "^  ([A-Za-z0-9_]+)")
    set(test "${CMAKE_MATCH_1}")
    string(APPEND ids "${suite}.${test}\n")
    if(suite MATCHES "/([A-Za-z0-9_]+)$")
      string(APPEND ids "${CMAKE_MATCH_1}.${test}\n")
    endif()
  endif()
endforeach()

string(REGEX MATCHALL
       "`([A-Z][A-Za-z0-9_]*/)?[A-Z][A-Za-z0-9_]*\\.([A-Z][A-Za-z0-9_]*|\\*)`"
       cited "${map}")
foreach(token IN LISTS cited)
  string(REGEX REPLACE "^`(.*)`$" "\\1" id "${token}")
  if(id MATCHES "^(.*)\\.\\*$")
    string(FIND "${ids}" "\n${CMAKE_MATCH_1}." found)
  else()
    string(FIND "${ids}" "\n${id}\n" found)
  endif()
  if(found EQUAL -1)
    message(FATAL_ERROR "witness_map: the witness map cites ${id}, which "
                        "matches no test in ${TESTS} --gtest_list_tests")
  endif()
endforeach()
