# Runs alpc with observability enabled and validates the artifacts:
#  * both runs succeed and the stats JSON carries the schema version,
#  * the counters section is byte-identical between --jobs 1 and
#    --jobs 4 (the determinism contract; gauges and timings are exempt),
#  * the Chrome trace contains a span for every pipeline stage.
#
# Variables: ALPC (binary), INPUT (.alp file), WORKDIR (scratch dir).
#
# Pin mode, when DEP_STATS is set: one run with FLAGS (;-list) must exit
# EXIT, and its dep.* counters plus the dep.fm_elimination_steps gauge
# must equal DEP_STATS, a ;-list of name=value entries in file order.
# PIN names the run's stats file under WORKDIR.

if(DEFINED DEP_STATS)
  set(OUT ${WORKDIR}/${PIN}_stats.json)
  execute_process(
    COMMAND ${ALPC} ${INPUT} ${FLAGS} --stats=${OUT}
    RESULT_VARIABLE RC OUTPUT_QUIET ERROR_QUIET)
  if(NOT RC EQUAL EXIT)
    message(FATAL_ERROR "alpc exited ${RC}, expected ${EXIT}, on ${INPUT}")
  endif()
  file(READ ${OUT} STATS)
  string(REGEX MATCHALL "\"dep\\.[a-z0-9_.]+\": [^,\n]*" ENTRIES "${STATS}")
  set(GOT "")
  foreach(E IN LISTS ENTRIES)
    if(E MATCHES "^\"(dep\\.[a-z0-9_.]+)\": (.*)$")
      set(ENTRY "${CMAKE_MATCH_1}=${CMAKE_MATCH_2}")
      if(NOT ENTRY MATCHES "^dep\\.cache\\.raw_")
        list(APPEND GOT "${ENTRY}")
      endif()
    endif()
  endforeach()
  if(NOT GOT STREQUAL DEP_STATS)
    message(FATAL_ERROR
      "dep stats of alpc ${FLAGS} on ${INPUT} changed\n"
      "--- actual ---\n${GOT}\n--- expected ---\n${DEP_STATS}")
  endif()
  message(STATUS "dep counters and elimination-step gauge match on ${INPUT}")
  return()
endif()

get_filename_component(stem ${INPUT} NAME_WE)
set(S1 ${WORKDIR}/${stem}_stats_j1.json)
set(S4 ${WORKDIR}/${stem}_stats_j4.json)
set(T1 ${WORKDIR}/${stem}_trace_j1.json)

execute_process(
  COMMAND ${ALPC} ${INPUT} --spmd --jobs 1 --trace=${T1} --stats=${S1}
  RESULT_VARIABLE RC1 OUTPUT_QUIET ERROR_VARIABLE ERR1)
execute_process(
  COMMAND ${ALPC} ${INPUT} --spmd --jobs 4 --stats=${S4}
  RESULT_VARIABLE RC4 OUTPUT_QUIET ERROR_QUIET)
if(NOT RC1 EQUAL 0)
  message(FATAL_ERROR "alpc --jobs 1 failed (${RC1}) on ${INPUT}:\n${ERR1}")
endif()
if(NOT RC4 EQUAL 0)
  message(FATAL_ERROR "alpc --jobs 4 failed (${RC4}) on ${INPUT}")
endif()

file(READ ${S1} STATS1)
file(READ ${S4} STATS4)
if(NOT STATS1 MATCHES "\"schema_version\": 2")
  message(FATAL_ERROR "stats JSON lacks schema_version 2:\n${STATS1}")
endif()

string(REGEX MATCH "\"counters\": {[^}]*}" COUNTERS1 "${STATS1}")
string(REGEX MATCH "\"counters\": {[^}]*}" COUNTERS4 "${STATS4}")
if(COUNTERS1 STREQUAL "")
  message(FATAL_ERROR "no counters section in stats JSON:\n${STATS1}")
endif()
if(NOT COUNTERS1 STREQUAL COUNTERS4)
  message(FATAL_ERROR
    "counters differ between --jobs 1 and --jobs 4 on ${INPUT}:\n"
    "--- jobs=1 ---\n${COUNTERS1}\n--- jobs=4 ---\n${COUNTERS4}")
endif()

file(READ ${T1} TRACE1)
foreach(span
    frontend.compile driver.decompose driver.local_phase
    local.canonicalize driver.dynamic_decomposition dynamic.initial_solves
    partition.solve orient.solve driver.component codegen.emit_spmd)
  if(NOT TRACE1 MATCHES "\"${span}\"")
    message(FATAL_ERROR "trace is missing a '${span}' span on ${INPUT}")
  endif()
endforeach()

message(STATUS
  "stats counters byte-identical across jobs; trace has all stage spans")
