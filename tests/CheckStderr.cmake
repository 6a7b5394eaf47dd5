# Runs alpc on one input and requires an exact exit code and byte-exact
# stderr: the CLI's failure reports are part of its contract.
#
# Variables: ALPC (binary), INPUT (.alp file), FLAGS (;-list of flags),
# EXIT (expected exit code), STDERR (expected stderr bytes).

execute_process(
  COMMAND ${ALPC} ${INPUT} ${FLAGS}
  OUTPUT_QUIET
  ERROR_VARIABLE ERR
  RESULT_VARIABLE RC)
if(NOT RC EQUAL EXIT)
  message(FATAL_ERROR "alpc exited ${RC}, expected ${EXIT}, on ${INPUT}:\n${ERR}")
endif()
if(NOT ERR STREQUAL STDERR)
  message(FATAL_ERROR
    "stderr of alpc on ${INPUT} changed\n"
    "--- actual ---\n${ERR}\n--- expected ---\n${STDERR}")
endif()
message(STATUS "alpc exit ${RC} and stderr match on ${INPUT}")
