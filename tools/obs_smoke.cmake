# Runs fastc with tracing enabled on a real program, then validates the
# produced trace with trace_check and the --stats text printed alongside
# it (one line per metric family), and checks that the removed JSON stats
# flag is a usage error.  Invoked by the obs.smoke ctest as
#   cmake -DFASTC=... -DTRACE_CHECK=... -DPROGRAM=... -DOUT_DIR=... -P obs_smoke.cmake
#
# sanitizer.fast intentionally fails one assertion, so fastc exiting 1 is
# expected; only exit codes >= 2 (usage/IO errors) fail the smoke test.

foreach(Var FASTC TRACE_CHECK PROGRAM OUT_DIR)
  if(NOT DEFINED ${Var})
    message(FATAL_ERROR "obs_smoke.cmake: -D${Var}=... is required")
  endif()
endforeach()

file(MAKE_DIRECTORY "${OUT_DIR}")

foreach(Trace obs_smoke.json obs_smoke.jsonl)
  set(TraceFile "${OUT_DIR}/${Trace}")
  execute_process(
    COMMAND "${FASTC}" "--trace=${TraceFile}" --stats "${PROGRAM}"
    RESULT_VARIABLE RunResult
    OUTPUT_VARIABLE RunOut
    ERROR_VARIABLE RunErr)
  if(RunResult GREATER 1)
    message(FATAL_ERROR
      "fastc --trace=${TraceFile} failed (exit ${RunResult}):\n${RunOut}${RunErr}")
  endif()
  execute_process(
    COMMAND "${TRACE_CHECK}" "${TraceFile}"
    RESULT_VARIABLE CheckResult
    OUTPUT_VARIABLE CheckOut
    ERROR_VARIABLE CheckErr)
  if(NOT CheckResult EQUAL 0)
    message(FATAL_ERROR
      "trace_check rejected ${TraceFile} (exit ${CheckResult}):\n${CheckOut}${CheckErr}")
  endif()
  # The summary must confirm the counter-delta and per-lane monotonicity
  # checks actually ran (a regression that skips them would still exit 0).
  if(NOT CheckOut MATCHES "counter delta\\(s\\) non-negative" OR
     NOT CheckOut MATCHES "thread lane\\(s\\) monotone")
    message(FATAL_ERROR
      "trace_check summary for ${TraceFile} lacks the delta/monotonicity "
      "confirmation:\n${CheckOut}")
  endif()
  # --stats prints the metrics snapshot, one line per family.
  foreach(Family fast_engine_states_explored_total fast_solver_queries_total
                 fast_vm_runs_total)
    if(NOT RunOut MATCHES "(^|\n)${Family} [^\n]*[0-9]")
      message(FATAL_ERROR
        "fastc --stats printed no ${Family} line:\n${RunOut}")
    endif()
  endforeach()
  message(STATUS "${Trace}: ${CheckOut}")
endforeach()

# The JSON stats flag is gone: --metrics=FILE.json carries a superset.
set(RemovedFlag --stats-json)
execute_process(
  COMMAND "${FASTC}" ${RemovedFlag} "${PROGRAM}"
  RESULT_VARIABLE RunResult
  OUTPUT_QUIET
  ERROR_QUIET)
if(NOT RunResult EQUAL 2)
  message(FATAL_ERROR "fastc ${RemovedFlag} exited ${RunResult}, not 2")
endif()

# Flight-recorder leg: force a state-budget exhaustion so the engine dumps
# the ring at the incident, then validate the dump with trace_check's
# flight-recorder mode.  The final pre-incident explore.batch events and a
# construction span end with its counter deltas must be present — that is
# the whole point of an always-on recorder.
set(FrFile "${OUT_DIR}/obs_smoke_fr.json")
execute_process(
  COMMAND "${FASTC}" "--flight-recorder=${FrFile}" --max-states=3 "${PROGRAM}"
  RESULT_VARIABLE RunResult
  OUTPUT_VARIABLE RunOut
  ERROR_VARIABLE RunErr)
if(RunResult GREATER 1)
  message(FATAL_ERROR
    "fastc --flight-recorder=${FrFile} failed (exit ${RunResult}):\n${RunOut}${RunErr}")
endif()
execute_process(
  COMMAND "${TRACE_CHECK}" "${FrFile}"
  RESULT_VARIABLE CheckResult
  OUTPUT_VARIABLE CheckOut
  ERROR_VARIABLE CheckErr)
if(NOT CheckResult EQUAL 0)
  message(FATAL_ERROR
    "trace_check rejected ${FrFile} (exit ${CheckResult}):\n${CheckOut}${CheckErr}")
endif()
if(NOT CheckOut MATCHES "flight recorder")
  message(FATAL_ERROR
    "trace_check did not enter flight-recorder mode for ${FrFile}:\n${CheckOut}")
endif()
file(READ "${FrFile}" FrText)
foreach(Needle "explore.batch" "exploration.stopped" "state budget exceeded"
               "\"cat\":\"construction\",\"ph\":\"E\"")
  string(FIND "${FrText}" "${Needle}" At)
  if(At EQUAL -1)
    message(FATAL_ERROR
      "flight-recorder dump ${FrFile} lacks ${Needle}")
  endif()
endforeach()
message(STATUS "obs_smoke_fr.json: ${CheckOut}")
