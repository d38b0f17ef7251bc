# Runs fastc with tracing enabled on a real program, then validates the
# produced trace with trace_check and the --stats text printed alongside
# it (one line per metric family).  Further legs stop a traced run on its
# state budget, check --explain's counterexample, and check that removed
# flags are usage errors.  Invoked by the obs.smoke ctest as
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

# Budget leg: a state budget stops the run.  The trace must still validate
# and hold the last exploration batch, the budget-stop instant with its
# outcome, and a construction span end with its counter deltas; --stats
# must still print the snapshot.
set(BudgetTrace "${OUT_DIR}/obs_smoke_budget.json")
execute_process(
  COMMAND "${FASTC}" "--trace=${BudgetTrace}" --stats --max-states=3
          "${PROGRAM}"
  RESULT_VARIABLE RunResult
  OUTPUT_VARIABLE RunOut
  ERROR_VARIABLE RunErr)
if(NOT RunResult EQUAL 1)
  message(FATAL_ERROR
    "fastc --max-states=3 exited ${RunResult}, not 1:\n${RunOut}${RunErr}")
endif()
execute_process(
  COMMAND "${TRACE_CHECK}" "${BudgetTrace}"
  RESULT_VARIABLE CheckResult
  OUTPUT_VARIABLE CheckOut
  ERROR_VARIABLE CheckErr)
if(NOT CheckResult EQUAL 0)
  message(FATAL_ERROR
    "trace_check rejected ${BudgetTrace} (exit ${CheckResult}):\n${CheckOut}${CheckErr}")
endif()
file(READ "${BudgetTrace}" BudgetText)
foreach(Needle "explore.batch" "exploration.stopped" "state budget exceeded"
               "\"cat\":\"construction\",\"ph\":\"E\"")
  string(FIND "${BudgetText}" "${Needle}" At)
  if(At EQUAL -1)
    message(FATAL_ERROR "budget-stopped trace ${BudgetTrace} lacks ${Needle}")
  endif()
endforeach()
if(NOT RunOut MATCHES "(^|\n)fast_engine_states_explored_total [^\n]*[0-9]")
  message(FATAL_ERROR
    "fastc --stats printed no snapshot when the budget stopped the run:\n"
    "${RunOut}${RunErr}")
endif()
message(STATUS "obs_smoke_budget.json: ${CheckOut}")

# Explain leg: the Figure-2 counterexample, a script node that survives
# sanitization, cited back to the buggy remScript rule.
execute_process(
  COMMAND "${FASTC}" --explain "${PROGRAM}"
  RESULT_VARIABLE RunResult
  OUTPUT_VARIABLE RunOut
  ERROR_VARIABLE RunErr)
if(RunResult GREATER 1)
  message(FATAL_ERROR
    "fastc --explain failed (exit ${RunResult}):\n${RunOut}${RunErr}")
endif()
foreach(Needle "witness: node[\"script\"]" "trans 'remScript' at")
  string(FIND "${RunOut}" "${Needle}" At)
  if(At EQUAL -1)
    message(FATAL_ERROR "fastc --explain printed no ${Needle}:\n${RunOut}")
  endif()
endforeach()

# Removed flags are usage errors: --metrics=FILE.json carries a superset
# of --stats-json, and the flight recorder, the HTML report and the
# progress heartbeat are gone.
foreach(RemovedFlag --stats-json --flight-recorder=${OUT_DIR}/fr.json
                    --report=${OUT_DIR}/report.html --progress)
  execute_process(
    COMMAND "${FASTC}" ${RemovedFlag} "${PROGRAM}"
    RESULT_VARIABLE RunResult
    OUTPUT_QUIET
    ERROR_QUIET)
  if(NOT RunResult EQUAL 2)
    message(FATAL_ERROR "fastc ${RemovedFlag} exited ${RunResult}, not 2")
  endif()
endforeach()
