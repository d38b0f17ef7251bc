# Runs fastc with --metrics on a real program (both exposition formats),
# validates the files with metrics_check, and pins three contracts:
#
#  * coverage — the exposition must span all three bridged subsystems
#    (fast_engine_*, fast_solver_*, fast_vm_*);
#  * determinism — a -j 1 run and a -j 4 run must merge identical
#    non-timing counters.  metrics_check's two-file mode asserts A <= B;
#    running it in both directions therefore asserts equality.  The
#    contract is checked on PROGRAM and on LANGS_PROGRAM, whose language
#    automaton is large (32 rules) and goes through complement and
#    intersection in the sequential declaration tier;
#  * one writer — with FAST_METRICS_INTERVAL_MS=1 a flusher thread
#    rewrites the file every millisecond of a -j 4 run, and the exit-time
#    write must not race it: each of PERIODIC_RUNS runs exits below 2,
#    leaves a file metrics_check accepts, and leaves no FILE.tmp behind.
#    When two writers share FILE.tmp, one rename can carry off the other's
#    file and the loser exits 2.  That happened in 23 of 200 runs on a
#    4-core host, so 50 runs catch it with probability above 0.99;
#  * every exit writes — `--export NAME` returns before the assertion
#    report, and must still exit 0 and leave a file metrics_check accepts.
#
# Invoked by the metrics.smoke ctest as
#   cmake -DFASTC=... -DMETRICS_CHECK=... -DPROGRAM=... -DLANGS_PROGRAM=...
#         -DOUT_DIR=... -P metrics_smoke.cmake
#
# sanitizer.fast intentionally fails one assertion, so fastc exiting 1 is
# expected; only exit codes >= 2 (usage/IO errors) fail the smoke test.

foreach(Var FASTC METRICS_CHECK PROGRAM LANGS_PROGRAM OUT_DIR)
  if(NOT DEFINED ${Var})
    message(FATAL_ERROR "metrics_smoke.cmake: -D${Var}=... is required")
  endif()
endforeach()

file(MAKE_DIRECTORY "${OUT_DIR}")

# One run per format plus a second Prometheus run at -j 4 for the
# determinism comparison, then a -j 1 / -j 4 pair on the langs program.
foreach(Run "${PROGRAM}|metrics_j1.prom|1" "${PROGRAM}|metrics_j1.json|1"
            "${PROGRAM}|metrics_j4.prom|4"
            "${LANGS_PROGRAM}|langs_j1.prom|1" "${LANGS_PROGRAM}|langs_j4.prom|4")
  string(REPLACE "|" ";" Run "${Run}")
  list(GET Run 0 Program)
  list(GET Run 1 FileName)
  list(GET Run 2 Jobs)
  set(MetricsFile "${OUT_DIR}/${FileName}")
  execute_process(
    COMMAND "${FASTC}" "--metrics=${MetricsFile}" -j ${Jobs} "${Program}"
    RESULT_VARIABLE RunResult
    OUTPUT_VARIABLE RunOut
    ERROR_VARIABLE RunErr)
  if(RunResult GREATER 1)
    message(FATAL_ERROR
      "fastc --metrics=${MetricsFile} failed (exit ${RunResult}):\n${RunOut}${RunErr}")
  endif()
  execute_process(
    COMMAND "${METRICS_CHECK}" "${MetricsFile}"
    RESULT_VARIABLE CheckResult
    OUTPUT_VARIABLE CheckOut
    ERROR_VARIABLE CheckErr)
  if(NOT CheckResult EQUAL 0)
    message(FATAL_ERROR
      "metrics_check rejected ${MetricsFile} (exit ${CheckResult}):\n${CheckOut}${CheckErr}")
  endif()
  # The summary must confirm the counter and bucket checks actually ran.
  if(NOT CheckOut MATCHES "counter\\(s\\) non-negative" OR
     NOT CheckOut MATCHES "histogram\\(s\\) bucket-consistent")
    message(FATAL_ERROR
      "metrics_check summary for ${MetricsFile} lacks the counter/bucket "
      "confirmation:\n${CheckOut}")
  endif()
  # Coverage: all three bridged subsystems must appear in the exposition.
  file(READ "${MetricsFile}" MetricsText)
  foreach(Prefix fast_engine_ fast_solver_ fast_vm_)
    if(NOT MetricsText MATCHES "${Prefix}")
      message(FATAL_ERROR
        "${FileName} does not cover subsystem prefix ${Prefix}")
    endif()
  endforeach()
  message(STATUS "${FileName}: ${CheckOut}")
endforeach()

# Determinism: -j 1 and -j 4 merge identical non-timing counters.  The
# two-file mode checks A <= B, so both directions passing means equality.
foreach(Direction "metrics_j1.prom|metrics_j4.prom" "metrics_j4.prom|metrics_j1.prom"
                  "langs_j1.prom|langs_j4.prom" "langs_j4.prom|langs_j1.prom")
  string(REPLACE "|" ";" Direction "${Direction}")
  list(GET Direction 0 Earlier)
  list(GET Direction 1 Later)
  execute_process(
    COMMAND "${METRICS_CHECK}" "${OUT_DIR}/${Earlier}" "${OUT_DIR}/${Later}"
    RESULT_VARIABLE CheckResult
    OUTPUT_VARIABLE CheckOut
    ERROR_VARIABLE CheckErr)
  if(NOT CheckResult EQUAL 0)
    message(FATAL_ERROR
      "-j1 vs -j4 counter determinism violated (${Earlier} -> ${Later}, "
      "exit ${CheckResult}):\n${CheckOut}${CheckErr}")
  endif()
  if(NOT CheckOut MATCHES "monotone across snapshots")
    message(FATAL_ERROR
      "metrics_check two-file summary lacks the monotonicity confirmation:\n${CheckOut}")
  endif()
  message(STATUS "${Earlier} vs ${Later}: ${CheckOut}")
endforeach()

# One writer: the periodic flusher and the exit-time write must never
# touch FILE.tmp at the same time.
set(PERIODIC_RUNS 50)
set(PeriodicFile "${OUT_DIR}/periodic_j4.prom")
foreach(Iteration RANGE 1 ${PERIODIC_RUNS})
  file(REMOVE "${PeriodicFile}" "${PeriodicFile}.tmp")
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E env FAST_METRICS_INTERVAL_MS=1
            "${FASTC}" "--metrics=${PeriodicFile}" -j 4 "${PROGRAM}"
    RESULT_VARIABLE RunResult
    OUTPUT_VARIABLE RunOut
    ERROR_VARIABLE RunErr)
  if(RunResult GREATER 1)
    message(FATAL_ERROR
      "periodic run ${Iteration}/${PERIODIC_RUNS}: fastc "
      "--metrics=${PeriodicFile} with FAST_METRICS_INTERVAL_MS=1 failed "
      "(exit ${RunResult}):\n${RunErr}")
  endif()
  execute_process(
    COMMAND "${METRICS_CHECK}" "${PeriodicFile}"
    RESULT_VARIABLE CheckResult
    OUTPUT_VARIABLE CheckOut
    ERROR_VARIABLE CheckErr)
  if(NOT CheckResult EQUAL 0)
    message(FATAL_ERROR
      "periodic run ${Iteration}/${PERIODIC_RUNS}: metrics_check rejected "
      "${PeriodicFile} (exit ${CheckResult}):\n${CheckOut}${CheckErr}")
  endif()
  if(EXISTS "${PeriodicFile}.tmp")
    message(FATAL_ERROR
      "periodic run ${Iteration}/${PERIODIC_RUNS} left ${PeriodicFile}.tmp")
  endif()
endforeach()
message(STATUS "periodic flush: ${PERIODIC_RUNS} runs at "
               "FAST_METRICS_INTERVAL_MS=1 -j 4, one writer each")

# Every exit after the run writes the file, the --export exit included.
set(ExportFile "${OUT_DIR}/export.prom")
file(REMOVE "${ExportFile}")
execute_process(
  COMMAND "${FASTC}" "--metrics=${ExportFile}" --export sani "${PROGRAM}"
  RESULT_VARIABLE RunResult
  OUTPUT_VARIABLE RunOut
  ERROR_VARIABLE RunErr)
if(NOT RunResult EQUAL 0)
  message(FATAL_ERROR
    "fastc --metrics=${ExportFile} --export sani failed "
    "(exit ${RunResult}):\n${RunErr}")
endif()
execute_process(
  COMMAND "${METRICS_CHECK}" "${ExportFile}"
  RESULT_VARIABLE CheckResult
  OUTPUT_VARIABLE CheckOut
  ERROR_VARIABLE CheckErr)
if(NOT CheckResult EQUAL 0)
  message(FATAL_ERROR
    "--export run: metrics_check rejected ${ExportFile} "
    "(exit ${CheckResult}):\n${CheckOut}${CheckErr}")
endif()
message(STATUS "export.prom: ${CheckOut}")
