# Runs fastc with --metrics on real programs, validates every file with
# metrics_check (which reads the JSON document only), and pins four
# contracts:
#
#  * coverage — the document must span all three bridged subsystems
#    (fast_engine_*, fast_solver_*, fast_vm_*);
#  * determinism — a -j 1 run and a -j 4 run must merge identical
#    non-timing counters.  metrics_check's two-file mode asserts A <= B;
#    running it in both directions therefore asserts equality.  The
#    contract is checked on PROGRAM and on LANGS_PROGRAM, whose language
#    automaton is large (32 rules) and goes through complement and
#    intersection in the sequential declaration tier;
#  * one format — the file is the JSON document whatever its extension,
#    so a --metrics=FILE.prom run must leave a file metrics_check accepts;
#  * every exit writes — `--export NAME` returns before the assertion
#    report, and must still exit 0 and leave a file metrics_check accepts.
#
# Every leg also requires that no FILE.tmp remains: the write goes to
# FILE.tmp and is renamed over FILE.
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

# Validates MetricsFile with metrics_check, requires that no MetricsFile.tmp
# remains, and returns the summary line in CheckOut.
function(check_metrics_file MetricsFile)
  execute_process(
    COMMAND "${METRICS_CHECK}" "${MetricsFile}"
    RESULT_VARIABLE CheckResult
    OUTPUT_VARIABLE Out
    ERROR_VARIABLE CheckErr)
  if(NOT CheckResult EQUAL 0)
    message(FATAL_ERROR
      "metrics_check rejected ${MetricsFile} (exit ${CheckResult}):\n${Out}${CheckErr}")
  endif()
  if(EXISTS "${MetricsFile}.tmp")
    message(FATAL_ERROR "fastc left ${MetricsFile}.tmp behind")
  endif()
  set(CheckOut "${Out}" PARENT_SCOPE)
endfunction()

# A -j 1 / -j 4 pair on each program for the determinism comparison, and
# one run whose file name does not end in ".json".
foreach(Run "${PROGRAM}|metrics_j1.json|1" "${PROGRAM}|metrics_j4.json|4"
            "${LANGS_PROGRAM}|langs_j1.json|1" "${LANGS_PROGRAM}|langs_j4.json|4"
            "${PROGRAM}|metrics_j1.prom|1")
  string(REPLACE "|" ";" Run "${Run}")
  list(GET Run 0 Program)
  list(GET Run 1 FileName)
  list(GET Run 2 Jobs)
  set(MetricsFile "${OUT_DIR}/${FileName}")
  file(REMOVE "${MetricsFile}" "${MetricsFile}.tmp")
  execute_process(
    COMMAND "${FASTC}" "--metrics=${MetricsFile}" -j ${Jobs} "${Program}"
    RESULT_VARIABLE RunResult
    OUTPUT_VARIABLE RunOut
    ERROR_VARIABLE RunErr)
  if(RunResult GREATER 1)
    message(FATAL_ERROR
      "fastc --metrics=${MetricsFile} failed (exit ${RunResult}):\n${RunOut}${RunErr}")
  endif()
  check_metrics_file("${MetricsFile}")
  # The summary must confirm the counter and bucket checks actually ran.
  if(NOT CheckOut MATCHES "counter\\(s\\) non-negative" OR
     NOT CheckOut MATCHES "histogram\\(s\\) bucket-consistent")
    message(FATAL_ERROR
      "metrics_check summary for ${MetricsFile} lacks the counter/bucket "
      "confirmation:\n${CheckOut}")
  endif()
  # Coverage: all three bridged subsystems must appear in the document.
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
foreach(Direction "metrics_j1.json|metrics_j4.json" "metrics_j4.json|metrics_j1.json"
                  "langs_j1.json|langs_j4.json" "langs_j4.json|langs_j1.json")
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

# Every exit after the run writes the file, the --export exit included.
set(ExportFile "${OUT_DIR}/export.json")
file(REMOVE "${ExportFile}" "${ExportFile}.tmp")
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
check_metrics_file("${ExportFile}")
message(STATUS "export.json: ${CheckOut}")
