//===- tools/metrics_check.cpp - Metrics document validator ---------------===//
//
// Validates a metrics file produced by the telemetry plane (fastc --metrics
// or FAST_METRICS, written once at exit):
//
//   metrics_check <metrics.json> [<later.json>]
//
// Reads the versioned JSON document whatever the file's extension; any
// other content (a Prometheus text exposition, say) is invalid.  The
// invariants live in checks/MetricsCheck.{h,cpp}; this tool only adds file
// IO and the CLI.
//
// With a second file, checks counter monotonicity between two snapshots of
// the same process: every non-timing counter sample present in both must
// not decrease from the first file to the second.  Since A-vs-B and B-vs-A
// both passing implies the non-timing counters are *equal*, the two-file
// mode doubles as the "-j1 and -j4 merge identical totals" determinism
// check.
//
// Exit status: 0 valid, 1 invalid, 2 usage/IO error.  Prints a one-line
// summary on success so the metrics.smoke test has something to match.
//
//===----------------------------------------------------------------------===//

#include "checks/MetricsCheck.h"

#include <fstream>
#include <iostream>
#include <string>

using namespace fast::obs::metricscheck;

namespace {

bool loadDocument(const std::string &Path, Document &Doc, std::string &Error,
                  int &ExitCode) {
  std::ifstream File(Path);
  if (!File) {
    Error = "cannot open '" + Path + "'";
    ExitCode = 2;
    return false;
  }
  ExitCode = 1;
  return loadJson(File, Doc, Error);
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc != 2 && Argc != 3) {
    std::cerr << "usage: metrics_check <metrics.json> [<later.json>]\n";
    return 2;
  }

  Document Doc;
  std::string Error;
  int ExitCode = 1;
  if (!loadDocument(Argv[1], Doc, Error, ExitCode)) {
    std::cerr << "metrics_check: " << Argv[1] << ": " << Error << "\n";
    return ExitCode;
  }
  size_t Counters = 0, Histograms = 0;
  if (!validate(Doc, Error, Counters, Histograms)) {
    std::cerr << "metrics_check: " << Argv[1] << ": " << Error << "\n";
    return 1;
  }

  size_t Compared = 0;
  if (Argc == 3) {
    Document Later;
    if (!loadDocument(Argv[2], Later, Error, ExitCode)) {
      std::cerr << "metrics_check: " << Argv[2] << ": " << Error << "\n";
      return ExitCode;
    }
    size_t C2 = 0, H2 = 0;
    if (!validate(Later, Error, C2, H2)) {
      std::cerr << "metrics_check: " << Argv[2] << ": " << Error << "\n";
      return 1;
    }
    if (!checkMonotone(Doc, Later, Error, Compared)) {
      std::cerr << "metrics_check: " << Error << "\n";
      return 1;
    }
  }

  std::cout << "metrics_check: OK: " << Doc.Families.size() << " families, "
            << Doc.Samples << " samples, " << Counters
            << " counter(s) non-negative, " << Histograms
            << " histogram(s) bucket-consistent";
  if (Argc == 3)
    std::cout << ", " << Compared << " counter(s) monotone across snapshots";
  std::cout << "\n";
  return 0;
}
