//===- perfbench/Workloads.h - The benchmark's workloads --------*- C++ -*-===//
//
// Part of the fast-transducers project (see support/Hashing.h).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every workload is a closed loop with one caller (ar_conflicts_par: one
/// caller handing a batch to the parallel driver).  Inputs are generated
/// from the seed before the clock starts; the measured loop runs for at
/// most the given number of seconds; every output is checked against an
/// independent reference outside the timed spans.
///
//===----------------------------------------------------------------------===//

#ifndef FAST_PERFBENCH_WORKLOADS_H
#define FAST_PERFBENCH_WORKLOADS_H

#include "Trace.h"

#include <functional>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  unsigned Seed = 1;
  double Seconds = 10;
  bool Trace = false;
};

/// What one run reports.  EndToEnd is filled on every run; Layers holds the
/// per-layer counters and timings, meaningful only with tracing on.
struct RunResult {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  MetricMap EndToEnd;
  MetricMap Layers;
  /// Human-readable notes for stderr (what was checked, how).
  std::vector<std::string> Notes;
};

/// Repeats \p Setup at least three times and until two seconds have passed
/// (at most 200 times), and returns the median wall time of one call in
/// seconds.  Each call must build its state from scratch; the caller keeps
/// whatever the last call built.
double medianSetupSeconds(const std::function<void()> &Setup);

/// The latency and throughput metrics every workload reports, from its
/// per-request latencies (ms) and the wall time those requests took.
void addLatencyMetrics(RunResult &R, const std::vector<double> &RequestMs,
                       double WallMs);
/// The same for a closed loop: wall time is the summed request time.
void addLatencyMetrics(RunResult &R, const std::vector<double> &RequestMs);

RunResult runSanitizeDistinct(const Options &O);
RunResult runSanitizeRepeat(const Options &O);
RunResult runArConflictsPar(const Options &O);
RunResult runTypecheckRandom(const Options &O);

} // namespace perfbench

#endif // FAST_PERFBENCH_WORKLOADS_H
