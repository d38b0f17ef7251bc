//===- perfbench/main.cpp - End-to-end benchmark driver -------------------===//
//
// Part of the fast-transducers project (see support/Hashing.h).
//
//===----------------------------------------------------------------------===//
//
// Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--trace-out FILE]
//
// Runs one workload in this process and prints, as the last line of
// stdout, one JSON object {"correct", "attempted", "failed", "metrics"}.
// Untraced runs report the end-to-end metrics; traced runs report the
// per-layer metrics (span times, counter deltas) plus the tracing
// overhead, and write the spans to FILE as JSONL.  Notes on what was
// verified go to stderr.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <cmath>
#include <cstring>
#include <exception>
#include <iostream>
#include <sstream>

using namespace perfbench;

double perfbench::medianSetupSeconds(const std::function<void()> &Setup) {
  constexpr size_t MinTimes = 3, MaxTimes = 200;
  constexpr double MinTotalSeconds = 2.0;
  std::vector<double> Seconds;
  double Total = 0;
  while (Seconds.size() < MinTimes ||
         (Total < MinTotalSeconds && Seconds.size() < MaxTimes)) {
    Clock::time_point T0 = Clock::now();
    Setup();
    Seconds.push_back(msBetween(T0, Clock::now()) / 1000.0);
    Total += Seconds.back();
    speedProbe().tick();
  }
  return percentile(Seconds, 50);
}

void perfbench::addLatencyMetrics(RunResult &R,
                                  const std::vector<double> &RequestMs,
                                  double WallMs) {
  R.EndToEnd["latency_ms_p50"] = percentile(RequestMs, 50);
  R.EndToEnd["latency_ms_p90"] = percentile(RequestMs, 90);
  R.EndToEnd["requests_per_s"] =
      WallMs > 0 ? double(RequestMs.size()) / (WallMs / 1000.0) : 0;
  R.Layers["trace.requests"] = double(RequestMs.size());
  R.Layers["trace.latency_ms_p50"] = R.EndToEnd["latency_ms_p50"];
}

void perfbench::addLatencyMetrics(RunResult &R,
                                  const std::vector<double> &RequestMs) {
  double SumMs = 0;
  for (double Ms : RequestMs)
    SumMs += Ms;
  addLatencyMetrics(R, RequestMs, SumMs);
}

namespace {

const struct {
  const char *Name;
  RunResult (*Run)(const Options &);
} Workloads[] = {
    {"sanitize_distinct", runSanitizeDistinct},
    {"sanitize_repeat", runSanitizeRepeat},
    {"typecheck_random", runTypecheckRandom},
    {"ar_conflicts_par", runArConflictsPar},
};

/// Ratios are reported next to their bases (the counters they divide).
void addRatios(MetricMap &L) {
  auto Frac = [&](const char *Name, const char *Part, const char *Base) {
    double B = L[Base];
    L[Name] = B > 0 ? L[Part] / B : 0;
  };
  Frac("engine.sat_cache_hit_frac", "engine.sat_cache_hits",
       "engine.sat_queries");
  Frac("smt.cache_hit_frac", "smt.cache_hits", "smt.queries");
}

/// Units follow the metric-name suffix, ignoring a statistic suffix
/// (latency_ms_p90 is in ms).
const char *unitOf(std::string Name) {
  for (const char *Stat : {"_p50", "_p90", "_max"})
    if (Name.ends_with(Stat))
      Name.resize(Name.size() - std::strlen(Stat));
  if (Name.ends_with("_mb_per_s"))
    return "MB/s";
  if (Name.ends_with("_per_s"))
    return "1/s";
  if (Name.ends_with("_ms"))
    return "ms";
  if (Name.ends_with("_us"))
    return "us";
  if (Name.ends_with("_s"))
    return "s";
  if (Name.ends_with("_mb"))
    return "MB";
  if (Name.ends_with("_frac"))
    return "frac";
  return "count";
}

void printResult(const RunResult &R, const MetricMap &Metrics) {
  std::ostringstream Out;
  Out.precision(17);
  Out << "{\"correct\": " << (R.Correct ? "true" : "false")
      << ", \"attempted\": " << R.Attempted << ", \"failed\": " << R.Failed
      << ", \"metrics\": {";
  bool First = true;
  for (const auto &[Name, Value] : Metrics) {
    Out << (First ? "" : ", ") << "\"" << Name << "\": {\"value\": "
        << (std::isfinite(Value) ? Value : 0.0) << ", \"unit\": \""
        << unitOf(Name)
        << "\"}";
    First = false;
  }
  Out << "}}";
  std::cout << Out.str() << std::endl;
}

int usage() {
  std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\nworkloads:";
  for (const auto &W : Workloads)
    std::cerr << ' ' << W.Name;
  std::cerr << '\n';
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  std::string Workload, TraceOut;
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Flag = Argv[I], Value = Argv[I + 1];
    if (Flag == "--workload")
      Workload = Value;
    else if (Flag == "--seed")
      O.Seed = static_cast<unsigned>(std::stoul(Value));
    else if (Flag == "--seconds")
      O.Seconds = std::stod(Value);
    else if (Flag == "--trace")
      O.Trace = Value == "1";
    else if (Flag == "--trace-out")
      TraceOut = Value;
    else
      return usage();
  }
  if (Argc % 2 == 0 || O.Seconds <= 0)
    return usage();

  for (const auto &W : Workloads) {
    if (Workload != W.Name)
      continue;
    RunResult R;
    try {
      R = W.Run(O);
    } catch (const std::exception &E) {
      std::cerr << "perfbench: " << Workload << " failed: " << E.what()
                << '\n';
      return 1;
    }
    for (const std::string &Note : R.Notes)
      std::cerr << "perfbench: " << Workload << ": " << Note << '\n';
    // Time metrics at the reference host's speed (see SpeedProbe).
    const double Speed = speedProbe().speed();
    for (const char *Name : {"setup_s", "latency_ms_p50", "latency_ms_p90"})
      R.EndToEnd[Name] *= Speed;
    R.EndToEnd["requests_per_s"] /= Speed;
    R.Layers["trace.speed"] = Speed;
    R.Layers["trace.speed_samples"] = double(speedProbe().samples());
    if (!O.Trace) {
      printResult(R, R.EndToEnd);
      return 0;
    }
    addSpanMetrics(R.Layers);
    addRatios(R.Layers);
    if (!TraceOut.empty() && !trace::writeJsonl(TraceOut))
      std::cerr << "perfbench: cannot write " << TraceOut << '\n';
    // Tracing overhead: the calibrated cost of one probe (span plus two
    // counter readings) times the probes issued, against request time.
    fast::Session Calibration;
    double ProbeUs = probeCostUs(Calibration);
    double RequestMs = R.Layers["trace.request_ms"];
    R.Layers["trace.probe_us"] = ProbeUs;
    R.Layers["trace.overhead_frac"] =
        RequestMs > 0 ? R.Layers["trace.spans"] * ProbeUs / 1000.0 / RequestMs
                      : 0;
    printResult(R, R.Layers);
    return 0;
  }
  return usage();
}
