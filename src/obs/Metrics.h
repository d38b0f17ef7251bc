//===- obs/Metrics.h - Metric snapshots + exposition ------------*- C++ -*-===//
//
// Part of the fast-transducers project (see support/Hashing.h).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The telemetry plane's metric model.  A MetricsSnapshot is a
/// point-in-time, plain-data copy of every metric the session knows about:
/// the families bridged from StatsRegistry, Solver::Stats, and VmStats (see
/// engine/MetricsBridge.h).  Snapshots render to the two exposition formats
/// (Prometheus text v0.0.4 and a versioned JSON document).
///
/// Families carry a `Timing` flag: metrics whose values depend on wall-clock
/// measurements (wall_ms, every *_us histogram, flight-recorder event
/// counts).  Exposition can exclude timing families, which is what makes the
/// "-j1 vs -j4 snapshots are byte-identical" determinism contract testable.
///
//===----------------------------------------------------------------------===//

#ifndef FAST_OBS_METRICS_H
#define FAST_OBS_METRICS_H

#include "obs/Histogram.h"

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace fast::obs {

enum class MetricKind { Counter, Gauge, Histogram };

/// One labelled sample inside a family.  Counter/gauge samples use `Value`;
/// histogram samples carry the full LatencyHistogram so exposition can emit
/// cumulative buckets.
struct MetricSample {
  std::vector<std::pair<std::string, std::string>> Labels;
  double Value = 0;
  LatencyHistogram Hist;
};

/// A named family of samples sharing one kind and help string.  `Name` is
/// the final exposition name (counters already include the `_total` suffix).
struct MetricFamily {
  std::string Name;
  std::string Help;
  MetricKind Kind = MetricKind::Counter;
  /// True when the family's values depend on wall-clock timing and are
  /// therefore excluded from determinism comparisons.
  bool Timing = false;
  std::vector<MetricSample> Samples;
};

/// A point-in-time collection of metric families, renderable as Prometheus
/// text exposition v0.0.4 or a versioned JSON document.
class MetricsSnapshot {
public:
  static constexpr int SchemaVersion = 1;

  /// Returns the family named \p Name, creating it (with the given kind,
  /// help, and timing flag) on first use.  Families keep insertion order.
  MetricFamily &family(std::string Name, MetricKind Kind, std::string Help,
                       bool Timing = false);

  /// Convenience: append a label-less sample to \p Name.
  void addCounter(std::string Name, std::string Help, double Value,
                  bool Timing = false);
  void addGauge(std::string Name, std::string Help, double Value,
                bool Timing = false);
  void addHistogram(std::string Name, std::string Help,
                    const LatencyHistogram &H, bool Timing = true);

  const std::vector<MetricFamily> &families() const { return Families; }
  const MetricFamily *find(const std::string &Name) const;

  /// Prometheus text exposition format v0.0.4.  Timing families carry a
  /// `# TIMING` comment line so downstream diffs can exclude them; pass
  /// IncludeTiming=false to drop them entirely.
  std::string prometheus(bool IncludeTiming = true) const;

  /// Versioned JSON document: {"schema_version":1,"families":[...]}.
  std::string json(bool IncludeTiming = true) const;

private:
  std::vector<MetricFamily> Families;
  std::map<std::string, size_t> Index;
};

} // namespace fast::obs

#endif // FAST_OBS_METRICS_H
