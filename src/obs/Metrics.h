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
/// (Prometheus text v0.0.4 and a versioned JSON document) and to the
/// text `fastc --stats` prints.  A stats struct declares each counter once:
/// its field plus a {key, help, member} entry in its static counters() or
/// histograms() table, which mergeFields and addFields walk.
///
/// Families carry a `Timing` flag: metrics whose values depend on wall-clock
/// measurements (wall_ms and every *_us histogram).  Exposition can
/// exclude timing families, which is what makes the
/// "-j1 vs -j4 snapshots are byte-identical" determinism contract testable.
///
//===----------------------------------------------------------------------===//

#ifndef FAST_OBS_METRICS_H
#define FAST_OBS_METRICS_H

#include "obs/Histogram.h"
#include "support/RelaxedCell.h"

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

/// One counter of the stats struct \p S: the key of its family
/// <prefix><key>_total, the help string, and the member.  A wall-time
/// accumulator sets Time instead of Events, making its family timing.
template <typename S> struct CounterField {
  const char *Key, *Help;
  RelaxedCell<uint64_t> S::*Events;
  RelaxedCell<double> S::*Time = nullptr;

  double value(const S &From) const {
    return Events ? double(From.*Events) : (From.*Time).load();
  }
};

/// One latency histogram of \p S: family <prefix><key>_us (timing).
template <typename S> struct HistogramField {
  const char *Key, *Help;
  LatencyHistogram S::*Member;
};

/// Adds every table field of \p From into \p Into: each mergeFrom.
template <typename S> void mergeFields(S &Into, const S &From) {
  for (const CounterField<S> &F : S::counters())
    if (F.Events)
      Into.*F.Events += From.*F.Events;
    else
      Into.*F.Time += From.*F.Time;
  for (const HistogramField<S> &H : S::histograms())
    (Into.*H.Member).merge(From.*H.Member);
}

/// A point-in-time collection of metric families, renderable as Prometheus
/// text exposition v0.0.4, a versioned JSON document, or plain text.
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

  /// Appends a sample labelled \p Labels to the family of each field in
  /// \p S's tables, in table order.
  template <typename S>
  void addFields(const std::string &Prefix, const S &Stats,
                 const decltype(MetricSample::Labels) &Labels = {}) {
    for (const CounterField<S> &F : S::counters())
      family(Prefix + F.Key + "_total", MetricKind::Counter, F.Help,
             F.Time != nullptr)
          .Samples.push_back({Labels, F.value(Stats), {}});
    for (const HistogramField<S> &H : S::histograms())
      family(Prefix + H.Key + "_us", MetricKind::Histogram, H.Help, true)
          .Samples.push_back({Labels, 0, Stats.*H.Member});
  }

  const std::vector<MetricFamily> &families() const { return Families; }
  const MetricFamily *find(const std::string &Name) const;

  /// Prometheus text exposition format v0.0.4.  Timing families carry a
  /// `# TIMING` comment line so downstream diffs can exclude them; pass
  /// IncludeTiming=false to drop them entirely.
  std::string prometheus(bool IncludeTiming = true) const;

  /// Versioned JSON document: {"schema_version":1,"families":[...]}.
  std::string json(bool IncludeTiming = true) const;

  /// One line per family: its name, then each sample as label=value (an
  /// unlabelled sample prints its value alone); a histogram's value is
  /// n/p50/p95/p99/max in microseconds.  What `fastc --stats` prints.
  std::string text() const;

private:
  std::vector<MetricFamily> Families;
  std::map<std::string, size_t> Index;
};

} // namespace fast::obs

#endif // FAST_OBS_METRICS_H
