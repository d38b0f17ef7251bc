//===- obs/Metrics.cpp - Metric snapshots + exposition --------------------===//
//
// Part of the fast-transducers project (see support/Hashing.h).
//
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"

#include "obs/TraceSink.h"

#include <cmath>
#include <sstream>

namespace fast::obs {

//===----------------------------------------------------------------------===//
// MetricsSnapshot
//===----------------------------------------------------------------------===//

MetricFamily &MetricsSnapshot::family(std::string Name, MetricKind Kind,
                                      std::string Help, bool Timing) {
  auto It = Index.find(Name);
  if (It != Index.end())
    return Families[It->second];
  Index.emplace(Name, Families.size());
  Families.push_back(
      MetricFamily{std::move(Name), std::move(Help), Kind, Timing, {}});
  return Families.back();
}

const MetricFamily *MetricsSnapshot::find(const std::string &Name) const {
  auto It = Index.find(Name);
  return It == Index.end() ? nullptr : &Families[It->second];
}

namespace {

/// Renders a metric value the same way in the JSON document and the text:
/// integral values (the common case — every counter is a summed uint64)
/// print with no fraction, everything else with three fixed decimals.
/// Deterministic, so snapshot diffs compare cleanly.
std::string formatValue(double V) {
  if (std::floor(V) == V && std::abs(V) < 9.007199254740992e15) {
    std::ostringstream Out;
    Out << static_cast<long long>(V);
    return Out.str();
  }
  std::ostringstream Out;
  Out.precision(3);
  Out << std::fixed << V;
  return Out.str();
}

/// Index of the last non-empty bucket, or 0 for an empty histogram.  The
/// JSON document omits the empty buckets past it, so it stays compact.
size_t lastUsedBucket(const LatencyHistogram &H) {
  size_t Last = 0;
  for (size_t I = 0; I < LatencyHistogram::NumBuckets; ++I)
    if (H.buckets()[I] != 0)
      Last = I;
  return Last;
}

} // namespace

std::string MetricsSnapshot::json(bool IncludeTiming) const {
  std::ostringstream Out;
  Out << "{\"schema_version\":" << SchemaVersion << ",\"families\":[";
  bool FirstFamily = true;
  for (const MetricFamily &F : Families) {
    if (F.Timing && !IncludeTiming)
      continue;
    if (!FirstFamily)
      Out << ',';
    FirstFamily = false;
    Out << "{\"name\":\"" << jsonEscape(F.Name) << "\",\"type\":\""
        << (F.Kind == MetricKind::Histogram ? "histogram" : "counter")
        << "\",\"help\":\"" << jsonEscape(F.Help)
        << "\",\"timing\":" << (F.Timing ? "true" : "false")
        << ",\"samples\":[";
    bool FirstSample = true;
    for (const MetricSample &S : F.Samples) {
      if (!FirstSample)
        Out << ',';
      FirstSample = false;
      Out << "{\"labels\":{";
      bool FirstLabel = true;
      for (const auto &[K, V] : S.Labels) {
        if (!FirstLabel)
          Out << ',';
        FirstLabel = false;
        Out << '"' << jsonEscape(K) << "\":\"" << jsonEscape(V) << '"';
      }
      Out << '}';
      if (F.Kind == MetricKind::Histogram) {
        Out << ",\"count\":" << S.Hist.count()
            << ",\"sum_us\":" << formatValue(S.Hist.sumUs())
            << ",\"max_us\":" << formatValue(S.Hist.maxUs())
            << ",\"buckets\":[";
        size_t Last = lastUsedBucket(S.Hist);
        for (size_t I = 0; I <= Last; ++I) {
          if (I)
            Out << ',';
          Out << S.Hist.buckets()[I];
        }
        Out << "]}";
      } else {
        Out << ",\"value\":" << formatValue(S.Value) << '}';
      }
    }
    Out << "]}";
  }
  Out << "]}";
  return Out.str();
}

std::string MetricsSnapshot::text() const {
  std::ostringstream Out;
  for (const MetricFamily &F : Families) {
    Out << F.Name;
    for (const MetricSample &S : F.Samples) {
      Out << ' ';
      for (size_t I = 0; I < S.Labels.size(); ++I)
        Out << (I ? "," : "") << S.Labels[I].second;
      if (!S.Labels.empty())
        Out << '=';
      if (F.Kind != MetricKind::Histogram)
        Out << formatValue(S.Value);
      else
        Out << S.Hist.count() << '/' << formatValue(S.Hist.percentileUs(50))
            << '/' << formatValue(S.Hist.percentileUs(95)) << '/'
            << formatValue(S.Hist.percentileUs(99)) << '/'
            << formatValue(S.Hist.maxUs());
    }
    Out << '\n';
  }
  return Out.str();
}

} // namespace fast::obs
