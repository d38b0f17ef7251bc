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

void MetricsSnapshot::addCounter(std::string Name, std::string Help,
                                 double Value, bool Timing) {
  MetricFamily &F =
      family(std::move(Name), MetricKind::Counter, std::move(Help), Timing);
  F.Samples.push_back(MetricSample{{}, Value, {}});
}

void MetricsSnapshot::addGauge(std::string Name, std::string Help,
                               double Value, bool Timing) {
  MetricFamily &F =
      family(std::move(Name), MetricKind::Gauge, std::move(Help), Timing);
  F.Samples.push_back(MetricSample{{}, Value, {}});
}

void MetricsSnapshot::addHistogram(std::string Name, std::string Help,
                                   const LatencyHistogram &H, bool Timing) {
  MetricFamily &F =
      family(std::move(Name), MetricKind::Histogram, std::move(Help), Timing);
  F.Samples.push_back(MetricSample{{}, 0, H});
}

const MetricFamily *MetricsSnapshot::find(const std::string &Name) const {
  auto It = Index.find(Name);
  return It == Index.end() ? nullptr : &Families[It->second];
}

namespace {

/// Renders a metric value the same way in both exposition formats: integral
/// values (the common case — every counter is a summed uint64) print with no
/// fraction, everything else with three fixed decimals.  Deterministic, so
/// snapshot diffs compare cleanly.
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

/// Escapes a Prometheus label value: backslash, double-quote, newline.
std::string promEscape(std::string_view Text) {
  std::string Out;
  Out.reserve(Text.size());
  for (char C : Text) {
    switch (C) {
    case '\\':
      Out += "\\\\";
      break;
    case '"':
      Out += "\\\"";
      break;
    case '\n':
      Out += "\\n";
      break;
    default:
      Out += C;
    }
  }
  return Out;
}

void renderLabels(std::ostringstream &Out, const MetricSample &S) {
  if (S.Labels.empty())
    return;
  Out << '{';
  bool First = true;
  for (const auto &[K, V] : S.Labels) {
    if (!First)
      Out << ',';
    First = false;
    Out << K << "=\"" << promEscape(V) << '"';
  }
  Out << '}';
}

/// Renders labels with one extra `le` pair appended, for histogram buckets.
void renderBucketLabels(std::ostringstream &Out, const MetricSample &S,
                        const std::string &Le) {
  Out << '{';
  for (const auto &[K, V] : S.Labels)
    Out << K << "=\"" << promEscape(V) << "\",";
  Out << "le=\"" << Le << "\"}";
}

const char *kindName(MetricKind K) {
  switch (K) {
  case MetricKind::Counter:
    return "counter";
  case MetricKind::Gauge:
    return "gauge";
  case MetricKind::Histogram:
    return "histogram";
  }
  return "untyped";
}

/// Index of the last non-empty bucket, or 0 for an empty histogram.  Buckets
/// past it fold into +Inf so exposition stays compact.
size_t lastUsedBucket(const LatencyHistogram &H) {
  size_t Last = 0;
  for (size_t I = 0; I < LatencyHistogram::NumBuckets; ++I)
    if (H.buckets()[I] != 0)
      Last = I;
  return Last;
}

} // namespace

std::string MetricsSnapshot::prometheus(bool IncludeTiming) const {
  std::ostringstream Out;
  for (const MetricFamily &F : Families) {
    if (F.Timing && !IncludeTiming)
      continue;
    if (!F.Help.empty())
      Out << "# HELP " << F.Name << ' ' << F.Help << '\n';
    Out << "# TYPE " << F.Name << ' ' << kindName(F.Kind) << '\n';
    if (F.Timing)
      Out << "# TIMING " << F.Name << '\n';
    for (const MetricSample &S : F.Samples) {
      if (F.Kind == MetricKind::Histogram) {
        // Cumulative le buckets: bucket 0 holds samples < 1us (le="1");
        // bucket i >= 1 holds [2^(i-1), 2^i) us (le="2^i"); everything
        // beyond the last used bucket folds into +Inf.
        uint64_t Cum = 0;
        size_t Last = lastUsedBucket(S.Hist);
        for (size_t I = 0; I <= Last; ++I) {
          Cum += S.Hist.buckets()[I];
          Out << F.Name << "_bucket";
          std::ostringstream Le;
          Le << (uint64_t(1) << I);
          renderBucketLabels(Out, S, Le.str());
          Out << ' ' << Cum << '\n';
        }
        Out << F.Name << "_bucket";
        renderBucketLabels(Out, S, "+Inf");
        Out << ' ' << S.Hist.count() << '\n';
        Out << F.Name << "_sum";
        renderLabels(Out, S);
        Out << ' ' << formatValue(S.Hist.sumUs()) << '\n';
        Out << F.Name << "_count";
        renderLabels(Out, S);
        Out << ' ' << S.Hist.count() << '\n';
        continue;
      }
      Out << F.Name;
      renderLabels(Out, S);
      Out << ' ' << formatValue(S.Value) << '\n';
    }
  }
  return Out.str();
}

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
        << kindName(F.Kind) << "\",\"help\":\"" << jsonEscape(F.Help)
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
