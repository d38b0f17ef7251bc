//===- obs/Histogram.h - Fixed-bucket log-scale latency histogram -*- C++ -*-===//
//
// Part of the fast-transducers project (see support/Hashing.h).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-size, log2-bucketed latency histogram for microsecond samples.
/// Recording is one bit_width plus two increments, so the engine can keep
/// one histogram per construction without measurable overhead; percentiles
/// are estimated as the geometric midpoint of the bucket containing the
/// target rank.  The struct is copyable, so it lives by value inside
/// ConstructionStats and Solver::Stats and survives their
/// reset-by-assignment idiom.
///
/// Fields are single-writer relaxed atomics (support/RelaxedCell.h).  No
/// thread copies a histogram while its owner records into it (see
/// RelaxedCell.h), but a copy taken mid-record would still satisfy the
/// invariant metrics_check enforces, `sum(buckets) <= count`: record()
/// bumps Count BEFORE the bucket, publishing the bucket with a release
/// store, and the copy path reads every bucket (acquire) BEFORE Count, so
/// any bucket increment a reader observes carries its Count increment.
///
//===----------------------------------------------------------------------===//

#ifndef FAST_OBS_HISTOGRAM_H
#define FAST_OBS_HISTOGRAM_H

#include "support/RelaxedCell.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <sstream>
#include <string>

namespace fast::obs {

/// Log-scale histogram over non-negative microsecond latencies.  Bucket 0
/// holds samples under 1us; bucket i (i >= 1) holds [2^(i-1), 2^i) us; the
/// last bucket is open-ended (~76h and beyond).
class LatencyHistogram {
public:
  static constexpr size_t NumBuckets = 40;

  LatencyHistogram() = default;
  LatencyHistogram(const LatencyHistogram &Other) { assignFrom(Other); }
  LatencyHistogram &operator=(const LatencyHistogram &Other) {
    if (this != &Other)
      assignFrom(Other);
    return *this;
  }

  void record(double Us) {
    if (Us < 0)
      Us = 0;
    uint64_t V = static_cast<uint64_t>(Us);
    size_t Bucket = V == 0 ? 0 : static_cast<size_t>(std::bit_width(V));
    Bucket = std::min(Bucket, NumBuckets - 1);
    SumUs += Us;
    if (Us > MaxUs.load())
      MaxUs.store(Us);
    // Count first, then the bucket with release: a concurrent snapshot that
    // sees this bucket increment (acquire load) must also see the Count
    // increment, keeping sum(buckets) <= count in every observed state.
    Count.store(Count.load() + 1);
    Buckets[Bucket].store(Buckets[Bucket].load() + 1,
                          std::memory_order_release);
  }

  uint64_t count() const { return Count.load(); }
  const std::array<RelaxedCell<uint64_t>, NumBuckets> &buckets() const {
    return Buckets;
  }
  double sumUs() const { return SumUs.load(); }
  double maxUs() const { return MaxUs.load(); }
  double meanUs() const {
    uint64_t N = Count.load();
    return N == 0 ? 0 : SumUs.load() / N;
  }

  /// Estimated latency at percentile \p P in [0, 100]: the geometric
  /// midpoint of the bucket containing the P-th percentile sample (0 for
  /// an empty histogram; the sub-microsecond bucket reports 0.5).
  double percentileUs(double P) const {
    uint64_t N = Count.load();
    if (N == 0)
      return 0;
    uint64_t Rank = static_cast<uint64_t>(P / 100.0 * N);
    Rank = std::min(std::max<uint64_t>(Rank, 1), N);
    uint64_t Seen = 0;
    double Max = MaxUs.load();
    for (size_t I = 0; I < NumBuckets; ++I) {
      Seen += Buckets[I].load();
      if (Seen >= Rank) {
        if (I == 0)
          return 0.5;
        double Lower = static_cast<double>(uint64_t(1) << (I - 1));
        return std::min(Lower * 1.5, Max);
      }
    }
    return Max;
  }

  void merge(const LatencyHistogram &Other) {
    // Same publication order as record(): totals first, buckets last, so a
    // concurrent snapshot of *this* never observes buckets ahead of Count.
    // (\p Other is quiescent at every merge point — the worker joined.)
    SumUs += Other.SumUs.load();
    if (Other.MaxUs.load() > MaxUs.load())
      MaxUs.store(Other.MaxUs.load());
    Count.store(Count.load() + Other.Count.load());
    for (size_t I = 0; I < NumBuckets; ++I)
      Buckets[I].store(Buckets[I].load() + Other.Buckets[I].load(),
                       std::memory_order_release);
  }

  /// One-line JSON object with count, mean, p50/p95/p99, and max, all in
  /// microseconds.
  std::string json() const {
    std::ostringstream Out;
    Out.precision(1);
    Out << std::fixed << "{\"count\":" << Count.load()
        << ",\"mean_us\":" << meanUs() << ",\"p50_us\":" << percentileUs(50)
        << ",\"p95_us\":" << percentileUs(95)
        << ",\"p99_us\":" << percentileUs(99) << ",\"max_us\":" << MaxUs.load()
        << "}";
    return Out.str();
  }

private:
  /// Value snapshot honoring the reader side of the ordering protocol:
  /// buckets before Count, so the copy's bucket sum never exceeds its
  /// Count even when \p Other is being recorded into concurrently.
  void assignFrom(const LatencyHistogram &Other) {
    for (size_t I = 0; I < NumBuckets; ++I)
      Buckets[I].store(Other.Buckets[I].load(std::memory_order_acquire));
    Count.store(Other.Count.load());
    SumUs.store(Other.SumUs.load());
    MaxUs.store(Other.MaxUs.load());
  }

  std::array<RelaxedCell<uint64_t>, NumBuckets> Buckets{};
  RelaxedCell<uint64_t> Count{0};
  RelaxedCell<double> SumUs{0};
  RelaxedCell<double> MaxUs{0};
};

} // namespace fast::obs

#endif // FAST_OBS_HISTOGRAM_H
