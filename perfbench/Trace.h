//===- perfbench/Trace.h - Spans, counter readings, result metrics -*- C++ -*-===//
//
// Part of the fast-transducers project (see support/Hashing.h).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's own instrumentation.  Everything here sits *outside* the
/// library: spans are opened around the calls the benchmark makes into the
/// layers' public functions, and per-layer counters are deltas of the stats
/// structs the library already exposes (TreeFactory::numNodes, VmStats,
/// Solver::Stats, MintermTrie::Stats, StatsRegistry constructions), read
/// at the same span boundaries.
///
/// Spans live in per-thread in-memory buffers and are written out as JSONL
/// when the run ends.  Tracing off makes every probe a single branch.
///
//===----------------------------------------------------------------------===//

#ifndef FAST_PERFBENCH_TRACE_H
#define FAST_PERFBENCH_TRACE_H

#include "transducers/Session.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

/// Named metric values; per-layer accumulators and result metrics alike.
using MetricMap = std::map<std::string, double>;

/// One recorded span.  Parent indexes the same thread's buffer (-1 for a
/// request root); Request groups the spans of one request.
struct Span {
  const char *Name = "";
  double StartUs = 0;
  double EndUs = 0;
  int32_t Parent = -1;
  uint32_t Request = 0;
  uint32_t Thread = 0;
};

/// Process-wide span recorder.
namespace trace {
void enable(bool On);
bool enabled();
/// Opens a span on the calling thread; returns its buffer index.
int32_t open(const char *Name, uint32_t Request);
void close(int32_t Index);
/// Every recorded span, grouped by thread in recording order.  Call only
/// after all recording threads are done.
std::vector<std::vector<Span>> collect();
/// Writes collect() as one JSON object per line; false on I/O failure.
bool writeJsonl(const std::string &Path);
} // namespace trace

/// Records spans for the lifetime of the object when \p On: workloads wrap
/// their measured loop in one, so set-up and verification stay untraced.
class TracedLoop {
public:
  explicit TracedLoop(bool On) { trace::enable(On); }
  ~TracedLoop() { trace::enable(false); }
  TracedLoop(const TracedLoop &) = delete;
  TracedLoop &operator=(const TracedLoop &) = delete;
};

/// Counter readings of one session at one instant.
struct Reading {
  uint64_t TreeNodes = 0;
  uint64_t VmRuns = 0, VmFallbackRuns = 0, VmInstructions = 0,
           VmMemoHits = 0, VmLookaheadChecks = 0, VmArenaNodes = 0,
           VmInternedNodes = 0;
  uint64_t SmtQueries = 0, SmtCacheHits = 0, SmtCoreChecks = 0,
           SmtZ3Checks = 0, SmtScopedChecks = 0;
  double SmtZ3Us = 0;
  uint64_t TrieNodesDecided = 0, TrieNodeHits = 0, TrieSubsumed = 0;
  uint64_t StatesExplored = 0, RulesEmitted = 0, SatQueries = 0,
           SatCacheHits = 0, MintermSplits = 0, MintermsProduced = 0;
};

Reading read(fast::Session &S);

/// Adds After - Before to the per-layer counters in \p Acc.
void addDelta(MetricMap &Acc, const Reading &Before, const Reading &After);

/// RAII probe around one call into a layer: a span (when tracing) plus the
/// counter delta of \p S across the call, accumulated into \p Acc.  Both
/// are skipped when tracing is off, so untraced runs pay one branch.
class LayerCall {
public:
  LayerCall(const char *Name, uint32_t Request, fast::Session *S = nullptr,
            MetricMap *Acc = nullptr);
  ~LayerCall();
  LayerCall(const LayerCall &) = delete;
  LayerCall &operator=(const LayerCall &) = delete;

private:
  int32_t Index = -1;
  fast::Session *S = nullptr;
  MetricMap *Acc = nullptr;
  Reading Before;
};

/// Machine-speed probe.  The host's speed drifts by tens of percent over
/// minutes (co-located VMs share its caches and memory bandwidth), far more
/// than the bounds this benchmark enforces.  A fixed kernel of the
/// benchmark's own (a chain of integer mixing steps, about 1 ms) is timed
/// between requests, and time metrics are scaled by speed() =
/// reference kernel time / median kernel time of the run: they read as on
/// a quiet host of the reference kind (see kProbeReferenceMs).
class SpeedProbe {
public:
  /// Times the kernel if 100 ms have passed since this thread last did.
  /// Call between requests; safe from several threads.
  void tick();
  double speed() const;
  size_t samples() const;

private:
  mutable std::mutex Mu;
  std::vector<double> KernelMs;
};

/// The process's probe (one workload runs per process).
SpeedProbe &speedProbe();

/// Linear-interpolated percentile of \p Values (P in [0, 100]).
double percentile(std::vector<double> Values, double P);

/// Peak resident set size of this process (VmHWM), in MB.
double peakRssMb();

/// Per-layer metrics derived from the recorded spans: summed time per
/// layer span name ("<name>_ms"), the self time of request roots, i.e. the
/// glue between layer calls ("<root>_self_ms"), the glue's share of
/// request time, and the number of spans that break nesting (a child
/// outside its parent or overlapping a sibling).  With no violations, the
/// layer times plus the glue add up to every request exactly.
void addSpanMetrics(MetricMap &Out);

/// Estimated tracing cost: one probe (span + two readings of \p S) timed
/// in a tight loop, in microseconds.
double probeCostUs(fast::Session &S);

} // namespace perfbench

#endif // FAST_PERFBENCH_TRACE_H
