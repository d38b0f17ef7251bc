//===- engine/MetricsBridge.h - Session stats -> metric families -*- C++ -*-===//
//
// Part of the fast-transducers project (see support/Hashing.h).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one read path from the session's hot-path statistics structures
/// (StatsRegistry / Solver::Stats / VmStats / ProgramStats, which stay
/// plain structs so recording remains a bare increment) to output.
/// collectSessionMetrics() walks each struct's field tables (see
/// obs/Metrics.h) into one MetricsSnapshot covering:
///
///   fast_engine_*   per-construction counters (labelled by construction),
///                   wall time, and the guard-query / minterm-split
///                   latency histograms
///   fast_solver_*   the session Solver's query/cache/Z3 counters and the
///                   z3_check_us histogram
///   fast_vm_*       the compiled data plane's control+data counters and
///                   compile/run latency histograms (always present, zeros
///                   when the VM never ran)
///   fast_program_runs, fast_assertions[_failed]  the Fast driver's
///                   program-level counters
///
/// Every output renders that snapshot: `fastc --stats` its text(),
/// `--metrics` its exposition, and the benchmark records' `engine`
/// objects its JSON without timing families.
///
/// MetricsFileFlusher writes that snapshot to a file, once or periodically
/// from its own thread while the session runs (`fastc --metrics=FILE`, with
/// FAST_METRICS_INTERVAL_MS for the periodic mode).
///
//===----------------------------------------------------------------------===//

#ifndef FAST_ENGINE_METRICSBRIDGE_H
#define FAST_ENGINE_METRICSBRIDGE_H

#include "obs/Metrics.h"

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

namespace fast::engine {

class SessionEngine;

/// Appends every session metric family to \p Snap (see file comment).
/// Family and sample order is deterministic: families in the fixed bridge
/// order, construction labels in name order.
void collectSessionMetrics(const SessionEngine &Eng, obs::MetricsSnapshot &Snap);

/// Periodically collects the session metrics and writes the exposition to
/// a file, atomically (write <path>.tmp, then rename) so readers never see
/// a partial document even if the process aborts mid-flush.  The format
/// follows the path suffix: ".json" -> JSON document, else Prometheus
/// text.  fastc drives this from --metrics=FILE + FAST_METRICS_INTERVAL_MS.
class MetricsFileFlusher {
public:
  MetricsFileFlusher() = default;
  ~MetricsFileFlusher() { stop(); }
  MetricsFileFlusher(const MetricsFileFlusher &) = delete;
  MetricsFileFlusher &operator=(const MetricsFileFlusher &) = delete;

  /// Starts the flush thread; writes every \p IntervalMs until stop().
  /// Flushes once immediately so a file exists from the start.
  void start(const SessionEngine &Eng, std::string Path, unsigned IntervalMs);

  /// Final flush + join.  Idempotent; the destructor calls it too.
  void stop();

  bool running() const { return Thread.joinable(); }
  uint64_t flushCount() const;

  /// One atomic collect+write (also the body of each periodic tick).
  /// Exposed so fastc's non-periodic --metrics path shares the writer.
  /// Every writer of \p Path shares \p Path.tmp, so call it only while no
  /// flusher thread writes the same path (stop() that flusher first).
  static bool flushOnce(const SessionEngine &Eng, const std::string &Path);

private:
  const SessionEngine *Engine = nullptr;
  std::string Path;
  unsigned IntervalMs = 0;
  std::thread Thread;
  mutable std::mutex Mu;
  std::condition_variable Cv;
  bool Stop = false;
  uint64_t Flushes = 0;
};

} // namespace fast::engine

#endif // FAST_ENGINE_METRICSBRIDGE_H
