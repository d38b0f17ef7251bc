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
/// `--metrics` its JSON document (written once, by writeMetricsFile, when
/// fastc exits), and the benchmark records' `engine` objects its JSON
/// without timing families.
///
/// No thread reads a live registry: parallel workers merge their shards
/// under the runner's mutex, and the session thread collects after the
/// join.
///
//===----------------------------------------------------------------------===//

#ifndef FAST_ENGINE_METRICSBRIDGE_H
#define FAST_ENGINE_METRICSBRIDGE_H

#include "obs/Metrics.h"

#include <string>

namespace fast::engine {

class SessionEngine;

/// Appends every session metric family to \p Snap (see file comment).
/// Family and sample order is deterministic: families in the fixed bridge
/// order, construction labels in name order.
void collectSessionMetrics(const SessionEngine &Eng, obs::MetricsSnapshot &Snap);

/// Collects the session metrics and writes their JSON document to \p Path:
/// first to <Path>.tmp, then rename(2) over \p Path, so a reader of \p Path
/// never sees a partial document, even if the writer is killed.  False
/// when the file cannot be written.  fastc calls this on every exit after
/// the program ran (--metrics=FILE or FAST_METRICS).
bool writeMetricsFile(const SessionEngine &Eng, const std::string &Path);

} // namespace fast::engine

#endif // FAST_ENGINE_METRICSBRIDGE_H
