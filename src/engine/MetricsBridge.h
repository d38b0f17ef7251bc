//===- engine/MetricsBridge.h - Session stats -> metric families -*- C++ -*-===//
//
// Part of the fast-transducers project (see support/Hashing.h).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The adapter between the session's hot-path statistics structures
/// (StatsRegistry / Solver::Stats / VmStats, which stay plain structs so
/// recording remains a bare increment) and the telemetry plane's exposition
/// model (obs/Metrics.h).  collectSessionMetrics() assembles one
/// MetricsSnapshot covering:
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
///   fast_flightrecorder_*  ring-buffer occupancy and drop accounting
///
//===----------------------------------------------------------------------===//

#ifndef FAST_ENGINE_METRICSBRIDGE_H
#define FAST_ENGINE_METRICSBRIDGE_H

#include "obs/Metrics.h"

namespace fast::engine {

class SessionEngine;

/// Appends every session metric family to \p Snap (see file comment).
/// Family and sample order is deterministic: families in the fixed bridge
/// order, construction labels in name order.
void collectSessionMetrics(const SessionEngine &Eng, obs::MetricsSnapshot &Snap);

} // namespace fast::engine

#endif // FAST_ENGINE_METRICSBRIDGE_H
