//===- engine/Engine.h - Session-scoped exploration engine ------*- C++ -*-===//
//
// Part of the fast-transducers project (see support/Hashing.h).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// SessionEngine bundles the pieces every fixpoint construction shares
/// within one analysis session: the Stats registry, the observability
/// Tracer, the GuardCache, and the default ExplorationLimits.  It is
/// attached to the session's Solver as its SolverExtension (a Session owns
/// exactly one Solver, so per-Solver means per-Session), which lets
/// construction entry points that receive only a `Solver &` reach the
/// shared state without threading a new context parameter through every
/// caller.
///
/// Construction wires the tracer through the stack: the Stats registry
/// reports construction spans to it, the Solver reports individual query
/// latencies and slow queries, and FAST_TRACE in the environment attaches
/// a sink without code changes.
///
//===----------------------------------------------------------------------===//

#ifndef FAST_ENGINE_ENGINE_H
#define FAST_ENGINE_ENGINE_H

#include "engine/Exploration.h"
#include "engine/GuardCache.h"
#include "engine/StateInterner.h"
#include "engine/Stats.h"
#include "obs/Provenance.h"
#include "obs/Tracer.h"

namespace fast::engine {

class SessionEngine : public SolverExtension {
public:
  /// The engine of \p Solv's session, created and installed on first use.
  /// An engine installed on one solver is never handed out for another:
  /// of() verifies the binding, so two live Sessions can never alias one
  /// engine's caches/stats even if an extension is moved between solvers.
  static SessionEngine &of(Solver &Solv);

  /// \p ConfigureFromEnv applies FAST_TRACE to the new tracer; worker
  /// contexts of a parallel run pass false, because the base session
  /// already owns the trace file and workers buffer their events for
  /// replay into it instead.
  explicit SessionEngine(Solver &Solv, bool ConfigureFromEnv = true)
      : Solv(Solv), Guards(Solv, Stats) {
    if (ConfigureFromEnv)
      Trace.configureFromEnv();
    Stats.setTracer(&Trace);
    Solv.setTracer(&Trace);
  }
  ~SessionEngine() { Solv.setTracer(nullptr); }

  Solver &Solv;
  StatsRegistry Stats;
  /// Session tracing/profiling hub (spans, slow-query log); inactive
  /// until a sink is attached.
  obs::Tracer Trace;
  GuardCache Guards;
  /// Budgets applied by every construction's Exploration; unlimited by
  /// default.  Exceeding one makes the construction throw ExplorationError.
  ExplorationLimits Limits;
  /// Provenance anchors + rule-coverage ledger (see obs/Provenance.h);
  /// recording is off until Prov.setEnabled(true).
  obs::ProvenanceStore Prov;
};

} // namespace fast::engine

#endif // FAST_ENGINE_ENGINE_H
