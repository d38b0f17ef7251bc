//===- transducers/Session.h - One analysis session -------------*- C++ -*-===//
//
// Part of the fast-transducers project (see support/Hashing.h).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bundles the factories and the solver that every automaton, transducer,
/// and tree of one analysis must share (predicates, output terms and trees
/// are interned, so identity-based algorithms require a single owner).
/// Examples, tests, benchmarks, and the Fast frontend each create one
/// Session and thread it through the API.
///
//===----------------------------------------------------------------------===//

#ifndef FAST_TRANSDUCERS_SESSION_H
#define FAST_TRANSDUCERS_SESSION_H

#include "engine/Engine.h"
#include "smt/Solver.h"
#include "transducers/Output.h"
#include "trees/Tree.h"

#include <memory>

namespace fast {

namespace vm {
class ProgramCache;
} // namespace vm

/// Shared state of one analysis session.
///
/// For parallel runs a session splits into two tiers: freeze() turns the
/// three interning factories into immutable shared artifacts (lock-free
/// concurrent lookups; new interning throws FrozenFactoryError), and each
/// worker builds an overlay Session whose factories resolve base structure
/// to the base pointers while interning new nodes locally.  Each overlay
/// owns its own Solver and its own SessionEngine, so workers never touch
/// the base session's caches, stats, or tracer.  The Solver builds its own
/// Z3 context (Z3 contexts are thread-safe only when not shared) on the
/// overlay's first Z3 check, so an overlay whose guards the built-in tiers
/// decide, or that only runs compiled programs, never builds one.
struct Session {
  /// Tag selecting the worker-overlay constructor.
  struct OverlayTag {};

  TermFactory Terms;
  TreeFactory Trees;
  OutputFactory Outputs;
  Solver Solv;
  /// Compiled-program cache of the vm data plane, created on first use by
  /// vm::programCache(Session&), with the pool of idle Vms attachVm hands
  /// to runners.  Keyed by structural transducer identity; overlay
  /// sessions get their own cache (compiled programs reference
  /// overlay-interned guards that die with the overlay), while programs
  /// compiled against a base session before freeze() stay shareable.
  std::shared_ptr<vm::ProgramCache> VmCache;

  Session() : Solv(Terms) {}

  /// A worker overlay over \p Base, which must be frozen and must outlive
  /// this session.  The overlay's solver copies the base solver's timeout
  /// and ablation knobs; its engine is installed eagerly with environment
  /// configuration suppressed (the base session owns FAST_TRACE — workers
  /// buffer trace events for replay instead).
  Session(OverlayTag, const Session &Base)
      : Terms(&Base.Terms), Trees(&Base.Trees), Outputs(&Base.Outputs),
        Solv(Terms, Base.Solv.timeoutMs()) {
    Solv.setCacheEnabled(Base.Solv.cacheEnabled());
    Solv.setFastPathEnabled(Base.Solv.fastPathEnabled());
    Solv.setExtension(
        std::make_unique<engine::SessionEngine>(Solv, /*ConfigureFromEnv=*/false));
  }

  Session(const Session &) = delete;
  Session &operator=(const Session &) = delete;

  /// Freezes the three interning factories (one-way), making this session
  /// a sharable immutable base for worker overlays.
  void freeze() {
    Terms.freeze();
    Trees.freeze();
    Outputs.freeze();
  }
  bool frozen() const {
    return Terms.frozen() && Trees.frozen() && Outputs.frozen();
  }
  /// True for a worker overlay created over a frozen base session.
  bool isOverlay() const { return Terms.base() != nullptr; }

  /// The exploration engine attached to this session's solver (created on
  /// first use).  Holds the stats registry, the guard cache, and the
  /// exploration budgets shared by every fixpoint construction.
  engine::SessionEngine &engine() { return engine::SessionEngine::of(Solv); }

  /// The session-wide stats registry (counters per construction).
  engine::StatsRegistry &stats() { return engine().Stats; }

  /// The session-wide tracer (spans, slow-query log).
  obs::Tracer &tracer() { return engine().Trace; }

  /// The session-wide provenance store (decl anchors, rule-coverage
  /// ledger); recording is off unless provenance().setEnabled(true).
  obs::ProvenanceStore &provenance() { return engine().Prov; }
};

} // namespace fast

#endif // FAST_TRANSDUCERS_SESSION_H
