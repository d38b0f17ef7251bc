//===- engine/Stats.h - Per-construction exploration statistics -*- C++ -*-===//
//
// Part of the fast-transducers project (see support/Hashing.h).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A session-wide registry of statistics for the reachable-state fixpoint
/// constructions (normalize/product, determinize, compose, pre-image,
/// domain, clean).  Every engine piece — StateInterner, Exploration,
/// GuardCache — records into the ConstructionStats of the construction it
/// is running for; nested constructions (e.g. the normalization performed
/// inside composition) attribute their counters to the innermost active
/// ConstructionScope.  Besides event counters, each construction keeps
/// log-scale latency histograms for the guard queries and minterm splits
/// issued on its behalf (reported as p50/p95/p99).  Each struct lists its
/// counters once, in its field tables (Stats.cpp), which mergeFrom and
/// collectSessionMetrics walk; every output renders that snapshot (see
/// engine/MetricsBridge.h).
///
/// When the registry's tracer is set (the SessionEngine wires its own),
/// every ConstructionScope additionally emits a span to the active tracer's
/// sink, carrying the counter deltas accumulated while it was innermost.
///
//===----------------------------------------------------------------------===//

#ifndef FAST_ENGINE_STATS_H
#define FAST_ENGINE_STATS_H

#include "obs/Metrics.h"
#include "obs/Tracer.h"
#include "support/RelaxedCell.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace fast::engine {

/// Counters for one named construction, accumulated over every run of that
/// construction within a session.
struct ConstructionStats {
  /// Number of times the construction was entered (ConstructionScope).
  RelaxedCell<uint64_t> Runs;
  /// Worklist items expanded by Exploration::run.
  RelaxedCell<uint64_t> StatesExplored;
  /// Fresh states/items created through a StateInterner.
  RelaxedCell<uint64_t> StatesInterned;
  /// Output rules produced.
  RelaxedCell<uint64_t> RulesEmitted;
  /// Guard-satisfiability checks issued through the GuardCache.
  RelaxedCell<uint64_t> SatQueries;
  /// ... of which were answered from the GuardCache's memo.
  RelaxedCell<uint64_t> SatCacheHits;
  /// Minterm enumerations actually computed (split-index misses).
  RelaxedCell<uint64_t> MintermSplits;
  /// Minterm enumerations answered from the trie's split index.
  RelaxedCell<uint64_t> MintermCacheHits;
  /// Total satisfiable regions across all computed splits.
  RelaxedCell<uint64_t> MintermsProduced;
  /// Trie region nodes decided (verdict computed) for this construction.
  RelaxedCell<uint64_t> TrieNodesDecided;
  /// Trie region nodes revisited with a memoized verdict.
  RelaxedCell<uint64_t> TrieNodeHits;
  /// Trie node verdicts answered by ancestor-literal subsumption instead
  /// of a solver checkSat.
  RelaxedCell<uint64_t> TrieSubsumed;
  /// Inclusive wall time spent inside the construction, in milliseconds.
  /// Nested constructions are included in their parents' time but record
  /// their event counters only to themselves.
  RelaxedCell<double> WallMs;
  /// Latency of GuardCache queries that missed the memo (the calls that
  /// actually reached the solver stack), per query.
  obs::LatencyHistogram SolverQueryUs;
  /// Latency of minterm enumerations actually computed (split misses),
  /// per enumeration.
  obs::LatencyHistogram MintermSplitUs;

  /// The field tables, in exposition order (see obs::CounterField).
  static std::span<const obs::CounterField<ConstructionStats>> counters();
  static std::span<const obs::HistogramField<ConstructionStats>>
  histograms();

  /// Accumulates \p Other into this slot (counter sums, histogram merge);
  /// the deterministic join-point merge of per-worker stats shards.
  void mergeFrom(const ConstructionStats &Other) {
    obs::mergeFields(*this, Other);
  }
};

/// Counters for the compiled evaluation data plane (src/vm): program
/// compilation/cache traffic on the control side, instruction/arena/memo
/// activity on the data side.  One slot per session, merged across worker
/// shards exactly like construction stats.
struct VmStats {
  /// Programs successfully lowered by vm::compileSttr.
  RelaxedCell<uint64_t> ProgramsCompiled;
  /// Transducers rejected by the eligibility predicate.
  RelaxedCell<uint64_t> Ineligible;
  /// Program-cache lookups answered without compiling (positive or
  /// negative entries).
  RelaxedCell<uint64_t> CacheHits;
  /// Transductions evaluated by the VM.
  RelaxedCell<uint64_t> Runs;
  /// Transductions that fell back to the structural interpreter because
  /// no compiled program was available.
  RelaxedCell<uint64_t> FallbackRuns;
  /// Opcodes dispatched.
  RelaxedCell<uint64_t> Instructions;
  /// (state, node) results answered from the VM's run memo.
  RelaxedCell<uint64_t> MemoHits;
  /// Compiled lookahead rule evaluations (memo misses only).
  RelaxedCell<uint64_t> LookaheadChecks;
  /// Output nodes bump-allocated in the arena.
  RelaxedCell<uint64_t> ArenaNodes;
  /// Distinct TreeRefs materialized by the intern-on-exit pass.
  RelaxedCell<uint64_t> InternedNodes;
  /// Per-program compile latency (cache misses only).
  obs::LatencyHistogram CompileUs;
  /// Per-run VM latency (evaluation plus intern pass).
  obs::LatencyHistogram RunUs;

  static std::span<const obs::CounterField<VmStats>> counters();
  static std::span<const obs::HistogramField<VmStats>> histograms();

  /// Accumulates \p Other into this slot (the worker-shard merge).
  void mergeFrom(const VmStats &Other) { obs::mergeFields(*this, Other); }
};

/// Program-level counters of the Fast driver (fastc): programs evaluated
/// and assertions checked.  Recorded on the base session only.
struct ProgramStats {
  RelaxedCell<uint64_t> Runs;
  RelaxedCell<uint64_t> Assertions;
  RelaxedCell<uint64_t> AssertionsFailed;

  static std::span<const obs::CounterField<ProgramStats>> counters();
  static std::span<const obs::HistogramField<ProgramStats>> histograms() {
    return {};
  }
};

/// The per-session registry, keyed by construction name.
class StatsRegistry {
public:
  /// The (created-on-demand) stats slot for \p Name.  References remain
  /// valid for the registry's lifetime — reset() zeroes slots in place
  /// and never erases them.  Slot creation is serialized against
  /// slotsLock() holders, so a scrape thread iterating constructions()
  /// under the lock never races a map insertion.
  ConstructionStats &construction(std::string_view Name);

  /// Guards the *structure* of the construction map (node creation), not
  /// the counters inside the slots — those are relaxed cells readable
  /// without any lock.  Hold this while iterating constructions() from a
  /// thread that may race new construction names (the periodic metrics
  /// flusher, or perfbench reading counters mid-run).
  std::unique_lock<std::mutex> slotsLock() const {
    return std::unique_lock<std::mutex>(MapMu);
  }

  /// The innermost active ConstructionScope's stats, or null outside any.
  ConstructionStats *current() {
    return ScopeStack.empty() ? nullptr : ScopeStack.back();
  }

  const std::map<std::string, ConstructionStats, std::less<>> &
  constructions() const {
    return Constructions;
  }

  /// The session-wide compiled-data-plane slot (src/vm records here).
  VmStats &vm() { return Vm; }
  const VmStats &vm() const { return Vm; }

  /// The session-wide Fast-program slot (the driver records here).
  ProgramStats &program() { return Program; }
  const ProgramStats &program() const { return Program; }

  /// Accumulates every construction slot of \p Other into this registry —
  /// the join-point merge of a worker context's stats shard.  Commutative
  /// and associative, so merge order cannot influence final counters.
  void mergeFrom(const StatsRegistry &Other);

  /// Zeroes every construction's counters in place.  Slots are never
  /// erased, so ConstructionStats references — including the ones held by
  /// active ConstructionScopes — stay valid across a reset; a scope alive
  /// during the reset simply continues accumulating into its zeroed slot.
  void reset() {
    std::unique_lock<std::mutex> Lock(MapMu);
    for (auto &[Name, C] : Constructions)
      C = ConstructionStats();
    Vm = VmStats();
    Program = ProgramStats();
  }

  /// The session tracer construction scopes report spans to (null until
  /// the SessionEngine installs its own).
  obs::Tracer *tracer() const { return Trace; }
  void setTracer(obs::Tracer *T) { Trace = T; }

private:
  friend class ConstructionScope;
  mutable std::mutex MapMu;
  std::map<std::string, ConstructionStats, std::less<>> Constructions;
  VmStats Vm;
  ProgramStats Program;
  std::vector<ConstructionStats *> ScopeStack;
  obs::Tracer *Trace = nullptr;
};

/// RAII marker: "the session is now inside construction Name".  Counts the
/// run, accumulates inclusive wall time on exit, and makes the construction
/// the attribution target for GuardCache queries issued while active.  With
/// a tracer installed it also pushes the construction label (slow-query
/// attribution) and, when the tracer is active, emits a "construction" span
/// whose end event carries this run's counter deltas.
class ConstructionScope {
public:
  ConstructionScope(StatsRegistry &Registry, obs::Literal Name);
  ~ConstructionScope();
  ConstructionScope(const ConstructionScope &) = delete;
  ConstructionScope &operator=(const ConstructionScope &) = delete;

  ConstructionStats &stats() { return Stats; }

private:
  StatsRegistry &Registry;
  ConstructionStats &Stats;
  std::chrono::steady_clock::time_point Start;
  /// Counter snapshot at entry, taken only when a span is being recorded.
  struct Snapshot {
    uint64_t StatesExplored, StatesInterned, RulesEmitted, SatQueries,
        SatCacheHits, MintermSplits, MintermsProduced;
  } Before;
  bool SpanOpen = false;
};

} // namespace fast::engine

#endif // FAST_ENGINE_STATS_H
