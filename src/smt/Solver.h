//===- smt/Solver.h - Z3-backed decision procedure --------------*- C++ -*-===//
//
// Part of the fast-transducers project (see support/Hashing.h).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The decision procedure for the label theory, backed by Z3 (the same
/// solver the paper's implementation uses).  All automata/transducer
/// algorithms consult the theory exclusively through this interface, which
/// realizes the paper's requirement that the label theory be a decidable
/// effective Boolean algebra: satisfiability, validity, implication,
/// equivalence, and model (witness) generation.
///
/// Results of satisfiability queries are cached by term identity; the cache
/// can be disabled for the ablation benchmark.
///
/// The Z3 context is built by the first check that reaches Z3 (isSat past
/// the built-in procedure, or getModel), not by the constructor: a session
/// whose guards the trivial, cached, built-in and subsumption tiers all
/// decide — the sanitizer's, an overlay that only runs compiled programs —
/// never pays the millisecond a context costs.
///
//===----------------------------------------------------------------------===//

#ifndef FAST_SMT_SOLVER_H
#define FAST_SMT_SOLVER_H

#include "obs/Literal.h"
#include "obs/Metrics.h"
#include "smt/Term.h"
#include "support/Hashing.h"
#include "support/RelaxedCell.h"

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>

namespace fast {

namespace obs {
class Tracer;
}

/// Three-valued answer of the cheap (never-Z3) implication check.
enum class Trilean { False, True, Unknown };

/// A model for the attributes mentioned in a satisfiable predicate: maps
/// each Attr term to a concrete value.  Attributes not mentioned by the
/// predicate are unconstrained and absent from the map.
using AttrModel = std::unordered_map<TermRef, Value>;

/// Base class for session-scoped state that higher layers hang off the
/// solver (see engine/Engine.h's SessionEngine).  Owned by the solver so
/// its lifetime matches the analysis session's; term references held by an
/// extension stay valid because the TermFactory outlives the solver.
class SolverExtension {
public:
  virtual ~SolverExtension();
};

/// Satisfiability and equivalence checking for label-theory predicates.
class Solver {
public:
  /// Creates a solver working over terms of \p Factory.  \p TimeoutMs bounds
  /// each individual Z3 query (0 = no limit).  Builds no Z3 context.
  explicit Solver(TermFactory &Factory, unsigned TimeoutMs = 10000);
  ~Solver();
  Solver(const Solver &) = delete;
  Solver &operator=(const Solver &) = delete;

  TermFactory &factory() { return Factory; }

  /// Returns true if \p Pred has a model.  An `unknown` solver answer is
  /// conservatively reported as satisfiable (and counted in stats());
  /// this keeps emptiness-based pruning sound.
  bool isSat(TermRef Pred);
  bool isUnsat(TermRef Pred) { return !isSat(Pred); }

  /// Validity of \p Pred, answered through the cached sat-of-negation
  /// core and memoized by term identity.
  bool isValid(TermRef Pred);

  /// Implication A => B, answered through one cached sat-of-negation core
  /// (isSat(A && !B)) after the cheap syntactic/fragment check
  /// (impliesFast); repeated implication queries never re-enter Z3.
  bool implies(TermRef A, TermRef B);

  /// Equivalence as two cached implications, so each direction reuses any
  /// implication already decided elsewhere.
  bool areEquivalent(TermRef A, TermRef B);

  /// The cheap implication check consulted before any solver call:
  /// constant folding, syntactic subsumption on hash-consed operand lists
  /// (a conjunction implies each conjunct, a disjunct implies its
  /// disjunction, ...), and the built-in fragment on {A, not B}.  Never
  /// calls Z3; Unknown means "needs the full solver".  Definite answers
  /// are memoized in the implication cache shared with implies().
  Trilean impliesFast(TermRef A, TermRef B);

  /// Satisfiability of the conjunction of \p Literals: one minterm-trie
  /// region check, counted in Stats::ScopedChecks and answered through
  /// isSat on the conjunction term, so trie verdicts and one-shot guard
  /// queries over the same region share one SatCache entry.  An empty
  /// span is the empty conjunction (sat).
  bool checkSat(std::span<const TermRef> Literals);

  /// Returns a model of \p Pred, or nullopt if unsat (or unknown).
  std::optional<AttrModel> getModel(TermRef Pred);

  /// Query counters, listed once in their field tables (Solver.cpp).
  struct Stats {
    RelaxedCell<uint64_t> Queries;
    RelaxedCell<uint64_t> CacheHits;
    RelaxedCell<uint64_t> SatAnswers;
    RelaxedCell<uint64_t> UnsatAnswers;
    RelaxedCell<uint64_t> UnknownAnswers;
    /// Queries answered by the built-in procedure without touching Z3.
    RelaxedCell<uint64_t> FastPathAnswers;
    /// Queries that were literally the constant true/false term.
    RelaxedCell<uint64_t> TrivialAnswers;
    /// Queries that reached a decision core (built-in procedure or Z3),
    /// i.e. were not answered trivially, from a cache, or by subsumption.
    RelaxedCell<uint64_t> CoreChecks;
    /// Actual Z3 check() invocations (satisfiability only; model
    /// extraction is counted separately).
    RelaxedCell<uint64_t> Z3Checks;
    /// Z3 check() invocations issued on behalf of getModel().
    RelaxedCell<uint64_t> Z3ModelChecks;
    /// Minterm-trie region checks: checkSat() calls, each also counted in
    /// Queries by the isSat it makes.
    RelaxedCell<uint64_t> ScopedChecks;
    /// Queries answered by the cheap syntactic/fragment implication check
    /// (impliesFast) instead of a decision core.
    RelaxedCell<uint64_t> SubsumptionAnswers;
    /// implies() entry points.
    RelaxedCell<uint64_t> ImplicationQueries;
    /// impliesFast() calls answered from the implication cache, whoever
    /// made them: implies(), minterm-trie descent or conjunct-pair
    /// refutation.  Not a subset of ImplicationQueries.
    RelaxedCell<uint64_t> ImplicationCacheHits;
    /// Latency of individual Z3 check() invocations (sat and model
    /// checks), per call; percentile source for the benchmarks.
    obs::LatencyHistogram Z3CheckUs;

    static std::span<const obs::CounterField<Stats>> counters();
    static std::span<const obs::HistogramField<Stats>> histograms();

    /// Accumulates \p Other (counter sums, histogram merge); the
    /// join-point merge of a worker solver's counters into the base's.
    void mergeFrom(const Stats &Other) { obs::mergeFields(*this, Other); }
  };
  const Stats &stats() const { return Counters; }
  void resetStats() { Counters = Stats(); }

  /// Returns the solver to its just-constructed state while keeping what
  /// is expensive to create: the Z3 context, if a check has built one, and
  /// isSat's Z3 solver, which holds no assertion between queries.  Drops
  /// every sat/validity/implication cache entry, the term-to-Z3
  /// translation memo, and getModel's Z3 solver, so witnesses stay those
  /// of a fresh solver.  The pooled worker-context reset path calls this
  /// before its overlay term factory is reset, so no cache survives that
  /// is keyed by about-to-dangle TermRefs.  Stats are left alone
  /// (resetStats is separate).
  void resetForReuse();
  /// True once a check has reached Z3 and built this solver's context.
  bool hasZ3Context() const { return Z3 != nullptr; }
  /// Join-point merge of a worker solver's counters into this solver's.
  void mergeStatsFrom(const Solver &Other) { Counters.mergeFrom(Other.Counters); }

  /// Enables/disables the satisfiability/validity/implication caches
  /// (ablation knob).
  void setCacheEnabled(bool Enabled);
  bool cacheEnabled() const { return CacheEnabled; }

  /// Enables/disables the built-in decision procedure consulted before
  /// Z3 (smt/SimpleSolver.h); on by default (ablation knob).
  void setFastPathEnabled(bool Enabled) { FastPathEnabled = Enabled; }
  bool fastPathEnabled() const { return FastPathEnabled; }

  /// The per-query Z3 timeout this solver was created with, so worker
  /// solvers can be configured identically to the base session's.  Set on
  /// each Z3 solver object when the context builds it.
  unsigned timeoutMs() const { return TimeoutMs; }

  /// The installed session extension, or null.
  SolverExtension *extension() const { return Ext.get(); }
  /// Installs (replacing any previous) the session extension.
  void setExtension(std::unique_ptr<SolverExtension> Extension) {
    Ext = std::move(Extension);
  }

  /// Attaches the session tracer (set by the SessionEngine; may be null).
  /// Z3-reaching checks then emit leaf spans to it and report to its
  /// slow-query log; the solver never owns the tracer.
  void setTracer(obs::Tracer *T) { Trace = T; }

private:
  struct Impl;

  /// The Z3 context and its solvers, built on first use.
  Impl &z3Context();

  /// True when two conjuncts of \p Conj refute each other by the cheap
  /// implication check; the sat core's last resort before Z3.
  bool conjunctPairRefuted(TermRef Conj);

  struct TermPairHash {
    size_t operator()(const std::pair<TermRef, TermRef> &P) const {
      size_t Seed = std::hash<TermRef>{}(P.first);
      hashCombineValue(Seed, P.second);
      return Seed;
    }
  };

  /// Records one finished Z3 check of \p Pred (\p Kind names the entry
  /// point) taking \p Us: into the latency histogram, the slow-query log,
  /// and — when the tracer is active — as a leaf span started at
  /// \p SpanStartUs on the tracer's clock (ignored otherwise).
  void observeZ3Check(obs::Literal Kind, TermRef Pred, double Us,
                      double SpanStartUs);

  TermFactory &Factory;
  /// Null until the first check that reaches Z3 (see z3Context).
  std::unique_ptr<Impl> Z3;
  std::unique_ptr<SolverExtension> Ext;
  obs::Tracer *Trace = nullptr;
  std::unordered_map<TermRef, bool> SatCache;
  std::unordered_map<TermRef, bool> ValidCache;
  /// (A, B) -> does A imply B.  Shared by implies() and impliesFast();
  /// Unknown entries record "the cheap check cannot decide this pair" so
  /// trie descent does not retry the fragment on every visit.
  std::unordered_map<std::pair<TermRef, TermRef>, Trilean, TermPairHash>
      ImplCache;
  bool CacheEnabled = true;
  bool FastPathEnabled = true;
  unsigned TimeoutMs = 0;
  Stats Counters;
};

} // namespace fast

#endif // FAST_SMT_SOLVER_H
