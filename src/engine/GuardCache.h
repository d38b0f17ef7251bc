//===- engine/GuardCache.h - Session guard-sat & minterm memo ---*- C++ -*-===//
//
// Part of the fast-transducers project (see support/Hashing.h).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A per-session memo for guard satisfiability/validity and minterm
/// enumerations, keyed on interned term identity and layered over
/// the Solver's own caches.  Every construction issues its guard queries
/// through this cache, so identical queries recurring across
/// constructions (e.g. determinize-then-product pipelines in type
/// checking) are answered once per session, and every query is attributed
/// to the innermost active ConstructionScope of the Stats registry.
///
/// Minterm enumerations go through the session-wide MintermTrie
/// (smt/MintermTrie.h): overlapping guard sets share previously decided
/// region prefixes instead of recomputing them, and repeat enumerations
/// of the same canonical set are answered from the trie's split index.
///
//===----------------------------------------------------------------------===//

#ifndef FAST_ENGINE_GUARDCACHE_H
#define FAST_ENGINE_GUARDCACHE_H

#include "engine/Stats.h"
#include "smt/MintermTrie.h"
#include "smt/Solver.h"

#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

namespace fast::engine {

class GuardCache {
public:
  GuardCache(Solver &Solv, StatsRegistry &Stats);
  ~GuardCache();
  GuardCache(const GuardCache &) = delete;
  GuardCache &operator=(const GuardCache &) = delete;

  Solver &solver() { return Solv; }
  TermFactory &factory() { return Solv.factory(); }

  /// Satisfiability of \p Pred, memoized by term identity.
  bool isSat(TermRef Pred);
  bool isUnsat(TermRef Pred) { return !isSat(Pred); }

  /// Validity of \p Pred, memoized by term identity.
  bool isValid(TermRef Pred);

  /// The minterm partition of \p Guards.  The input is canonicalized
  /// (sorted by term id, deduplicated) before lookup, so any permutation
  /// or duplication of the same guard set hits the same trie paths.  The
  /// returned reference is stable for the session's lifetime.
  const MintermSplit &minterms(std::span<const TermRef> Guards);

  /// Enables/disables trie-based enumeration (ablation knob).  Disabled,
  /// minterms() computes fresh sets with the naive computeMinterms loop;
  /// the split index still memoizes whole sets (the pre-trie behaviour).
  void setTrieEnabled(bool Enabled) { TrieEnabled = Enabled; }
  bool trieEnabled() const { return TrieEnabled; }

  /// The session-wide trie (for stats reporting).
  MintermTrie &trie() { return *Trie; }

  /// Drops every memoized verdict and the whole minterm trie (split
  /// index included).  The pooled worker-context reset path calls
  /// this before the overlay term factory is reset: the memos and trie
  /// are keyed by TermRefs that are about to dangle, and a reused
  /// context must answer queries exactly as a fresh one would.
  /// Invalidates every MintermSplit reference minterms() has returned.
  void clearMemos();

  StatsRegistry &statsRegistry() { return Stats; }

private:
  /// Bumps \p CounterField on the innermost active construction.
  template <typename Field> void count(Field ConstructionStats::*Counter) {
    if (ConstructionStats *C = Stats.current())
      ++(C->*Counter);
  }

  /// Records a memo-miss query latency on the innermost construction.
  void recordQueryLatency(double Us);

  Solver &Solv;
  StatsRegistry &Stats;
  std::unordered_map<TermRef, bool> SatMemo;
  std::unordered_map<TermRef, bool> ValidMemo;
  std::unique_ptr<MintermTrie> Trie;
  bool TrieEnabled = true;
};

} // namespace fast::engine

#endif // FAST_ENGINE_GUARDCACHE_H
