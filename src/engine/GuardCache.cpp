//===- engine/GuardCache.cpp - Session guard-sat & minterm memo -----------===//

#include "engine/GuardCache.h"

#include <algorithm>
#include <chrono>

using namespace fast;
using namespace fast::engine;

namespace {

double usSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - Start)
      .count();
}

} // namespace

GuardCache::GuardCache(Solver &Solv, StatsRegistry &Stats)
    : Solv(Solv), Stats(Stats), Trie(std::make_unique<MintermTrie>(Solv)) {}

GuardCache::~GuardCache() = default;

void GuardCache::clearMemos() {
  SatMemo.clear();
  ValidMemo.clear();
  Trie = std::make_unique<MintermTrie>(Solv);
}

bool GuardCache::isSat(TermRef Pred) {
  count(&ConstructionStats::SatQueries);
  auto [It, Fresh] = SatMemo.try_emplace(Pred, false);
  if (!Fresh) {
    count(&ConstructionStats::SatCacheHits);
    return It->second;
  }
  auto T0 = std::chrono::steady_clock::now();
  It->second = Solv.isSat(Pred);
  recordQueryLatency(usSince(T0));
  return It->second;
}

bool GuardCache::isValid(TermRef Pred) {
  count(&ConstructionStats::SatQueries);
  auto [It, Fresh] = ValidMemo.try_emplace(Pred, false);
  if (!Fresh) {
    count(&ConstructionStats::SatCacheHits);
    return It->second;
  }
  auto T0 = std::chrono::steady_clock::now();
  It->second = Solv.isValid(Pred);
  recordQueryLatency(usSince(T0));
  return It->second;
}

void GuardCache::recordQueryLatency(double Us) {
  if (ConstructionStats *C = Stats.current())
    C->SolverQueryUs.record(Us);
}

const MintermSplit &
GuardCache::minterms(std::span<const TermRef> Guards) {
  std::vector<TermRef> Canonical(Guards.begin(), Guards.end());
  std::sort(Canonical.begin(), Canonical.end(),
            [](TermRef A, TermRef B) { return A->id() < B->id(); });
  Canonical.erase(std::unique(Canonical.begin(), Canonical.end()),
                  Canonical.end());

  // The trie keeps global counters; attribute this call's deltas to the
  // innermost active construction.  Span + latency are recorded only for
  // enumerations actually computed (split-index misses).
  obs::SpanGuard Span(Stats.tracer(), "minterm.split", "smt");
  const MintermTrie::Stats Before = Trie->stats();
  auto T0 = std::chrono::steady_clock::now();
  const MintermSplit &Split = Trie->minterms(Canonical, TrieEnabled);
  double Us = usSince(T0);
  const MintermTrie::Stats &After = Trie->stats();
  bool Computed = After.SplitsComputed != Before.SplitsComputed;
  if (ConstructionStats *C = Stats.current()) {
    C->MintermSplits += After.SplitsComputed - Before.SplitsComputed;
    C->MintermCacheHits += After.SplitHits - Before.SplitHits;
    C->MintermsProduced += After.RegionsEmitted - Before.RegionsEmitted;
    C->TrieNodesDecided += After.NodesDecided - Before.NodesDecided;
    C->TrieNodeHits += After.NodeHits - Before.NodeHits;
    C->TrieSubsumed += After.SubsumptionAnswers - Before.SubsumptionAnswers;
    if (Computed)
      C->MintermSplitUs.record(Us);
  }
  if (Span.live()) {
    const obs::TraceAttr Attrs[] = {
        obs::attr("guards", static_cast<uint64_t>(Canonical.size())),
        obs::attr("regions", static_cast<uint64_t>(Split.Regions.size())),
        obs::attr("computed", static_cast<uint64_t>(Computed ? 1 : 0)),
        obs::attr("nodes_decided", After.NodesDecided - Before.NodesDecided),
        obs::attr("subsumed",
                  After.SubsumptionAnswers - Before.SubsumptionAnswers),
    };
    Span.end(Attrs);
  }
  return Split;
}
