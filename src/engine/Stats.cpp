//===- engine/Stats.cpp - Per-construction exploration statistics ---------===//

#include "engine/Stats.h"

#include <iomanip>
#include <sstream>

using namespace fast::engine;

void ConstructionStats::mergeFrom(const ConstructionStats &Other) {
  Runs += Other.Runs;
  StatesExplored += Other.StatesExplored;
  StatesInterned += Other.StatesInterned;
  RulesEmitted += Other.RulesEmitted;
  SatQueries += Other.SatQueries;
  SatCacheHits += Other.SatCacheHits;
  MintermSplits += Other.MintermSplits;
  MintermCacheHits += Other.MintermCacheHits;
  MintermsProduced += Other.MintermsProduced;
  TrieNodesDecided += Other.TrieNodesDecided;
  TrieNodeHits += Other.TrieNodeHits;
  TrieSubsumed += Other.TrieSubsumed;
  WallMs += Other.WallMs;
  SolverQueryUs.merge(Other.SolverQueryUs);
  MintermSplitUs.merge(Other.MintermSplitUs);
}

void VmStats::mergeFrom(const VmStats &Other) {
  ProgramsCompiled += Other.ProgramsCompiled;
  Ineligible += Other.Ineligible;
  CacheHits += Other.CacheHits;
  Runs += Other.Runs;
  FallbackRuns += Other.FallbackRuns;
  Instructions += Other.Instructions;
  MemoHits += Other.MemoHits;
  LookaheadChecks += Other.LookaheadChecks;
  ArenaNodes += Other.ArenaNodes;
  InternedNodes += Other.InternedNodes;
  CompileUs.merge(Other.CompileUs);
  RunUs.merge(Other.RunUs);
}

void StatsRegistry::mergeFrom(const StatsRegistry &Other) {
  for (const auto &[Name, C] : Other.Constructions)
    construction(Name).mergeFrom(C);
  Vm.mergeFrom(Other.Vm);
}

ConstructionStats &StatsRegistry::construction(std::string_view Name) {
  std::unique_lock<std::mutex> Lock(MapMu);
  auto It = Constructions.find(Name);
  if (It == Constructions.end())
    It = Constructions.emplace(std::string(Name), ConstructionStats()).first;
  return It->second;
}

std::string StatsRegistry::report() const {
  std::unique_lock<std::mutex> Lock(MapMu);
  std::ostringstream Out;
  Out << std::left << std::setw(14) << "construction" << std::right
      << std::setw(6) << "runs" << std::setw(10) << "explored" << std::setw(10)
      << "interned" << std::setw(8) << "rules" << std::setw(10) << "sat-q"
      << std::setw(10) << "sat-hit" << std::setw(8) << "splits" << std::setw(10)
      << "split-hit" << std::setw(10) << "regions" << std::setw(10)
      << "trie-new" << std::setw(10) << "trie-hit" << std::setw(10)
      << "subsumed" << std::setw(11) << "wall-ms" << "\n";
  for (const auto &[Name, C] : Constructions) {
    Out << std::left << std::setw(14) << Name << std::right << std::setw(6)
        << C.Runs << std::setw(10) << C.StatesExplored << std::setw(10)
        << C.StatesInterned << std::setw(8) << C.RulesEmitted << std::setw(10)
        << C.SatQueries << std::setw(10) << C.SatCacheHits << std::setw(8)
        << C.MintermSplits << std::setw(10) << C.MintermCacheHits
        << std::setw(10) << C.MintermsProduced << std::setw(10)
        << C.TrieNodesDecided << std::setw(10) << C.TrieNodeHits
        << std::setw(10) << C.TrieSubsumed << std::setw(11) << std::fixed
        << std::setprecision(1) << C.WallMs << "\n";
  }

  // Latency table: only constructions that actually reached the solver.
  bool AnyLatency = false;
  for (const auto &[Name, C] : Constructions)
    AnyLatency |= C.SolverQueryUs.count() != 0 || C.MintermSplitUs.count() != 0;
  if (AnyLatency) {
    Out << std::left << std::setw(14) << "latency (us)" << std::right
        << std::setw(10) << "queries" << std::setw(9) << "q-p50" << std::setw(9)
        << "q-p95" << std::setw(9) << "q-p99" << std::setw(10) << "q-max"
        << std::setw(9) << "splits" << std::setw(9) << "s-p50" << std::setw(9)
        << "s-p95" << std::setw(9) << "s-p99" << std::setw(10) << "s-max"
        << "\n";
    for (const auto &[Name, C] : Constructions) {
      if (C.SolverQueryUs.count() == 0 && C.MintermSplitUs.count() == 0)
        continue;
      const obs::LatencyHistogram &Q = C.SolverQueryUs;
      const obs::LatencyHistogram &S = C.MintermSplitUs;
      Out << std::left << std::setw(14) << Name << std::right << std::fixed
          << std::setprecision(0) << std::setw(10) << Q.count() << std::setw(9)
          << Q.percentileUs(50) << std::setw(9) << Q.percentileUs(95)
          << std::setw(9) << Q.percentileUs(99) << std::setw(10) << Q.maxUs()
          << std::setw(9) << S.count() << std::setw(9) << S.percentileUs(50)
          << std::setw(9) << S.percentileUs(95) << std::setw(9)
          << S.percentileUs(99) << std::setw(10) << S.maxUs() << "\n";
    }
  }

  if (!Vm.empty()) {
    Out << std::left << std::setw(14) << "vm plane" << std::right
        << std::setw(10) << "programs" << std::setw(10) << "inelig"
        << std::setw(10) << "cache-hit" << std::setw(8) << "runs"
        << std::setw(10) << "fallback" << std::setw(12) << "instrs"
        << std::setw(10) << "memo-hit" << std::setw(10) << "la-chk"
        << std::setw(10) << "arena" << std::setw(10) << "interned" << "\n";
    Out << std::left << std::setw(14) << "" << std::right << std::setw(10)
        << Vm.ProgramsCompiled << std::setw(10) << Vm.Ineligible
        << std::setw(10) << Vm.CacheHits << std::setw(8) << Vm.Runs
        << std::setw(10) << Vm.FallbackRuns << std::setw(12)
        << Vm.Instructions << std::setw(10) << Vm.MemoHits << std::setw(10)
        << Vm.LookaheadChecks << std::setw(10) << Vm.ArenaNodes
        << std::setw(10) << Vm.InternedNodes << "\n";
    Out << std::left << std::setw(14) << "vm latency(us)" << std::right
        << std::fixed << std::setprecision(0) << std::setw(10)
        << "compile" << std::setw(9) << Vm.CompileUs.percentileUs(50)
        << std::setw(9) << Vm.CompileUs.percentileUs(99) << std::setw(10)
        << Vm.CompileUs.maxUs() << std::setw(9) << "run" << std::setw(9)
        << Vm.RunUs.percentileUs(50) << std::setw(9)
        << Vm.RunUs.percentileUs(95) << std::setw(9)
        << Vm.RunUs.percentileUs(99) << std::setw(10) << Vm.RunUs.maxUs()
        << "\n";
  }
  return Out.str();
}

std::string StatsRegistry::json() const {
  std::unique_lock<std::mutex> Lock(MapMu);
  std::ostringstream Out;
  Out << "{";
  bool First = true;
  for (const auto &[Name, C] : Constructions) {
    if (!First)
      Out << ", ";
    First = false;
    Out << "\"" << Name << "\": {"
        << "\"runs\": " << C.Runs
        << ", \"states_explored\": " << C.StatesExplored
        << ", \"states_interned\": " << C.StatesInterned
        << ", \"rules_emitted\": " << C.RulesEmitted
        << ", \"sat_queries\": " << C.SatQueries
        << ", \"sat_cache_hits\": " << C.SatCacheHits
        << ", \"minterm_splits\": " << C.MintermSplits
        << ", \"minterm_cache_hits\": " << C.MintermCacheHits
        << ", \"minterms_produced\": " << C.MintermsProduced
        << ", \"trie_nodes_decided\": " << C.TrieNodesDecided
        << ", \"trie_node_hits\": " << C.TrieNodeHits
        << ", \"trie_subsumed\": " << C.TrieSubsumed
        << ", \"wall_ms\": " << std::fixed << std::setprecision(3) << C.WallMs
        << ", \"solver_query_us\": " << C.SolverQueryUs.json()
        << ", \"minterm_split_us\": " << C.MintermSplitUs.json() << "}";
  }
  if (!Vm.empty()) {
    if (!First)
      Out << ", ";
    Out << "\"vm\": {"
        << "\"programs_compiled\": " << Vm.ProgramsCompiled
        << ", \"ineligible\": " << Vm.Ineligible
        << ", \"cache_hits\": " << Vm.CacheHits << ", \"runs\": " << Vm.Runs
        << ", \"fallback_runs\": " << Vm.FallbackRuns
        << ", \"instructions\": " << Vm.Instructions
        << ", \"memo_hits\": " << Vm.MemoHits
        << ", \"lookahead_checks\": " << Vm.LookaheadChecks
        << ", \"arena_nodes\": " << Vm.ArenaNodes
        << ", \"interned_nodes\": " << Vm.InternedNodes
        << ", \"compile_us\": " << Vm.CompileUs.json()
        << ", \"run_us\": " << Vm.RunUs.json() << "}";
  }
  Out << "}";
  return Out.str();
}

ConstructionScope::ConstructionScope(StatsRegistry &Registry,
                                     obs::Literal Name)
    : Registry(Registry), Stats(Registry.construction(Name)),
      Start(std::chrono::steady_clock::now()) {
  ++Stats.Runs;
  Registry.ScopeStack.push_back(&Stats);
  if (obs::Tracer *T = Registry.Trace) {
    T->pushConstruction(Name);
    if (T->active()) {
      Before = {Stats.StatesExplored, Stats.StatesInterned, Stats.RulesEmitted,
                Stats.SatQueries,     Stats.SatCacheHits,   Stats.MintermSplits,
                Stats.MintermsProduced};
      T->beginSpan(Name, "construction");
      SpanOpen = true;
    }
  }
}

ConstructionScope::~ConstructionScope() {
  Stats.WallMs += std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - Start)
                      .count();
  Registry.ScopeStack.pop_back();
  if (obs::Tracer *T = Registry.Trace) {
    if (SpanOpen && T->active()) {
      // states_explored and rules_emitted lead: the flight-recorder ring
      // keeps the first two attributes.
      const obs::TraceAttr Attrs[] = {
          obs::attr("states_explored", Stats.StatesExplored - Before.StatesExplored),
          obs::attr("rules_emitted", Stats.RulesEmitted - Before.RulesEmitted),
          obs::attr("states_interned", Stats.StatesInterned - Before.StatesInterned),
          obs::attr("sat_queries", Stats.SatQueries - Before.SatQueries),
          obs::attr("sat_cache_hits", Stats.SatCacheHits - Before.SatCacheHits),
          obs::attr("minterm_splits", Stats.MintermSplits - Before.MintermSplits),
          obs::attr("minterms_produced",
                    Stats.MintermsProduced - Before.MintermsProduced),
      };
      T->endSpan(Attrs);
    }
    T->popConstruction();
  }
}
