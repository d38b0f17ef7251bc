//===- engine/Stats.cpp - Per-construction exploration statistics ---------===//

#include "engine/Stats.h"

using namespace fast;
using namespace fast::engine;

std::span<const obs::CounterField<ConstructionStats>>
ConstructionStats::counters() {
  using C = ConstructionStats;
  static constexpr obs::CounterField<C> Table[] = {
      {"runs", "Construction entries (ConstructionScope)", &C::Runs},
      {"states_explored", "Worklist items expanded by Exploration::run",
       &C::StatesExplored},
      {"states_interned", "Fresh states created through a StateInterner",
       &C::StatesInterned},
      {"rules_emitted", "Output rules produced", &C::RulesEmitted},
      {"sat_queries", "Guard-satisfiability checks through the GuardCache",
       &C::SatQueries},
      {"sat_cache_hits", "Guard checks answered from the GuardCache memo",
       &C::SatCacheHits},
      {"minterm_splits", "Minterm enumerations actually computed",
       &C::MintermSplits},
      {"minterm_cache_hits",
       "Minterm enumerations answered from the split index",
       &C::MintermCacheHits},
      {"minterms_produced", "Satisfiable regions across all computed splits",
       &C::MintermsProduced},
      {"trie_nodes_decided", "Trie region nodes decided",
       &C::TrieNodesDecided},
      {"trie_node_hits", "Trie region nodes revisited with a memoized verdict",
       &C::TrieNodeHits},
      {"trie_subsumed",
       "Trie verdicts answered by ancestor-literal subsumption",
       &C::TrieSubsumed},
      {"wall_ms", "Inclusive wall time inside the construction (ms)",
       nullptr, &C::WallMs},
  };
  return Table;
}

std::span<const obs::HistogramField<ConstructionStats>>
ConstructionStats::histograms() {
  using C = ConstructionStats;
  static constexpr obs::HistogramField<C> Table[] = {
      {"solver_query", "GuardCache memo-miss query latency (us)",
       &C::SolverQueryUs},
      {"minterm_split", "Computed minterm enumeration latency (us)",
       &C::MintermSplitUs},
  };
  return Table;
}

std::span<const obs::CounterField<VmStats>> VmStats::counters() {
  static constexpr obs::CounterField<VmStats> Table[] = {
      {"programs_compiled", "Programs lowered by vm::compileSttr",
       &VmStats::ProgramsCompiled},
      {"ineligible", "Transducers rejected by the eligibility predicate",
       &VmStats::Ineligible},
      {"cache_hits", "Program-cache lookups answered without compiling",
       &VmStats::CacheHits},
      {"runs", "Transductions evaluated by the VM", &VmStats::Runs},
      {"fallback_runs", "Transductions that fell back to the interpreter",
       &VmStats::FallbackRuns},
      {"instructions", "Opcodes dispatched", &VmStats::Instructions},
      {"memo_hits", "Results answered from the VM run memo",
       &VmStats::MemoHits},
      {"lookahead_checks", "Compiled lookahead rule evaluations",
       &VmStats::LookaheadChecks},
      {"arena_nodes", "Output nodes bump-allocated in the arena",
       &VmStats::ArenaNodes},
      {"interned_nodes", "TreeRefs materialized by the intern-on-exit pass",
       &VmStats::InternedNodes},
  };
  return Table;
}

std::span<const obs::HistogramField<VmStats>> VmStats::histograms() {
  static constexpr obs::HistogramField<VmStats> Table[] = {
      {"compile", "Per-program compile latency (us)", &VmStats::CompileUs},
      {"run", "Per-run VM latency (us)", &VmStats::RunUs},
  };
  return Table;
}

std::span<const obs::CounterField<ProgramStats>> ProgramStats::counters() {
  static constexpr obs::CounterField<ProgramStats> Table[] = {
      {"assertions", "Assertions evaluated", &ProgramStats::Assertions},
      {"assertions_failed", "Assertions that failed",
       &ProgramStats::AssertionsFailed},
      {"program_runs", "Fast programs evaluated", &ProgramStats::Runs},
  };
  return Table;
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
