//===- engine/MetricsBridge.cpp - Session stats -> metric families --------===//
//
// Part of the fast-transducers project (see support/Hashing.h).
//
//===----------------------------------------------------------------------===//

#include "engine/MetricsBridge.h"

#include "engine/Engine.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <utility>

using namespace fast;
using namespace fast::engine;
using obs::LatencyHistogram;
using obs::MetricFamily;
using obs::MetricKind;
using obs::MetricSample;
using obs::MetricsSnapshot;

namespace {

/// Appends one labelled counter sample to \p Snap.
void addLabelled(MetricsSnapshot &Snap, const std::string &Name,
                 const std::string &Help, const std::string &Construction,
                 double Value, bool Timing = false) {
  MetricFamily &F = Snap.family(Name, MetricKind::Counter, Help, Timing);
  F.Samples.push_back(
      MetricSample{{{"construction", Construction}}, Value, {}});
}

void addLabelledHist(MetricsSnapshot &Snap, const std::string &Name,
                     const std::string &Help, const std::string &Construction,
                     const LatencyHistogram &H) {
  MetricFamily &F =
      Snap.family(Name, MetricKind::Histogram, Help, /*Timing=*/true);
  MetricSample S;
  S.Labels = {{"construction", Construction}};
  S.Hist = H;
  F.Samples.push_back(std::move(S));
}

} // namespace

void fast::engine::collectSessionMetrics(const SessionEngine &Eng,
                                         MetricsSnapshot &Snap) {
  // --- fast_engine_*: per-construction counters (label order = the stats
  // registry's name-sorted map, so exposition is deterministic).  The
  // slots lock serializes this iteration against slot creation on the
  // session thread — the periodic metrics flusher calls this from its own
  // thread mid-run; the counters themselves are relaxed cells and need no
  // lock.
  auto SlotsLock = Eng.Stats.slotsLock();
  for (const auto &[Name, C] : Eng.Stats.constructions()) {
    addLabelled(Snap, "fast_engine_runs_total",
                "Construction entries (ConstructionScope)", Name,
                double(C.Runs));
    addLabelled(Snap, "fast_engine_states_explored_total",
                "Worklist items expanded by Exploration::run", Name,
                double(C.StatesExplored));
    addLabelled(Snap, "fast_engine_states_interned_total",
                "Fresh states created through a StateInterner", Name,
                double(C.StatesInterned));
    addLabelled(Snap, "fast_engine_rules_emitted_total",
                "Output rules produced", Name, double(C.RulesEmitted));
    addLabelled(Snap, "fast_engine_sat_queries_total",
                "Guard-satisfiability checks through the GuardCache", Name,
                double(C.SatQueries));
    addLabelled(Snap, "fast_engine_sat_cache_hits_total",
                "Guard checks answered from the GuardCache memo", Name,
                double(C.SatCacheHits));
    addLabelled(Snap, "fast_engine_minterm_splits_total",
                "Minterm enumerations actually computed", Name,
                double(C.MintermSplits));
    addLabelled(Snap, "fast_engine_minterm_cache_hits_total",
                "Minterm enumerations answered from the split index", Name,
                double(C.MintermCacheHits));
    addLabelled(Snap, "fast_engine_minterms_produced_total",
                "Satisfiable regions across all computed splits", Name,
                double(C.MintermsProduced));
    addLabelled(Snap, "fast_engine_trie_nodes_decided_total",
                "Trie region nodes decided", Name, double(C.TrieNodesDecided));
    addLabelled(Snap, "fast_engine_trie_node_hits_total",
                "Trie region nodes revisited with a memoized verdict", Name,
                double(C.TrieNodeHits));
    addLabelled(Snap, "fast_engine_trie_subsumed_total",
                "Trie verdicts answered by ancestor-literal subsumption",
                Name, double(C.TrieSubsumed));
    addLabelled(Snap, "fast_engine_wall_ms_total",
                "Inclusive wall time inside the construction (ms)", Name,
                C.WallMs, /*Timing=*/true);
    addLabelledHist(Snap, "fast_engine_solver_query_us",
                    "GuardCache memo-miss query latency (us)", Name,
                    C.SolverQueryUs);
    addLabelledHist(Snap, "fast_engine_minterm_split_us",
                    "Computed minterm enumeration latency (us)", Name,
                    C.MintermSplitUs);
  }

  // --- fast_solver_*: the session Solver's counters.
  const Solver::Stats &Q = Eng.Solv.stats();
  Snap.addCounter("fast_solver_queries_total", "isSat entry points",
                  double(Q.Queries));
  Snap.addCounter("fast_solver_cache_hits_total",
                  "Queries answered from the sat/validity cache",
                  double(Q.CacheHits));
  Snap.addCounter("fast_solver_sat_answers_total", "Satisfiable answers",
                  double(Q.SatAnswers));
  Snap.addCounter("fast_solver_unsat_answers_total", "Unsatisfiable answers",
                  double(Q.UnsatAnswers));
  Snap.addCounter("fast_solver_unknown_answers_total", "Unknown answers",
                  double(Q.UnknownAnswers));
  Snap.addCounter("fast_solver_fast_path_answers_total",
                  "Queries answered by the built-in procedure",
                  double(Q.FastPathAnswers));
  Snap.addCounter("fast_solver_trivial_answers_total",
                  "Queries that were the constant true/false term",
                  double(Q.TrivialAnswers));
  Snap.addCounter("fast_solver_core_checks_total",
                  "Queries that reached a decision core",
                  double(Q.CoreChecks));
  Snap.addCounter("fast_solver_z3_checks_total", "Z3 check() invocations",
                  double(Q.Z3Checks));
  Snap.addCounter("fast_solver_z3_model_checks_total",
                  "Z3 checks issued on behalf of getModel()",
                  double(Q.Z3ModelChecks));
  Snap.addCounter("fast_solver_scoped_checks_total",
                  "Minterm-trie region checks (checkSat calls)",
                  double(Q.ScopedChecks));
  Snap.addCounter("fast_solver_subsumption_answers_total",
                  "Queries answered by the syntactic implication check",
                  double(Q.SubsumptionAnswers));
  Snap.addCounter("fast_solver_implication_queries_total",
                  "implies() entry points", double(Q.ImplicationQueries));
  Snap.addCounter("fast_solver_implication_cache_hits_total",
                  "implies() answered from the implication cache",
                  double(Q.ImplicationCacheHits));
  Snap.addHistogram("fast_solver_z3_check_us",
                    "Individual Z3 check() latency (us)", Q.Z3CheckUs);

  // --- fast_vm_*: the compiled data plane.  Always emitted (zeros when
  // the VM never ran) so every snapshot has a stable family set.
  const VmStats &V = Eng.Stats.vm();
  Snap.addCounter("fast_vm_programs_compiled_total",
                  "Programs lowered by vm::compileSttr",
                  double(V.ProgramsCompiled));
  Snap.addCounter("fast_vm_ineligible_total",
                  "Transducers rejected by the eligibility predicate",
                  double(V.Ineligible));
  Snap.addCounter("fast_vm_cache_hits_total",
                  "Program-cache lookups answered without compiling",
                  double(V.CacheHits));
  Snap.addCounter("fast_vm_runs_total", "Transductions evaluated by the VM",
                  double(V.Runs));
  Snap.addCounter("fast_vm_fallback_runs_total",
                  "Transductions that fell back to the interpreter",
                  double(V.FallbackRuns));
  Snap.addCounter("fast_vm_instructions_total", "Opcodes dispatched",
                  double(V.Instructions));
  Snap.addCounter("fast_vm_memo_hits_total",
                  "Results answered from the VM run memo",
                  double(V.MemoHits));
  Snap.addCounter("fast_vm_lookahead_checks_total",
                  "Compiled lookahead rule evaluations",
                  double(V.LookaheadChecks));
  Snap.addCounter("fast_vm_arena_nodes_total",
                  "Output nodes bump-allocated in the arena",
                  double(V.ArenaNodes));
  Snap.addCounter("fast_vm_interned_nodes_total",
                  "TreeRefs materialized by the intern-on-exit pass",
                  double(V.InternedNodes));
  Snap.addHistogram("fast_vm_compile_us", "Per-program compile latency (us)",
                    V.CompileUs);
  Snap.addHistogram("fast_vm_run_us", "Per-run VM latency (us)", V.RunUs);

  // --- Program-level counters the Fast driver records.
  const ProgramStats &P = Eng.Stats.program();
  Snap.addCounter("fast_assertions_total", "Assertions evaluated",
                  double(P.Assertions));
  Snap.addCounter("fast_assertions_failed_total", "Assertions that failed",
                  double(P.AssertionsFailed));
  Snap.addCounter("fast_program_runs_total", "Fast programs evaluated",
                  double(P.Runs));

  // --- fast_flightrecorder_*: ring accounting.  Event counts depend on
  // wall-clock-gated producers (heartbeats), so they are timing families;
  // arming state and capacity are not.
  const obs::FlightRecorder &FR = Eng.Trace.recorder();
  Snap.addCounter("fast_flightrecorder_events_total",
                  "Events recorded into the flight-recorder ring",
                  double(FR.recordedCount()), /*Timing=*/true);
  Snap.addCounter("fast_flightrecorder_dropped_total",
                  "Flight-recorder events evicted by ring wrap",
                  double(FR.droppedCount()), /*Timing=*/true);
  Snap.addGauge("fast_flightrecorder_armed",
                "1 when the flight recorder is armed",
                FR.armed() ? 1 : 0);
  Snap.addGauge("fast_flightrecorder_capacity",
                "Flight-recorder ring capacity in events",
                double(FR.capacity()));
}

//===----------------------------------------------------------------------===//
// MetricsFileFlusher
//===----------------------------------------------------------------------===//

bool MetricsFileFlusher::flushOnce(const SessionEngine &Eng,
                                   const std::string &Path) {
  MetricsSnapshot Snap;
  collectSessionMetrics(Eng, Snap);
  bool Json = Path.size() > 5 &&
              Path.compare(Path.size() - 5, 5, ".json") == 0;
  std::string Tmp = Path + ".tmp";
  {
    std::ofstream Out(Tmp, std::ios::trunc);
    if (!Out)
      return false;
    Out << (Json ? Snap.json() : Snap.prometheus());
    Out.flush();
    if (!Out)
      return false;
  }
  // rename(2) is atomic within a filesystem: readers (and metrics_check
  // after a forced abort) only ever observe a complete document.
  return ::rename(Tmp.c_str(), Path.c_str()) == 0;
}

void MetricsFileFlusher::start(const SessionEngine &Eng, std::string ToPath,
                               unsigned Interval) {
  stop();
  Engine = &Eng;
  Path = std::move(ToPath);
  IntervalMs = Interval == 0 ? 1000 : Interval;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Stop = false;
    Flushes = 0;
  }
  flushOnce(Eng, Path); // a file exists from the very first tick
  {
    std::lock_guard<std::mutex> Lock(Mu);
    ++Flushes;
  }
  Thread = std::thread([this] {
    std::unique_lock<std::mutex> Lock(Mu);
    while (!Cv.wait_for(Lock, std::chrono::milliseconds(IntervalMs),
                        [this] { return Stop; })) {
      Lock.unlock();
      flushOnce(*Engine, Path);
      Lock.lock();
      ++Flushes;
    }
  });
}

void MetricsFileFlusher::stop() {
  if (!Thread.joinable())
    return;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Stop = true;
  }
  Cv.notify_all();
  Thread.join();
  flushOnce(*Engine, Path); // final state survives the thread
}

uint64_t MetricsFileFlusher::flushCount() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Flushes;
}
