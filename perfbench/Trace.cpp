//===- perfbench/Trace.cpp - Spans, counter readings, result metrics ------===//
//
// Part of the fast-transducers project (see support/Hashing.h).
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <memory>
#include <mutex>
#include <random>

using namespace perfbench;

namespace {

const Clock::time_point Epoch = Clock::now();

double nowUs() {
  return std::chrono::duration<double, std::micro>(Clock::now() - Epoch)
      .count();
}

/// One thread's spans plus its stack of open spans.  Buffers are owned by
/// the registry, not the thread, so pool threads may exit before collect().
struct ThreadBuffer {
  uint32_t Id = 0;
  std::vector<Span> Spans;
  std::vector<int32_t> Open;
};

std::atomic<bool> Enabled{false};
std::mutex RegistryMu;
std::vector<std::unique_ptr<ThreadBuffer>> Registry;

ThreadBuffer &threadBuffer() {
  thread_local ThreadBuffer *Mine = nullptr;
  if (!Mine) {
    std::lock_guard<std::mutex> Lock(RegistryMu);
    Registry.push_back(std::make_unique<ThreadBuffer>());
    Mine = Registry.back().get();
    Mine->Id = static_cast<uint32_t>(Registry.size() - 1);
    Mine->Spans.reserve(1 << 14);
  }
  return *Mine;
}

} // namespace

void trace::enable(bool On) { Enabled.store(On); }
bool trace::enabled() { return Enabled.load(std::memory_order_relaxed); }

int32_t trace::open(const char *Name, uint32_t Request) {
  ThreadBuffer &B = threadBuffer();
  Span S;
  S.Name = Name;
  S.Request = Request;
  S.Thread = B.Id;
  S.Parent = B.Open.empty() ? -1 : B.Open.back();
  S.StartUs = nowUs();
  B.Spans.push_back(S);
  int32_t Index = static_cast<int32_t>(B.Spans.size() - 1);
  B.Open.push_back(Index);
  return Index;
}

void trace::close(int32_t Index) {
  ThreadBuffer &B = threadBuffer();
  B.Spans[Index].EndUs = nowUs();
  B.Open.pop_back();
}

std::vector<std::vector<Span>> trace::collect() {
  std::lock_guard<std::mutex> Lock(RegistryMu);
  std::vector<std::vector<Span>> Out;
  for (const auto &B : Registry)
    Out.push_back(B->Spans);
  return Out;
}

bool trace::writeJsonl(const std::string &Path) {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  for (const std::vector<Span> &Thread : collect())
    for (size_t I = 0; I < Thread.size(); ++I) {
      const Span &S = Thread[I];
      Out << "{\"name\":\"" << S.Name << "\",\"thread\":" << S.Thread
          << ",\"id\":" << I << ",\"parent\":" << S.Parent
          << ",\"request\":" << S.Request << ",\"start_us\":" << S.StartUs
          << ",\"end_us\":" << S.EndUs << "}\n";
    }
  return static_cast<bool>(Out);
}

Reading perfbench::read(fast::Session &S) {
  Reading R;
  R.TreeNodes = S.Trees.numNodes();
  const fast::engine::VmStats &V = S.stats().vm();
  R.VmRuns = V.Runs;
  R.VmFallbackRuns = V.FallbackRuns;
  R.VmInstructions = V.Instructions;
  R.VmMemoHits = V.MemoHits;
  R.VmLookaheadChecks = V.LookaheadChecks;
  R.VmArenaNodes = V.ArenaNodes;
  R.VmInternedNodes = V.InternedNodes;
  const fast::Solver::Stats &Q = S.Solv.stats();
  R.SmtQueries = Q.Queries;
  R.SmtCacheHits = Q.CacheHits;
  R.SmtCoreChecks = Q.CoreChecks;
  R.SmtZ3Checks = Q.Z3Checks;
  R.SmtScopedChecks = Q.ScopedChecks;
  R.SmtZ3Us = Q.Z3CheckUs.sumUs();
  const fast::MintermTrie::Stats &T = S.engine().Guards.trie().stats();
  R.TrieNodesDecided = T.NodesDecided;
  R.TrieNodeHits = T.NodeHits;
  R.TrieSubsumed = T.SubsumptionAnswers;
  auto Lock = S.stats().slotsLock();
  for (const auto &[Name, C] : S.stats().constructions()) {
    R.StatesExplored += C.StatesExplored;
    R.RulesEmitted += C.RulesEmitted;
    R.SatQueries += C.SatQueries;
    R.SatCacheHits += C.SatCacheHits;
    R.MintermSplits += C.MintermSplits;
    R.MintermsProduced += C.MintermsProduced;
  }
  return R;
}

void perfbench::addDelta(MetricMap &Acc, const Reading &B, const Reading &A) {
  auto Add = [&](const char *Name, double Delta) { Acc[Name] += Delta; };
  Add("trees.nodes_new", double(A.TreeNodes - B.TreeNodes));
  Add("vm.runs", double(A.VmRuns - B.VmRuns));
  Add("vm.fallback_runs", double(A.VmFallbackRuns - B.VmFallbackRuns));
  Add("vm.instructions", double(A.VmInstructions - B.VmInstructions));
  Add("vm.memo_hits", double(A.VmMemoHits - B.VmMemoHits));
  Add("vm.lookahead_checks",
      double(A.VmLookaheadChecks - B.VmLookaheadChecks));
  Add("vm.arena_nodes", double(A.VmArenaNodes - B.VmArenaNodes));
  Add("vm.interned_nodes", double(A.VmInternedNodes - B.VmInternedNodes));
  Add("smt.queries", double(A.SmtQueries - B.SmtQueries));
  Add("smt.cache_hits", double(A.SmtCacheHits - B.SmtCacheHits));
  Add("smt.core_checks", double(A.SmtCoreChecks - B.SmtCoreChecks));
  Add("smt.z3_checks", double(A.SmtZ3Checks - B.SmtZ3Checks));
  Add("smt.scoped_checks", double(A.SmtScopedChecks - B.SmtScopedChecks));
  Add("smt.z3_ms", (A.SmtZ3Us - B.SmtZ3Us) / 1000.0);
  Add("smt.trie_nodes_decided",
      double(A.TrieNodesDecided - B.TrieNodesDecided));
  Add("smt.trie_node_hits", double(A.TrieNodeHits - B.TrieNodeHits));
  Add("smt.trie_subsumed", double(A.TrieSubsumed - B.TrieSubsumed));
  Add("engine.states_explored", double(A.StatesExplored - B.StatesExplored));
  Add("engine.rules_emitted", double(A.RulesEmitted - B.RulesEmitted));
  Add("engine.sat_queries", double(A.SatQueries - B.SatQueries));
  Add("engine.sat_cache_hits", double(A.SatCacheHits - B.SatCacheHits));
  Add("engine.minterm_splits", double(A.MintermSplits - B.MintermSplits));
  Add("engine.minterms_produced",
      double(A.MintermsProduced - B.MintermsProduced));
}

LayerCall::LayerCall(const char *Name, uint32_t Request, fast::Session *S,
                     MetricMap *Acc) {
  if (!trace::enabled())
    return;
  if (S && Acc) {
    this->S = S;
    this->Acc = Acc;
    Before = read(*S);
  }
  Index = trace::open(Name, Request);
}

LayerCall::~LayerCall() {
  if (Index < 0)
    return;
  trace::close(Index);
  if (S)
    addDelta(*Acc, Before, read(*S));
}

namespace {

/// Median kernel time on the reference host: a 4-vCPU Firecracker VM on an
/// Intel family 6 model 207 CPU at 2.1 GHz, in a quiet period.
constexpr double kProbeReferenceMs = 2.5;
constexpr double kProbeIntervalMs = 100;

std::atomic<uint64_t> KernelSink{0};

/// A dependent chain of integer mixing steps in registers.  It touches no
/// memory, so its time depends on the host's core speed and on what shares
/// the core, not on the state the library leaves in caches or the heap.
double kernelMs() {
  constexpr uint32_t Steps = 1u << 20;
  uint64_t X = KernelSink.load(std::memory_order_relaxed) | 1;
  Clock::time_point T0 = Clock::now();
  for (uint32_t I = 0; I < Steps; ++I) {
    X ^= X >> 29;
    X *= 0xBF58476D1CE4E5B9ull;
    X ^= X >> 32;
  }
  double Ms = msBetween(T0, Clock::now());
  KernelSink.store(X, std::memory_order_relaxed);
  return Ms;
}

} // namespace

SpeedProbe &perfbench::speedProbe() {
  static SpeedProbe Probe;
  return Probe;
}

void SpeedProbe::tick() {
  thread_local Clock::time_point Last{};
  Clock::time_point Now = Clock::now();
  if (Last != Clock::time_point{} && msBetween(Last, Now) < kProbeIntervalMs)
    return;
  double Ms = kernelMs();
  Last = Clock::now();
  std::lock_guard<std::mutex> Lock(Mu);
  KernelMs.push_back(Ms);
}

double SpeedProbe::speed() const {
  std::lock_guard<std::mutex> Lock(Mu);
  double Median = percentile(KernelMs, 50);
  return Median > 0 ? kProbeReferenceMs / Median : 1.0;
}

size_t SpeedProbe::samples() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return KernelMs.size();
}

double perfbench::percentile(std::vector<double> Values, double P) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  double Pos = P / 100.0 * double(Values.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, Values.size() - 1);
  return Values[Lo] + (Values[Hi] - Values[Lo]) * (Pos - double(Lo));
}

double perfbench::peakRssMb() {
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::stod(Line.substr(6)) / 1024.0;
  return 0;
}

void perfbench::addSpanMetrics(MetricMap &Out) {
  double Spans = 0, Violations = 0, RequestMs = 0, GlueMs = 0;
  for (const std::vector<Span> &Thread : trace::collect()) {
    std::vector<double> ChildUs(Thread.size(), 0), LastChildEndUs(Thread.size());
    for (size_t I = 0; I < Thread.size(); ++I)
      LastChildEndUs[I] = Thread[I].StartUs;
    for (const Span &S : Thread) {
      ++Spans;
      double DurUs = S.EndUs - S.StartUs;
      if (S.Parent < 0) {
        RequestMs += DurUs / 1000.0;
        continue;
      }
      // Layers add up to their request only if every child lies inside
      // its parent and siblings do not overlap.
      const Span &P = Thread[S.Parent];
      if (S.StartUs < LastChildEndUs[S.Parent] || S.EndUs > P.EndUs)
        ++Violations;
      LastChildEndUs[S.Parent] = S.EndUs;
      ChildUs[S.Parent] += DurUs;
      Out[std::string(S.Name) + "_ms"] += DurUs / 1000.0;
    }
    for (size_t I = 0; I < Thread.size(); ++I)
      if (Thread[I].Parent < 0) {
        double SelfMs =
            (Thread[I].EndUs - Thread[I].StartUs - ChildUs[I]) / 1000.0;
        Out[std::string(Thread[I].Name) + "_self_ms"] += SelfMs;
        GlueMs += SelfMs;
      }
  }
  Out["trace.spans"] = Spans;
  Out["trace.request_ms"] = RequestMs;
  Out["trace.nesting_violations"] = Violations;
  Out["trace.glue_frac"] = RequestMs > 0 ? GlueMs / RequestMs : 0;
}

double perfbench::probeCostUs(fast::Session &S) {
  constexpr int N = 2000;
  MetricMap Scratch;
  TracedLoop On(true);
  auto T0 = Clock::now();
  for (int I = 0; I < N; ++I)
    LayerCall Probe("trace.calibrate", 0, &S, &Scratch);
  double Us = msBetween(T0, Clock::now()) * 1000.0 / N;
  return Us;
}
