//===- perfbench/Analysis.cpp - The symbolic analysis path ----------------===//
//
// Part of the fast-transducers project (see support/Hashing.h).
//
//===----------------------------------------------------------------------===//
//
// ar_conflicts_par: the Section 5.2 pairwise conflict check (compose,
// restrict-in, restrict-out, emptiness) over a fixed tagger corpus, pairs
// in a seeded order, fanned out over one ParallelRunner.  The verdicts are
// compared with a sequential recomputation in a fresh session, and every
// "conflict" among them is confirmed concretely: a witness world is run
// through both taggers and one output must tag some element twice.
//
// typecheck_random: seeded fuzz instances, each one typeCheck +
// minimizeLanguage.  Verdicts are checked by concrete sampling: trees of
// LangA run through Det1 must land in LangB whenever the verdict is true,
// and the minimized language must agree with LangA on every sample.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "apps/ArTaggers.h"
#include "automata/Determinize.h"
#include "automata/StaOps.h"
#include "testing/Instance.h"
#include "transducers/Compose.h"
#include "transducers/Domain.h"
#include "transducers/Parallel.h"
#include "transducers/Run.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <random>
#include <thread>

using namespace fast;
using namespace perfbench;

namespace {

//===----------------------------------------------------------------------===//
// AR conflicts
//===----------------------------------------------------------------------===//

/// One fixed corpus of the paper's tagger shape (1-95 states, about 3
/// tagged nodes each): a corpus drawn per seed would move every metric by
/// its mean tagger size.  200 taggers give 19,900 pairs, more than any run
/// reaches; the seed picks which pairs are sent, and in which order.
constexpr unsigned kArCorpusSeed = 2014;

ar::ArOptions arOptions() {
  ar::ArOptions Options;
  Options.NumTaggers = 200;
  return Options;
}

constexpr unsigned CtorNil = 0, CtorTag = 1, CtorElem = 2;

unsigned tagCount(TreeRef Tags) {
  unsigned N = 0;
  for (; Tags->ctorId() == CtorTag; Tags = Tags->child(0))
    ++N;
  return N;
}

/// Hand-written readings of the two restriction languages.
bool isUntagged(TreeRef World) {
  for (; World->ctorId() == CtorElem; World = World->child(1))
    if (tagCount(World->child(0)) != 0)
      return false;
  return World->ctorId() == CtorNil;
}

bool hasDoubleTag(TreeRef World) {
  for (; World->ctorId() == CtorElem; World = World->child(1))
    if (tagCount(World->child(0)) >= 2)
      return true;
  return false;
}

struct ArState {
  std::unique_ptr<Session> S;
  ar::ArWorkload W;

  void build() {
    W = ar::ArWorkload();
    S = std::make_unique<Session>();
    W = ar::generateArWorkload(*S, kArCorpusSeed, arOptions());
  }
};

std::vector<std::pair<unsigned, unsigned>> shuffledPairs(unsigned N,
                                                         unsigned Seed) {
  std::vector<std::pair<unsigned, unsigned>> Pairs;
  for (unsigned I = 0; I < N; ++I)
    for (unsigned J = I + 1; J < N; ++J)
      Pairs.emplace_back(I, J);
  std::mt19937_64 Rng(Seed * 0x2545F4914F6CDD1Dull + 62);
  std::shuffle(Pairs.begin(), Pairs.end(), Rng);
  return Pairs;
}

/// One request: the four-step check of ar::checkConflict, one span and one
/// counter delta per step.  Returns the verdict; \p Restricted receives the
/// output-restricted composition (whose domain holds the conflicts).
bool checkPair(Session &S, const ar::ArWorkload &W, unsigned I, unsigned J,
               uint32_t Req, MetricMap &Layers,
               std::shared_ptr<Sttr> *Restricted = nullptr) {
  LayerCall Request("transducers.pair", Req);
  ComposeResult Composed;
  {
    LayerCall Call("transducers.compose", Req, &S, &Layers);
    Composed = composeSttr(S.Solv, S.Outputs, *W.Taggers[I], *W.Taggers[J]);
  }
  if (trace::enabled()) {
    Layers["transducers.composed_states"] += double(Composed.Composed->numStates());
    Layers["transducers.composed_rules"] += double(Composed.Composed->numRules());
  }
  std::shared_ptr<Sttr> InputRestricted;
  {
    LayerCall Call("transducers.restrict_in", Req, &S, &Layers);
    InputRestricted = restrictInput(S.Solv, *Composed.Composed, W.Untagged);
  }
  ComposeResult OutputRestricted;
  {
    LayerCall Call("transducers.restrict_out", Req, &S, &Layers);
    OutputRestricted =
        restrictOutput(S.Solv, S.Outputs, *InputRestricted, W.DoubleTagged);
  }
  bool Conflict;
  {
    LayerCall Call("transducers.emptiness", Req, &S, &Layers);
    Conflict = !isEmptyTransducer(S.Solv, *OutputRestricted.Composed);
  }
  if (Restricted)
    *Restricted = OutputRestricted.Composed;
  return Conflict;
}

/// A conflict is real iff some untagged world, run through tagger I and
/// then tagger J, comes out with an element tagged twice.  The world is a
/// witness of the restricted composition's domain.
bool confirmConflict(Session &S, const ar::ArWorkload &W, unsigned I,
                     unsigned J, const Sttr &Restricted) {
  std::optional<TreeRef> World =
      witness(S.Solv, domainLanguage(Restricted, &S.Solv), S.Trees);
  if (!World || !isUntagged(*World))
    return false;
  SttrRunner First(*W.Taggers[I], S.Trees), Second(*W.Taggers[J], S.Trees);
  for (TreeRef Mid : First.run(*World))
    for (TreeRef Out : Second.run(Mid))
      if (hasDoubleTag(Out))
        return true;
  return false;
}

//===----------------------------------------------------------------------===//
// Random type-checking
//===----------------------------------------------------------------------===//

/// The instance population, sent whole in a seeded order.  Instance cost
/// is heavy-tailed (p50 ~1 ms, p90 ~35 ms, max ~0.2 s), so a population
/// drawn per seed, or a time-boxed prefix of one, would move throughput
/// and p90 by whichever few slow instances it happened to include.
constexpr unsigned kTypecheckInstances = 600;
constexpr unsigned kSamplesPerInstance = 60;

testing::InstanceOptions instanceOptions(unsigned InstanceSeed) {
  // The lighter of the two random-typecheck classes of bench/smt_queries:
  // 3 states, at most 2 rules per constructor, all three signatures.
  // Single instances of the 4-state/3-rule class can take longer than a
  // whole run.
  testing::InstanceOptions Options;
  Options.SignatureIndex = InstanceSeed % 3;
  Options.NumStates = 3;
  Options.MaxRulesPerCtor = 2;
  Options.NumSamples = 0;
  return Options;
}

struct TypecheckState {
  std::unique_ptr<Session> S;
  std::vector<testing::FuzzInstance> Pool;

  void build(unsigned Seed) {
    Pool.clear();
    S = std::make_unique<Session>();
    for (unsigned K = 1; K <= kTypecheckInstances; ++K)
      Pool.push_back(testing::makeInstance(*S, K, instanceOptions(K)));
    std::mt19937_64 Rng(Seed * 0x9E3779B97F4A7C15ull + 35);
    std::shuffle(Pool.begin(), Pool.end(), Rng);
  }
};

/// Sampled trees of LangA through Det1: every output must be in LangB when
/// the verdict is true, and Min must agree with LangA on every sample.
bool samplesAgree(Session &S, const testing::FuzzInstance &I, bool Verdict,
                  const TreeLanguage &Min, unsigned &InLangA) {
  RandomTreeOptions TreeOptions;
  TreeOptions.MaxDepth = 5;
  RandomTreeGen Gen(S.Trees, I.Sig, I.Seed * 13 + 7, TreeOptions);
  SttrRunner Run(*I.Det1, S.Trees);
  for (unsigned N = 0; N < kSamplesPerInstance; ++N) {
    TreeRef T = Gen.generate();
    bool InA = I.LangA.contains(T);
    if (InA != Min.contains(T))
      return false;
    if (!InA)
      continue;
    ++InLangA;
    SttrRunResult Out = Run.runChecked(T);
    if (Verdict)
      for (TreeRef O : Out.Outputs)
        if (!I.LangB.contains(O))
          return false;
  }
  return true;
}

} // namespace

RunResult perfbench::runArConflictsPar(const Options &O) {
  RunResult R;
  const unsigned Threads = std::min(4u, hardwareThreads());
  ArState St;
  std::unique_ptr<ParallelRunner> Runner;
  double RunnerSetupMs = 0;
  R.EndToEnd["setup_s"] = medianSetupSeconds([&] {
    Runner.reset();
    St.build();
    Clock::time_point T0 = Clock::now();
    Runner = std::make_unique<ParallelRunner>(*St.S, Threads);
    RunnerSetupMs = msBetween(T0, Clock::now());
  });
  auto Pairs = shuffledPairs(unsigned(St.W.Taggers.size()), O.Seed);

  // Per-task outcome; a task claimed after the deadline is skipped.
  struct Task {
    int8_t Verdict = -1;
    uint32_t Worker = 0;
    Clock::time_point Start, End;
  };
  std::vector<Task> Tasks(Pairs.size());
  std::mutex SlotMu;
  std::map<std::thread::id, uint32_t> Slots;
  std::vector<MetricMap> WorkerLayers(Threads);
  auto slotOf = [&] {
    std::lock_guard<std::mutex> Lock(SlotMu);
    auto It = Slots.try_emplace(std::this_thread::get_id(),
                                uint32_t(Slots.size()));
    return It.first->second;
  };

  Clock::time_point BatchStart;
  {
    TracedLoop Tracing(O.Trace);
    BatchStart = Clock::now();
    const Clock::time_point Deadline =
        BatchStart + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(O.Seconds));
    Runner->run(Pairs.size(), [&](size_t K, WorkerContext &Worker) {
      Task &T = Tasks[K];
      T.Start = Clock::now();
      if (T.Start >= Deadline)
        return;
      T.Worker = slotOf();
      T.Verdict = checkPair(Worker.session(), St.W, Pairs[K].first,
                            Pairs[K].second, uint32_t(K),
                            WorkerLayers[T.Worker]);
      T.End = Clock::now();
      speedProbe().tick();
    });
  }
  R.EndToEnd["peak_rss_mb"] = peakRssMb();

  Clock::time_point BatchEnd = BatchStart;
  std::vector<double> RequestMs, BusyMs(Threads, 0);
  for (const Task &T : Tasks)
    if (T.Verdict >= 0) {
      BatchEnd = std::max(BatchEnd, T.End);
      RequestMs.push_back(msBetween(T.Start, T.End));
      BusyMs[T.Worker] += RequestMs.back();
      ++R.Attempted;
      R.Layers["transducers.conflicts"] += T.Verdict;
    }
  const double WallMs = msBetween(BatchStart, BatchEnd);
  addLatencyMetrics(R, RequestMs, WallMs);

  for (const MetricMap &M : WorkerLayers)
    for (const auto &[Name, V] : M)
      R.Layers[Name] += V;
  double BusyTotal = 0;
  for (unsigned W = 0; W < 4; ++W) {
    double Busy = W < Threads ? BusyMs[W] : 0;
    std::string Prefix = "transducers.parallel_w" + std::to_string(W);
    R.Layers[Prefix + "_busy_ms"] = Busy;
    R.Layers[Prefix + "_idle_ms"] = W < Threads ? WallMs - Busy : 0;
    BusyTotal += Busy;
  }
  R.Layers["transducers.parallel_threads"] = Threads;
  R.Layers["transducers.parallel_batch_ms"] = WallMs;
  R.Layers["transducers.parallel_busy_frac"] =
      WallMs > 0 ? BusyTotal / (WallMs * Threads) : 0;
  R.Layers["transducers.parallel_contexts_built"] =
      double(Runner->contextsBuilt());
  R.Layers["transducers.parallel_runner_setup_ms"] = RunnerSetupMs;

  // The base session is frozen now; recompute a prefix of the verdicts
  // sequentially in a fresh session built from the same seed, and confirm
  // its conflicts concretely.  Bounded by a share of the run time.
  Runner.reset();
  ArState Ref;
  Ref.build();
  MetricMap Unused;
  size_t Compared = 0, Conflicts = 0;
  Clock::time_point VerifyStart = Clock::now();
  for (size_t K = 0; K < Tasks.size(); ++K) {
    if (Tasks[K].Verdict < 0)
      continue;
    if (msBetween(VerifyStart, Clock::now()) >= O.Seconds * 300)
      break;
    auto [I, J] = Pairs[K];
    std::shared_ptr<Sttr> Restricted;
    bool Conflict = checkPair(*Ref.S, Ref.W, I, J, 0, Unused, &Restricted);
    ++Compared;
    if (Conflict != bool(Tasks[K].Verdict))
      ++R.Failed;
    else if (Conflict) {
      ++Conflicts;
      if (!confirmConflict(*Ref.S, Ref.W, I, J, *Restricted))
        ++R.Failed;
    }
  }
  R.Notes.push_back(std::to_string(R.Attempted) + " pairs on " +
                    std::to_string(Threads) + " threads; " +
                    std::to_string(Compared) +
                    " verdicts matched against a sequential session, " +
                    std::to_string(Conflicts) +
                    " conflicts among them confirmed on witness worlds");
  return R;
}

RunResult perfbench::runTypecheckRandom(const Options &O) {
  RunResult R;
  TypecheckState St;
  R.EndToEnd["setup_s"] =
      medianSetupSeconds([&] { St.build(O.Seed); });
  Session &S = *St.S;

  std::vector<double> RequestMs;
  std::vector<bool> Verdicts;
  std::vector<TreeLanguage> Minimized;
  {
    TracedLoop Tracing(O.Trace);
    Clock::time_point Start = Clock::now();
    for (size_t K = 0; K < St.Pool.size(); ++K) {
      if (msBetween(Start, Clock::now()) >= O.Seconds * 1000)
        break;
      const testing::FuzzInstance &I = St.Pool[K];
      Clock::time_point T0 = Clock::now();
      {
        LayerCall Request("automata.instance", uint32_t(K));
        {
          LayerCall Call("automata.typecheck", uint32_t(K), &S, &R.Layers);
          Verdicts.push_back(typeCheck(S.Solv, I.LangA, *I.Det1, I.LangB));
        }
        LayerCall Call("automata.minimize", uint32_t(K), &S, &R.Layers);
        Minimized.push_back(minimizeLanguage(S.Solv, I.LangA));
      }
      RequestMs.push_back(msBetween(T0, Clock::now()));
      ++R.Attempted;
      speedProbe().tick();
    }
  }
  R.EndToEnd["peak_rss_mb"] = peakRssMb();
  addLatencyMetrics(R, RequestMs);

  unsigned Sampled = 0;
  for (size_t K = 0; K < Verdicts.size(); ++K)
    if (!samplesAgree(S, St.Pool[K], Verdicts[K], Minimized[K], Sampled))
      ++R.Failed;
  R.Notes.push_back(std::to_string(R.Attempted) +
                    " instances checked by concrete sampling (" +
                    std::to_string(Sampled) + " sampled trees in LangA)");
  return R;
}
