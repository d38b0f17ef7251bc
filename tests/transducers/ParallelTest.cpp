//===- tests/transducers/ParallelTest.cpp - Freeze & parallel driver ------===//
//
// Covers the two-tier session split: freeze semantics of the interning
// factories (identity-stable lookups, diagnosed post-freeze interning,
// overlay resolution), the SessionEngine attachment invariants, and the
// ParallelRunner's determinism guarantees (same results and counters at
// any thread count, trace replay in task order).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "apps/ArTaggers.h"
#include "support/Freeze.h"
#include "transducers/Parallel.h"
#include "vm/Vm.h"

#include <atomic>
#include <sstream>
#include <string_view>
#include <thread>
#include <tuple>
#include <vector>

using namespace fast;
using namespace fast::test;

namespace {

TEST(FreezeTest, FrozenTermInterningIsIdentityStable) {
  Session S;
  SignatureRef Sig = makeBtSig();
  TermRef I = Sig->attrTerm(S.Terms, 0);
  TermRef G = S.Terms.mkGt(I, S.Terms.intConst(3));
  size_t Before = S.Terms.numTerms();
  S.freeze();
  // Interning an existing structure is a read: same pointer, no growth.
  EXPECT_EQ(S.Terms.mkGt(I, S.Terms.intConst(3)), G);
  EXPECT_EQ(S.Terms.numTerms(), Before);
  EXPECT_TRUE(S.Terms.frozen());
}

TEST(FreezeTest, NewInterningAfterFreezeIsDiagnosed) {
  Session S;
  SignatureRef Sig = makeBtSig();
  TermRef I = Sig->attrTerm(S.Terms, 0);
  S.freeze();
  EXPECT_THROW((void)S.Terms.mkGt(I, S.Terms.intConst(12345)),
               FrozenFactoryError);
  EXPECT_THROW((void)S.Trees.makeLeaf(Sig, *Sig->findConstructor("L"),
                                      {Value::integer(777)}),
               FrozenFactoryError);
  EXPECT_THROW((void)S.Outputs.mkState(99, 0), FrozenFactoryError);
}

TEST(FreezeTest, FrozenLookupsAreStableAcrossThreads) {
  Session S;
  SignatureRef Sig = makeBtSig();
  TermRef I = Sig->attrTerm(S.Terms, 0);
  unsigned L = *Sig->findConstructor("L"), N = *Sig->findConstructor("N");
  std::vector<TermRef> Guards;
  std::vector<TreeRef> Nodes;
  for (int64_t K = 0; K < 64; ++K) {
    Guards.push_back(S.Terms.mkGt(I, S.Terms.intConst(K)));
    TreeRef Leaf = S.Trees.makeLeaf(Sig, L, {Value::integer(K)});
    Nodes.push_back(S.Trees.make(Sig, N, {Value::integer(K)}, {Leaf, Leaf}));
  }
  const size_t BaseNodes = S.Trees.numNodes();
  S.freeze();

  // Every thread re-interns the same structures through its own overlay
  // and must resolve each to the frozen base pointer, while interning
  // new trees over base children locally.
  std::vector<std::thread> Threads;
  // char, not bool: vector<bool> packs bits into shared words, which
  // would itself be a data race across the writer threads.
  std::vector<char> Ok(8, 0);
  for (unsigned T = 0; T < 8; ++T)
    Threads.emplace_back([&, T] {
      Session Overlay(Session::OverlayTag{}, S);
      bool AllSame = true;
      for (int64_t K = 0; K < 64; ++K) {
        AllSame &= Overlay.Terms.mkGt(I, Overlay.Terms.intConst(K)) ==
                   Guards[static_cast<size_t>(K)];
        TreeRef Leaf = Overlay.Trees.makeLeaf(Sig, L, {Value::integer(K)});
        TreeRef Node = Nodes[static_cast<size_t>(K)];
        AllSame &=
            Overlay.Trees.make(Sig, N, {Value::integer(K)}, {Leaf, Leaf}) ==
            Node;
        AllSame &= Overlay.Trees.make(Sig, N, {Value::integer(-1 - K)},
                                      {Node, Leaf})
                       ->child(0) == Node;
      }
      AllSame &= Overlay.Trees.numNodes() == BaseNodes + 64;
      Ok[T] = AllSame;
    });
  for (std::thread &T : Threads)
    T.join();
  for (unsigned T = 0; T < 8; ++T)
    EXPECT_TRUE(Ok[T]) << "thread " << T;
}

TEST(FreezeTest, OverlayInternsNewNodesLocally) {
  Session S;
  SignatureRef Sig = makeBtSig();
  TermRef I = Sig->attrTerm(S.Terms, 0);
  TermRef BaseGuard = S.Terms.mkGt(I, S.Terms.intConst(1));
  size_t BaseTerms = S.Terms.numTerms();
  S.freeze();

  Session Overlay(Session::OverlayTag{}, S);
  // Base structure resolves to the base pointer; the base stays untouched.
  EXPECT_EQ(Overlay.Terms.mkGt(I, Overlay.Terms.intConst(1)), BaseGuard);
  EXPECT_EQ(Overlay.Terms.numTerms(), BaseTerms);
  // New structure interns locally with ids continuing past the base.
  TermRef Fresh = Overlay.Terms.mkGt(I, Overlay.Terms.intConst(987654));
  EXPECT_GE(Fresh->id(), BaseTerms);
  EXPECT_GT(Overlay.Terms.numTerms(), BaseTerms);
  EXPECT_EQ(S.Terms.numTerms(), BaseTerms);
  // The overlay's own interning is idempotent too.
  EXPECT_EQ(Overlay.Terms.mkGt(I, Overlay.Terms.intConst(987654)), Fresh);
}

TEST(SessionEngineTest, TwoConcurrentSessionsKeepSeparateEngines) {
  Session A;
  Session B;
  engine::SessionEngine &EA = A.engine();
  engine::SessionEngine &EB = B.engine();
  EXPECT_NE(&EA, &EB);
  EXPECT_EQ(&EA.Solv, &A.Solv);
  EXPECT_EQ(&EB.Solv, &B.Solv);
  // Stats recorded in one session never leak into the other.
  A.stats().construction("compose").Runs = 7;
  EXPECT_EQ(B.stats().constructions().count("compose"), 0u);
  // Repeated access returns the same engine, never a reattached one.
  EXPECT_EQ(&A.engine(), &EA);
  EXPECT_EQ(&B.engine(), &EB);
}

TEST(SessionEngineTest, MisboundExtensionIsRejected) {
  Session B;
  // A foreign extension occupies B's solver slot: of() must refuse to
  // destroy it to make room for a SessionEngine.
  struct Foreign : SolverExtension {};
  B.Solv.setExtension(std::make_unique<Foreign>());
  EXPECT_THROW(B.engine(), std::logic_error);
}

/// Serializes the stats-relevant counters (no wall times, no latency
/// histograms — those vary run to run) for determinism comparisons.
std::string counterFingerprint(Session &S) {
  std::ostringstream Out;
  for (const auto &[Name, C] : S.stats().constructions())
    Out << Name << ":" << C.Runs << "," << C.StatesExplored << ","
        << C.StatesInterned << "," << C.RulesEmitted << "," << C.SatQueries
        << "," << C.SatCacheHits << "," << C.MintermSplits << ","
        << C.MintermCacheHits << "," << C.MintermsProduced << ";";
  const Solver::Stats &Q = S.Solv.stats();
  Out << "solver:" << Q.Queries << "," << Q.SatAnswers << ","
      << Q.UnsatAnswers << "," << Q.FastPathAnswers << "," << Q.CoreChecks
      << "," << Q.ScopedChecks << "," << Q.Z3Checks << ","
      << Q.UnknownAnswers;
  return Out.str();
}

/// Runs the small fig6-style pairwise conflict matrix at the given thread
/// count over a fresh session and returns (verdicts, counter fingerprint).
std::pair<std::vector<bool>, std::string> runMatrix(unsigned Threads) {
  Session S;
  ar::ArOptions Options;
  Options.NumTaggers = 6;
  Options.MaxStates = 8;
  ar::ArWorkload W = ar::generateArWorkload(S, /*Seed=*/42, Options);
  std::vector<ar::ConflictCheck> Checks = ar::checkAllConflicts(S, W, Threads);
  std::vector<bool> Verdicts;
  for (const ar::ConflictCheck &C : Checks)
    Verdicts.push_back(C.Conflict);
  return {Verdicts, counterFingerprint(S)};
}

TEST(ParallelRunnerTest, ConflictMatrixIsDeterministicAcrossThreadCounts) {
  auto [Seq, SeqPrint] = runMatrix(0);
  auto [J1, J1Print] = runMatrix(1);
  auto [J4, J4Print] = runMatrix(4);
  // The sequential path shares one guard cache across pairs, so only the
  // verdicts (not cache-hit counters) are comparable against it.
  (void)SeqPrint;
  // Verdicts are identical across the sequential and parallel paths.
  EXPECT_EQ(Seq, J1);
  EXPECT_EQ(J1, J4);
  // Between parallel thread counts even the merged counters match: each
  // pair ran in a fresh or reset worker, so scheduling cannot change the
  // work.  The Z3 check and unknown-answer counts also show that a reset
  // worker's warm Z3 solver answers as a fresh one does.
  EXPECT_EQ(J1Print, J4Print);
}

TEST(ParallelRunnerTest, MergesWorkerStatsIntoBase) {
  Session S;
  SignatureRef Sig = makeIListSig();
  std::shared_ptr<Sttr> Caesar = makeMapCaesar(S, Sig);
  std::shared_ptr<Sttr> Filter = makeFilterEven(S, Sig);
  ParallelRunner Runner(S, 4);
  EXPECT_TRUE(S.frozen());
  Runner.run(8, [&](size_t K, WorkerContext &Worker) {
    Session &WS = Worker.session();
    ComposeResult R = composeSttr(WS.Solv, WS.Outputs, *Caesar,
                                  K % 2 ? *Filter : *Caesar);
    ASSERT_NE(R.Composed, nullptr);
  });
  // All eight compositions' counters landed in the base registry.
  const auto &Stats = S.stats().constructions();
  auto It = Stats.find("compose");
  ASSERT_NE(It, Stats.end());
  EXPECT_EQ(It->second.Runs, 8u);
  EXPECT_GT(S.Solv.stats().Queries, 0u);
}

TEST(ParallelRunnerTest, ProvenanceCoverageMergesAcrossManyTasks) {
  // Regression for a data race: worker contexts are constructed on worker
  // threads while finishing siblings merge Fired counts into the base
  // store.  The runner must seed workers from a pre-thread snapshot, so
  // this passes clean under TSan with provenance recording on and enough
  // tasks that constructions and merges overlap.
  Session S;
  obs::ProvenanceStore &Prov = S.provenance();
  Prov.setEnabled(true);
  unsigned Anchor = Prov.internAnchor(obs::DeclAnchor::Kind::Lang, "L", 1, 1);
  std::vector<unsigned> RuleIds;
  for (unsigned R = 0; R < 4; ++R)
    RuleIds.push_back(Prov.registerRule(Anchor, 1, 1 + R));

  ParallelRunner Runner(S, 4);
  Runner.run(32, [&](size_t K, WorkerContext &Worker) {
    obs::ProvenanceStore &WProv = Worker.session().provenance();
    for (unsigned R = 0; R < 4; ++R)
      for (size_t N = 0; N <= K % 3; ++N)
        WProv.countCanon(RuleIds[R]);
  });

  uint64_t Expected = 0;
  for (size_t K = 0; K < 32; ++K)
    Expected += K % 3 + 1;
  for (unsigned R = 0; R < 4; ++R)
    EXPECT_EQ(Prov.ruleOrigin(RuleIds[R]).Fired, Expected) << "rule " << R;
}

TEST(ParallelRunnerTest, FailedTaskLeavesNoStatsOrTrace) {
  // A task that throws is discarded wholesale: its stats shard is never
  // merged AND its trace buffer is never replayed, so the trace stream
  // and the stats registry stay consistent after a partially failed run.
  Session S;
  SignatureRef Sig = makeIListSig();
  std::shared_ptr<Sttr> Caesar = makeMapCaesar(S, Sig);
  auto Sink = std::make_unique<obs::BufferTraceSink>();
  obs::BufferTraceSink *Raw = Sink.get();
  S.tracer().setSink(std::move(Sink));

  ParallelRunner Runner(S, 2);
  try {
    Runner.run(3, [&](size_t K, WorkerContext &Worker) {
      Session &WS = Worker.session();
      ComposeResult R = composeSttr(WS.Solv, WS.Outputs, *Caesar, *Caesar);
      ASSERT_NE(R.Composed, nullptr);
      if (K == 1)
        throw std::runtime_error("task 1");
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error &E) {
    EXPECT_STREQ(E.what(), "task 1");
  }

  // Tasks 0 and 2 merged; task 1 shows up in neither counters nor spans.
  const auto &Stats = S.stats().constructions();
  auto It = Stats.find("compose");
  ASSERT_NE(It, Stats.end());
  EXPECT_EQ(It->second.Runs, 2u);
  unsigned ComposeBegins = 0;
  for (const obs::BufferTraceSink::BufferedEvent &E : Raw->events())
    if (E.Phase == 'B' && E.Name == "compose")
      ++ComposeBegins;
  EXPECT_EQ(ComposeBegins, 2u);
}

TEST(ParallelRunnerTest, TaskExceptionsRethrowLowestIndex) {
  Session S;
  ParallelRunner Runner(S, 4);
  try {
    Runner.run(16, [&](size_t K, WorkerContext &) {
      if (K == 3 || K == 11)
        throw std::runtime_error("task " + std::to_string(K));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error &E) {
    EXPECT_STREQ(E.what(), "task 3");
  }
}

TEST(ParallelRunnerTest, TraceReplayIsInTaskOrder) {
  Session S;
  SignatureRef Sig = makeIListSig();
  std::shared_ptr<Sttr> Caesar = makeMapCaesar(S, Sig);
  auto Sink = std::make_unique<obs::BufferTraceSink>();
  obs::BufferTraceSink *Raw = Sink.get();
  S.tracer().setSink(std::move(Sink));

  ParallelRunner Runner(S, 4);
  Runner.run(4, [&](size_t, WorkerContext &Worker) {
    Session &WS = Worker.session();
    ComposeResult R = composeSttr(WS.Solv, WS.Outputs, *Caesar, *Caesar);
    ASSERT_NE(R.Composed, nullptr);
  });

  // Each task's span sequence begins with its own "compose" construction
  // begin; with the buffers replayed in task order, the merged stream has
  // exactly four non-interleaved compose span groups, task K's on thread
  // lane 2 + K (lane 1 is the base session's own thread).
  unsigned OpenCompose = 0, ComposeBegins = 0;
  bool Interleaved = false;
  for (const obs::BufferTraceSink::BufferedEvent &E : Raw->events()) {
    if (E.Phase == 'B' && E.Name == "compose") {
      Interleaved |= OpenCompose != 0;
      ++OpenCompose;
      EXPECT_EQ(E.Tid, 2.0 + ComposeBegins);
      ++ComposeBegins;
    } else if (E.Phase == 'E' && E.Name == "compose") {
      --OpenCompose;
    }
  }
  EXPECT_EQ(ComposeBegins, 4u);
  EXPECT_FALSE(Interleaved);
}

constexpr obs::Literal TaskNames[] = {"task.0", "task.1", "task.2",
                                      "task.3", "task.4", "task.5",
                                      "task.6", "task.7", "task.8",
                                      "task.9", "task.10", "task.11"};

/// The (lane, phase, name) sequence a base sink receives when \p Tasks
/// tasks, each emitting 1 + Task % 3 instants, run at \p Threads.
using TraceShape = std::vector<std::tuple<double, char, std::string_view>>;
TraceShape mergedTrace(unsigned Threads, size_t Tasks) {
  Session S;
  auto Sink = std::make_unique<obs::BufferTraceSink>();
  obs::BufferTraceSink *Raw = Sink.get();
  S.tracer().setSink(std::move(Sink));
  ParallelRunner Runner(S, Threads);
  Runner.run(Tasks, [&](size_t Task, WorkerContext &Worker) {
    obs::Tracer &T = Worker.session().tracer();
    // Workers of a traced base buffer their events for replay.
    EXPECT_TRUE(T.active());
    for (size_t I = 0; I <= Task % 3; ++I)
      T.instant(TaskNames[Task], "test");
  });
  TraceShape Shape;
  for (const obs::BufferTraceSink::BufferedEvent &E : Raw->events())
    Shape.emplace_back(E.Tid, E.Phase, E.Name);
  return Shape;
}

TEST(ParallelRunnerTest, MergedTraceIsScheduleIndependent) {
  TraceShape J1 = mergedTrace(1, 12);
  EXPECT_EQ(J1, mergedTrace(4, 12));
  EXPECT_EQ(J1, mergedTrace(3, 12));
  // And the sequence follows the task set actually run.
  EXPECT_NE(J1, mergedTrace(4, 11));
}

TEST(ParallelRunnerTest, UntracedBaseLeavesWorkerTracersInactive) {
  Session S;
  ASSERT_FALSE(S.tracer().active());
  ParallelRunner Runner(S, 2);
  Runner.run(4, [&](size_t, WorkerContext &Worker) {
    EXPECT_FALSE(Worker.session().tracer().active());
  });
}

TEST(ParallelRunnerTest, WorkerWitnessTreesSurviveViaRetention) {
  Session S;
  SignatureRef Sig = makeBtSig();
  TreeLanguage Positive = makeAllPositiveLang(S, Sig);
  ParallelRunner Runner(S, 2);
  std::vector<TreeRef> Witnesses(3, nullptr);
  std::vector<std::unique_ptr<WorkerContext>> Workers = Runner.run(
      3,
      [&](size_t K, WorkerContext &Worker) {
        Session &WS = Worker.session();
        std::optional<TreeRef> W = witness(WS.Solv, Positive, WS.Trees);
        ASSERT_TRUE(W.has_value());
        Witnesses[K] = *W;
      },
      /*RetainWorkers=*/true);
  ASSERT_EQ(Workers.size(), 3u);
  for (TreeRef W : Witnesses) {
    ASSERT_NE(W, nullptr);
    EXPECT_GT(W->attr(0).getInt(), 0);
  }
}

TEST(ParallelRunnerTest, PooledRunBuildsAtMostOneContextPerThread) {
  Session S;
  SignatureRef Sig = makeIListSig();
  std::shared_ptr<Sttr> Caesar = makeMapCaesar(S, Sig);
  std::shared_ptr<Sttr> Filter = makeFilterEven(S, Sig);
  ParallelRunner Runner(S, 4);
  Runner.run(12, [&](size_t K, WorkerContext &Worker) {
    Session &WS = Worker.session();
    ComposeResult R = composeSttr(WS.Solv, WS.Outputs, *Caesar,
                                  K % 2 ? *Filter : *Caesar);
    ASSERT_NE(R.Composed, nullptr);
  });
  // Pooled contexts are reset between tasks, not rebuilt — at most one
  // per pool thread, never one per task.
  EXPECT_GE(Runner.contextsBuilt(), 1u);
  EXPECT_LE(Runner.contextsBuilt(), 4u);
  // Pooling did not leak state across tasks: all twelve compositions'
  // counters merged, exactly as the per-task-context runs above.
  auto It = S.stats().constructions().find("compose");
  ASSERT_NE(It, S.stats().constructions().end());
  EXPECT_EQ(It->second.Runs, 12u);
}

TEST(ParallelRunnerTest, RetainedRunBuildsOneContextPerTask) {
  Session S;
  SignatureRef Sig = makeBtSig();
  TreeLanguage Positive = makeAllPositiveLang(S, Sig);
  ParallelRunner Runner(S, 2);
  std::vector<std::unique_ptr<WorkerContext>> Workers = Runner.run(
      5,
      [&](size_t, WorkerContext &Worker) {
        Session &WS = Worker.session();
        ASSERT_TRUE(witness(WS.Solv, Positive, WS.Trees).has_value());
      },
      /*RetainWorkers=*/true);
  EXPECT_EQ(Workers.size(), 5u);
  EXPECT_EQ(Runner.contextsBuilt(), 5u);
}

TEST(ParallelRunnerTest, OversizedPoolBuildsNoContextForUnclaimedThreads) {
  Session S;
  SignatureRef Sig = makeBtSig();
  TreeLanguage Positive = makeAllPositiveLang(S, Sig);
  // Eight threads, two tasks: the pool is clamped to the task count, and
  // no WorkerContext is ever constructed for a thread that never claims a
  // task.
  ParallelRunner Runner(S, 8);
  Runner.run(2, [&](size_t, WorkerContext &Worker) {
    Session &WS = Worker.session();
    ASSERT_TRUE(witness(WS.Solv, Positive, WS.Trees).has_value());
  });
  EXPECT_GE(Runner.contextsBuilt(), 1u);
  EXPECT_LE(Runner.contextsBuilt(), 2u);
}

TEST(ParallelRunnerTest, PooledWorkerKeepsItsZ3ContextAcrossTasks) {
  Session S;
  TermRef X = S.Terms.attr(0, Sort::Int, "x");
  // x * x = 4 is outside the built-in procedure: every task reaches Z3.
  TermRef Square = S.Terms.mkEq(S.Terms.mkMul(X, X), S.Terms.intConst(4));
  ParallelRunner Runner(S, 1);
  std::vector<int> HadContext(4, -1);
  Runner.run(4, [&](size_t K, WorkerContext &Worker) {
    Solver &Solv = Worker.session().Solv;
    HadContext[K] = Solv.hasZ3Context();
    EXPECT_TRUE(Solv.isSat(Square));
    EXPECT_TRUE(Solv.hasZ3Context());
  });
  // The first task built the context; reset() kept it for the rest, and
  // cleared the caches, so every task still checked once.
  EXPECT_EQ(HadContext, (std::vector<int>{0, 1, 1, 1}));
  EXPECT_EQ(Runner.contextsBuilt(), 1u);
  EXPECT_EQ(S.Solv.stats().Z3Checks, 4u);
  EXPECT_FALSE(S.Solv.hasZ3Context());
}

TEST(ParallelRunnerTest, TasksThatNeverReachZ3BuildNoContext) {
  Session S;
  TermRef X = S.Terms.attr(0, Sort::Int, "x");
  ParallelRunner Runner(S, 2);
  std::atomic<unsigned> WithContext{0};
  Runner.run(6, [&](size_t K, WorkerContext &Worker) {
    // Linear bounds: the built-in procedure decides every check.
    Session &WS = Worker.session();
    TermRef Lo = WS.Terms.mkLt(WS.Terms.intConst(int64_t(K)), X);
    TermRef Hi = WS.Terms.mkLt(X, WS.Terms.intConst(int64_t(K) + 2));
    EXPECT_TRUE(WS.Solv.isSat(WS.Terms.mkAnd(Lo, Hi)));
    EXPECT_FALSE(WS.Solv.isSat(WS.Terms.mkAnd(
        Hi, WS.Terms.mkLt(WS.Terms.intConst(int64_t(K) + 5), X))));
    if (WS.Solv.hasZ3Context())
      ++WithContext;
  });
  EXPECT_EQ(WithContext.load(), 0u);
  EXPECT_GT(S.Solv.stats().CoreChecks, 0u);
  EXPECT_EQ(S.Solv.stats().Z3Checks, 0u);
  EXPECT_FALSE(S.Solv.hasZ3Context());
}

TEST(ParallelRunnerTest, ResetDropsTheOverlayProgramCache) {
  // Program keys hash guard and output pointers, and pooled Vms bind the
  // overlay tree factory; resetOverlay() recycles both, so a reused
  // context must compile afresh.
  Session Base;
  SignatureRef Sig = makeIListSig();
  std::shared_ptr<Sttr> Caesar = makeMapCaesar(Base, Sig);
  Base.engine();
  Base.freeze();
  WorkerContext Worker(Base);
  Session &WS = Worker.session();
  ASSERT_TRUE(vm::compiledProgram(WS, *Caesar, nullptr, "map"));
  EXPECT_EQ(WS.stats().vm().ProgramsCompiled, 1u);
  Worker.reset();
  EXPECT_EQ(vm::programCache(WS).size(), 0u);
  ASSERT_TRUE(vm::compiledProgram(WS, *Caesar, nullptr, "map"));
  EXPECT_EQ(WS.stats().vm().ProgramsCompiled, 1u);
  EXPECT_EQ(WS.stats().vm().CacheHits, 0u);
}

} // namespace
