//===- tests/engine/EngineTest.cpp - Exploration engine tests -------------===//
//
// Unit tests for the shared fixpoint engine (StateInterner, Exploration,
// GuardCache) plus end-to-end checks that the constructions actually run
// on it: stats counters populate, cross-construction guard caching hits,
// and budgets make pathological explorations fail gracefully.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "engine/Engine.h"
#include "engine/Exploration.h"
#include "engine/MetricsBridge.h"
#include "engine/StateInterner.h"

#include <memory>
#include <string>
#include <vector>

using namespace fast;
using namespace fast::engine;
using namespace fast::test;

namespace {

TEST(StateInternerTest, DenseStableIds) {
  StateInterner<std::vector<unsigned>> I;
  auto A = I.intern({1, 2, 3});
  auto B = I.intern({4});
  auto A2 = I.intern({1, 2, 3});
  EXPECT_EQ(A.Id, 0u);
  EXPECT_TRUE(A.Fresh);
  EXPECT_EQ(B.Id, 1u);
  EXPECT_TRUE(B.Fresh);
  EXPECT_EQ(A2.Id, A.Id);
  EXPECT_FALSE(A2.Fresh);
  EXPECT_EQ(I.size(), 2u);
  EXPECT_EQ(I.key(1), std::vector<unsigned>({4}));
  EXPECT_EQ(I.lookup({4}), std::optional<unsigned>(1));
  EXPECT_FALSE(I.lookup({9}).has_value());
}

TEST(StateInternerTest, KeyReferencesSurviveGrowth) {
  // Expansion callbacks hold key references while interning more states;
  // the reference must not dangle as the interner grows.
  StateInterner<std::string> I;
  const std::string &First = I.key(I.intern("state-with-a-long-name-0").Id);
  for (int K = 1; K < 1000; ++K)
    I.intern("state-with-a-long-name-" + std::to_string(K));
  EXPECT_EQ(First, "state-with-a-long-name-0");
  EXPECT_EQ(I.size(), 1000u);
}

TEST(StateInternerTest, CountsFreshInternsIntoStats) {
  ConstructionStats Stats;
  StateInterner<int> I(&Stats);
  I.intern(7);
  I.intern(7);
  I.intern(8);
  EXPECT_EQ(Stats.StatesInterned, 2u);
}

TEST(ExplorationTest, DrainsBreadthFirst) {
  Exploration E;
  std::vector<unsigned> Order;
  E.enqueue(0);
  EXPECT_EQ(E.run([&](unsigned Id) {
    Order.push_back(Id);
    if (Id < 3)
      E.enqueue(Id + 1);
  }),
            ExplorationOutcome::Completed);
  EXPECT_EQ(Order, std::vector<unsigned>({0, 1, 2, 3}));
  EXPECT_EQ(E.enqueued(), 4u);
}

TEST(ExplorationTest, StepBudgetStopsInfiniteExpansion) {
  ExplorationLimits Limits;
  Limits.MaxSteps = 50;
  Exploration E(nullptr, Limits);
  E.enqueue(0);
  // Expansion that would never terminate: always enqueues more.
  EXPECT_EQ(E.run([&](unsigned Id) { E.enqueue(Id + 1); }),
            ExplorationOutcome::StepBudgetExceeded);
}

TEST(ExplorationTest, StateBudgetStopsBlowup) {
  ExplorationLimits Limits;
  Limits.MaxStates = 10;
  Exploration E(nullptr, Limits);
  E.enqueue(0);
  EXPECT_EQ(E.run([&](unsigned Id) {
    E.enqueue(2 * Id + 1);
    E.enqueue(2 * Id + 2);
  }),
            ExplorationOutcome::StateBudgetExceeded);
}

TEST(ExplorationTest, StateBudgetHoldsInsideOneExpansion) {
  // Regression test: the budget used to be enforced only between
  // expansions, so a single pathological Expand could enqueue unboundedly
  // past MaxStates.  It is now enforced inside enqueue(): one expansion
  // offering 10x the budget gets exactly MaxStates items admitted.
  ExplorationLimits Limits;
  Limits.MaxStates = 10;
  Exploration E(nullptr, Limits);
  E.enqueue(0);
  EXPECT_EQ(E.run([&](unsigned Id) {
    for (unsigned K = 1; K <= 100; ++K)
      E.enqueue(100 * Id + K);
  }),
            ExplorationOutcome::StateBudgetExceeded);
  EXPECT_EQ(E.enqueued(), 10u) << "admissions must stop at the budget";
  EXPECT_TRUE(E.stateBudgetTripped());
}

TEST(ExplorationTest, DeadlinePollsClockOnBatchedStrideOnly) {
  // The doc contract says the clock is consulted every BatchSize steps at
  // most; a timeout-bearing run used to read steady_clock::now() once per
  // expansion.  Count reads through the test clock hook.
  size_t ClockReads = 0;
  ExplorationLimits Limits;
  Limits.Timeout = std::chrono::milliseconds(3600000);
  Limits.Clock = [&] {
    ++ClockReads;
    return std::chrono::steady_clock::time_point{};
  };
  Exploration E(nullptr, Limits);
  const size_t Items = 600; // > 2x BatchSize, so several strides elapse.
  for (unsigned I = 0; I < Items; ++I)
    E.enqueue(I);
  EXPECT_EQ(E.run([](unsigned) {}), ExplorationOutcome::Completed);
  // One read computes the deadline; at most one more per BatchSize steps
  // (plus the poll before the first expansion) checks it.
  EXPECT_LE(ClockReads, 2 + Items / Exploration::BatchSize);
  EXPECT_GE(ClockReads, 2u) << "the deadline must actually be polled";
}

TEST(ExplorationTest, ExpiredDeadlineTripsBeforeFirstExpansion) {
  // The batched stride must not delay an already-expired deadline past
  // the first expansion: the poll schedule starts at the pre-run step
  // count, so a pre-expired clock times the run out at zero expansions.
  size_t Expanded = 0;
  size_t ClockReads = 0;
  auto T0 = std::chrono::steady_clock::time_point{};
  ExplorationLimits Limits;
  Limits.Timeout = std::chrono::milliseconds(10);
  Limits.Clock = [&] {
    // First read computes the deadline at T0; every later read is far
    // past it.
    return ClockReads++ == 0 ? T0 : T0 + std::chrono::hours(1);
  };
  Exploration E(nullptr, Limits);
  for (unsigned I = 0; I < 50; ++I)
    E.enqueue(I);
  EXPECT_EQ(E.run([&](unsigned) { ++Expanded; }),
            ExplorationOutcome::TimedOut);
  EXPECT_EQ(Expanded, 0u);
}

TEST(ExplorationTest, TracedRunRotatesBatchSpansOnTheStride) {
  // A traced run ends one explore.batch span every BatchSize steps and
  // the last one at the run's end; a deadline is polled on the same
  // boundaries, plus once before the first expansion.
  obs::Tracer Trace;
  auto Sink = std::make_unique<obs::BufferTraceSink>();
  obs::BufferTraceSink *Raw = Sink.get();
  Trace.setSink(std::move(Sink));
  size_t ClockReads = 0;
  ExplorationLimits Limits;
  Limits.Timeout = std::chrono::milliseconds(3600000);
  Limits.Clock = [&] {
    ++ClockReads;
    return std::chrono::steady_clock::time_point{};
  };
  Exploration E(nullptr, Limits, &Trace);
  const size_t Items = 600;
  for (unsigned I = 0; I < Items; ++I)
    E.enqueue(I);
  EXPECT_EQ(E.run([](unsigned) {}), ExplorationOutcome::Completed);
  std::vector<uint64_t> Steps;
  for (const obs::BufferTraceSink::BufferedEvent &Ev : Raw->events())
    if (Ev.Phase == 'E' && Ev.Name == "explore.batch")
      Steps.push_back(Ev.Attrs[0].Bits);
  EXPECT_EQ(Steps, std::vector<uint64_t>({256, 256, 88}));
  EXPECT_EQ(Trace.openSpans(), 0u);
  // The deadline computation, the first poll, and one per boundary.
  EXPECT_EQ(ClockReads, 4u);
}

TEST(ExplorationTest, CancellationHookAborts) {
  unsigned Expanded = 0;
  ExplorationLimits Limits;
  Limits.CancelRequested = [&] { return Expanded >= 5; };
  Exploration E(nullptr, Limits);
  E.enqueue(0);
  EXPECT_EQ(E.run([&](unsigned Id) {
    ++Expanded;
    E.enqueue(Id + 1);
  }),
            ExplorationOutcome::Cancelled);
  EXPECT_EQ(Expanded, 5u);
}

TEST(ExplorationTest, RunOrThrowRaisesTypedError) {
  ExplorationLimits Limits;
  Limits.MaxSteps = 1;
  Exploration E(nullptr, Limits);
  E.enqueue(0);
  try {
    E.runOrThrow("test-construction", [&](unsigned Id) { E.enqueue(Id + 1); });
    FAIL() << "expected ExplorationError";
  } catch (const ExplorationError &Err) {
    EXPECT_EQ(Err.outcome(), ExplorationOutcome::StepBudgetExceeded);
    EXPECT_NE(std::string(Err.what()).find("test-construction"),
              std::string::npos);
  }
}

class EngineIntegrationTest : public ::testing::Test {
protected:
  Session S;
  SignatureRef Sig = makeBtSig();
};

TEST_F(EngineIntegrationTest, NormalizationPopulatesStats) {
  TreeLanguage L = makeAllPositiveLang(S, Sig);
  normalize(S.Solv, L);
  const ConstructionStats &N = S.stats().construction("normalize");
  EXPECT_GE(N.Runs, 1u);
  EXPECT_GT(N.StatesExplored, 0u);
  EXPECT_GT(N.StatesInterned, 0u);
  EXPECT_GT(N.RulesEmitted, 0u);
  EXPECT_GT(N.SatQueries, 0u);
}

TEST_F(EngineIntegrationTest, GuardCacheHitsAcrossConstructions) {
  // Determinize-then-intersect pipeline over the same guards: the second
  // and third constructions must hit the session guard cache.
  TreeLanguage Pos = makeAllPositiveLang(S, Sig);
  TreeLanguage Odd = makeAllOddLang(S, Sig);

  TreeLanguage NPos = normalize(S.Solv, Pos);
  determinize(S.Solv, NPos.automaton());
  // Second determinization of the same automaton: every minterm split was
  // already computed — all lookups must hit.
  determinize(S.Solv, NPos.automaton());
  const ConstructionStats &D = S.stats().construction("determinize");
  EXPECT_GT(D.MintermSplits, 0u);
  EXPECT_GT(D.MintermCacheHits, 0u);

  intersectLanguages(S.Solv, Pos, Odd);
  const ConstructionStats &P = S.stats().construction("product");
  EXPECT_GT(P.SatQueries, 0u);
  EXPECT_GT(P.SatCacheHits, 0u) << "product must reuse cached guard queries";
}

TEST_F(EngineIntegrationTest, StateBudgetFailsConstructionGracefully) {
  // Depth-counting chain: normalization reaches one merged set per level,
  // so a small state budget trips mid-construction.
  auto A = std::make_shared<Sta>(Sig);
  unsigned L = *Sig->findConstructor("L"), N = *Sig->findConstructor("N");
  std::vector<unsigned> Q;
  for (int K = 0; K < 8; ++K)
    Q.push_back(A->addState("q" + std::to_string(K)));
  for (int K = 0; K < 7; ++K)
    A->addRule(Q[K], N, S.Terms.trueTerm(), {{Q[K + 1]}, {Q[K + 1]}});
  A->addRule(Q.back(), L, S.Terms.trueTerm(), {});
  TreeLanguage Chain(std::move(A), Q.front());

  S.engine().Limits.MaxStates = 3; // Far fewer than the 8 reachable sets.
  EXPECT_THROW(normalize(S.Solv, Chain), ExplorationError);
  S.engine().Limits = {}; // Unlimited again: the same call now succeeds.
  EXPECT_NO_THROW(normalize(S.Solv, Chain));
}

TEST_F(EngineIntegrationTest, StatsReportAndJsonMentionConstructions) {
  TreeLanguage L = makeAllPositiveLang(S, Sig);
  normalize(S.Solv, L);
  obs::MetricsSnapshot Snap;
  collectSessionMetrics(S.engine(), Snap);
  std::string Text = Snap.text();
  EXPECT_NE(Text.find("\nfast_engine_states_explored_total "),
            std::string::npos);
  EXPECT_NE(Text.find(" normalize="), std::string::npos);
  std::string Json = Snap.json();
  EXPECT_NE(Json.find("\"normalize\""), std::string::npos);
  EXPECT_NE(Json.find("\"fast_engine_states_explored_total\""),
            std::string::npos);
}

TEST(StatsRegistryTest, ResetDuringActiveScopeKeepsReferencesValid) {
  // Regression test: reset() used to clear the construction map, leaving
  // the references held by active ConstructionScopes (and the registry's
  // own scope stack) dangling.  reset() now zeroes slots in place.
  StatsRegistry Registry;
  ConstructionStats &Slot = Registry.construction("det");
  {
    ConstructionScope Scope(Registry, "det");
    EXPECT_EQ(&Scope.stats(), &Slot);
    Scope.stats().StatesExplored = 41;
    Scope.stats().SolverQueryUs.record(12.0);

    Registry.reset();

    // Same slot, zeroed, still the innermost attribution target.
    EXPECT_EQ(&Registry.construction("det"), &Slot);
    EXPECT_EQ(Registry.current(), &Slot);
    EXPECT_EQ(Slot.StatesExplored, 0u);
    EXPECT_EQ(Slot.SolverQueryUs.count(), 0u);

    // The still-open scope keeps accumulating into the zeroed slot.
    ++Registry.current()->StatesExplored;
  }
  EXPECT_EQ(Slot.StatesExplored, 1u);
  EXPECT_EQ(Slot.Runs, 0u);    // Counted at entry, wiped by the reset.
  EXPECT_GE(Slot.WallMs, 0.0); // Scope exit still finds its slot.
  EXPECT_EQ(Registry.current(), nullptr);
}

} // namespace
