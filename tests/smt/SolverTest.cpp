//===- tests/smt/SolverTest.cpp - Z3-backed solver tests ------------------===//
//
// The Solver's one sat core (trivial, cache, built-in fragment, pair
// refutation, Z3), the region checks the minterm trie issues through
// checkSat, and the subsumption-aware implication core behind implies,
// isValid and areEquivalent.
//
//===----------------------------------------------------------------------===//

#include "smt/Minterms.h"
#include "smt/Solver.h"

#include <gtest/gtest.h>

#include <chrono>

using namespace fast;

namespace {

class SolverTest : public ::testing::Test {
protected:
  TermFactory F;
  Solver S{F};
  TermRef X = F.attr(0, Sort::Int, "x");
  TermRef Tag = F.attr(1, Sort::String, "tag");
  TermRef R = F.attr(2, Sort::Real, "r");

  TermRef intLt(TermRef A, int64_t B) { return F.mkLt(A, F.intConst(B)); }
  TermRef intGt(TermRef A, int64_t B) { return F.mkLt(F.intConst(B), A); }
  /// x * x == c: non-linear, outside the built-in fragment, so checks on
  /// it must reach Z3.
  TermRef squareIs(int64_t C) {
    return F.mkEq(F.mkMul(X, X), F.intConst(C));
  }
};

TEST_F(SolverTest, BasicSat) {
  EXPECT_TRUE(S.isSat(F.mkLt(X, F.intConst(4))));
  EXPECT_FALSE(S.isSat(F.mkAnd(F.mkLt(X, F.intConst(0)),
                               F.mkLt(F.intConst(0), X))));
  EXPECT_TRUE(S.isSat(F.mkEq(Tag, F.stringConst("script"))));
}

TEST_F(SolverTest, IntegerParity) {
  // Example 8's cross-level contradiction: odd(x+1) and odd(x-2) clash.
  TermRef OddXPlus1 = F.mkEq(
      F.mkMod(F.mkAdd(X, F.intConst(1)), F.intConst(2)), F.intConst(1));
  TermRef OddXMinus2 = F.mkEq(
      F.mkMod(F.mkSub(X, F.intConst(2)), F.intConst(2)), F.intConst(1));
  EXPECT_TRUE(S.isSat(OddXPlus1));
  EXPECT_TRUE(S.isSat(OddXMinus2));
  EXPECT_FALSE(S.isSat(F.mkAnd(F.mkAnd(OddXPlus1, OddXMinus2),
                               F.mkLt(F.intConst(0), X))));
}

TEST_F(SolverTest, RealArithmetic) {
  TermRef Half = F.realConst(Rational(1, 2));
  EXPECT_TRUE(S.isSat(F.mkAnd(F.mkLt(F.realConst(Rational(0)), R),
                              F.mkLt(R, Half))));
  // Non-linear (cubic) constraints as in the AR evaluation's worst case.
  TermRef Cubed = F.mkMul(F.mkMul(R, R), R);
  EXPECT_TRUE(S.isSat(F.mkEq(Cubed, F.realConst(Rational(8)))));
}

TEST_F(SolverTest, ValidityImplicationEquivalence) {
  TermRef P = F.mkLt(X, F.intConst(4));
  TermRef Q = F.mkLt(X, F.intConst(10));
  EXPECT_TRUE(S.implies(P, Q));
  EXPECT_FALSE(S.implies(Q, P));
  EXPECT_TRUE(S.areEquivalent(P, F.mkLe(X, F.intConst(3))));
  EXPECT_FALSE(S.areEquivalent(P, Q));
  EXPECT_TRUE(S.isValid(F.mkOr(P, F.mkLe(F.intConst(4), X))));
}

TEST_F(SolverTest, ModelExtraction) {
  TermRef Pred = F.mkAnd(F.mkEq(Tag, F.stringConst("script")),
                         F.mkLt(F.intConst(41), X));
  std::optional<AttrModel> Model = S.getModel(Pred);
  ASSERT_TRUE(Model.has_value());
  ASSERT_TRUE(Model->count(X));
  ASSERT_TRUE(Model->count(Tag));
  EXPECT_GT(Model->at(X).getInt(), 41);
  EXPECT_EQ(Model->at(Tag).getString(), "script");
  EXPECT_FALSE(S.getModel(F.falseTerm()).has_value());
}

TEST_F(SolverTest, RealModel) {
  TermRef Pred = F.mkAnd(F.mkLt(F.realConst(Rational(0)), R),
                         F.mkLt(R, F.realConst(Rational(1, 3))));
  std::optional<AttrModel> Model = S.getModel(Pred);
  ASSERT_TRUE(Model.has_value());
  const Rational &V = Model->at(R).getReal();
  EXPECT_TRUE(Rational(0) < V && V < Rational(1, 3));
}

TEST_F(SolverTest, CacheCountsHits) {
  S.resetStats();
  TermRef P = F.mkLt(X, F.intConst(123));
  EXPECT_TRUE(S.isSat(P));
  EXPECT_TRUE(S.isSat(P));
  EXPECT_EQ(S.stats().Queries, 2u);
  EXPECT_EQ(S.stats().CacheHits, 1u);
  S.setCacheEnabled(false);
  EXPECT_TRUE(S.isSat(P));
  EXPECT_EQ(S.stats().CacheHits, 1u);
  S.setCacheEnabled(true);
}

TEST_F(SolverTest, MintermsPartitionTheSpace) {
  TermRef P1 = F.mkLt(X, F.intConst(0));
  TermRef P2 = F.mkLt(X, F.intConst(10));
  std::vector<TermRef> Preds = {P1, P2};
  std::vector<Minterm> Regions = computeMinterms(S, Preds);
  // x<0 implies x<10, so the region (x<0 and not x<10) is pruned: 3 regions.
  EXPECT_EQ(Regions.size(), 3u);
  // The regions are pairwise disjoint and every one is satisfiable.
  for (size_t I = 0; I < Regions.size(); ++I) {
    EXPECT_TRUE(S.isSat(Regions[I].Predicate));
    for (size_t J = I + 1; J < Regions.size(); ++J)
      EXPECT_FALSE(
          S.isSat(F.mkAnd(Regions[I].Predicate, Regions[J].Predicate)));
  }
  // And their union is the whole space.
  std::vector<TermRef> All;
  for (const Minterm &M : Regions)
    All.push_back(M.Predicate);
  EXPECT_TRUE(S.isValid(F.mkOr(All)));
}

TEST_F(SolverTest, MintermsOfEmptySetIsTrue) {
  std::vector<TermRef> None;
  std::vector<Minterm> Regions = computeMinterms(S, None);
  ASSERT_EQ(Regions.size(), 1u);
  EXPECT_EQ(Regions.front().Predicate, F.trueTerm());
}

TEST_F(SolverTest, StringDisequalities) {
  // A fresh string always exists outside finitely many forbidden values.
  TermRef Pred = F.mkAnd(F.mkNeq(Tag, F.stringConst("a")),
                         F.mkNeq(Tag, F.stringConst("b")));
  std::optional<AttrModel> Model = S.getModel(Pred);
  ASSERT_TRUE(Model.has_value());
  EXPECT_NE(Model->at(Tag).getString(), "a");
  EXPECT_NE(Model->at(Tag).getString(), "b");
}

/// Cases folded in from the former IncrementalSolverTest.cpp keep their
/// suite name: the region checks the minterm trie issues through
/// checkSat(span), which replaced the scoped push/pop solver, and the
/// subsumption-aware implication core.
class IncrementalSolverTest : public SolverTest {
protected:
  /// Decides one region on a fresh solver, so the counters describe that
  /// check alone: one query and one ScopedChecks, and as many core and Z3
  /// checks as the conjunction of its literals needs.
  void expectRegion(const char *Name, const std::vector<TermRef> &Literals,
                    bool Sat, uint64_t CoreChecks, uint64_t Z3Checks) {
    Solver Fresh{F};
    EXPECT_EQ(Fresh.checkSat(Literals), Sat) << Name;
    const Solver::Stats &St = Fresh.stats();
    EXPECT_EQ(St.ScopedChecks, 1u) << Name;
    EXPECT_EQ(St.Queries, 1u) << Name;
    EXPECT_EQ(St.CoreChecks, CoreChecks) << Name;
    EXPECT_EQ(St.Z3Checks, Z3Checks) << Name;
  }
};

TEST_F(IncrementalSolverTest, EmptyConjunctionIsSat) {
  expectRegion("empty conjunction", {}, true, 0, 0);
}

TEST_F(IncrementalSolverTest, FalseAssertionIsTriviallyUnsat) {
  expectRegion("false literal", {intGt(X, 0), F.falseTerm()}, false, 0, 0);
}

TEST_F(IncrementalSolverTest, Z3PathAcrossPops) {
  // Sibling regions under a non-linear root literal, as a trie descent
  // produces them: each reaches Z3 unless a conjunct pair refutes it.
  expectRegion("x*x = 4", {squareIs(4)}, true, 1, 1);
  expectRegion("x*x = 4, x > 3", {squareIs(4), intGt(X, 3)}, false, 1, 1);
  expectRegion("x*x = 4, x < 0", {squareIs(4), intLt(X, 0)}, true, 1, 1);
  expectRegion("refuting pair beside x*x = 4",
               {squareIs(4), intLt(X, 0), intGt(X, -1)}, false, 0, 0);
}

TEST_F(IncrementalSolverTest, ScopedCountersAdvance) {
  // Each region check adds one ScopedChecks, a SatCache hit included; a
  // one-shot isSat is not a region check.
  std::vector<TermRef> Region = {intGt(X, 0), intLt(X, 10)};
  EXPECT_TRUE(S.checkSat(Region));
  EXPECT_EQ(S.stats().ScopedChecks, 1u);
  EXPECT_EQ(S.stats().CoreChecks, 1u);
  EXPECT_EQ(S.stats().Z3Checks, 0u); // The built-in fragment decides it.
  EXPECT_TRUE(S.checkSat(Region));
  EXPECT_EQ(S.stats().ScopedChecks, 2u);
  EXPECT_EQ(S.stats().CoreChecks, 1u);
  EXPECT_TRUE(S.isSat(intGt(X, 100)));
  EXPECT_EQ(S.stats().ScopedChecks, 2u);
}

TEST_F(IncrementalSolverTest, ImpliesAnsweredBySubsumptionAndCached) {
  TermRef A = intGt(X, 0);
  TermRef B = intLt(X, 10);
  TermRef Conj = F.mkAnd(A, B);
  uint64_t CoreBefore = S.stats().CoreChecks;
  // A conjunction implies its own conjunct: syntactic, no decision core.
  EXPECT_TRUE(S.implies(Conj, A));
  EXPECT_EQ(S.stats().CoreChecks, CoreBefore);
  EXPECT_GT(S.stats().SubsumptionAnswers, 0u);
  // A disjunct implies its disjunction.
  EXPECT_TRUE(S.implies(A, F.mkOr(A, intLt(X, -5))));
  EXPECT_EQ(S.stats().CoreChecks, CoreBefore);
  // Fragment-decided implication: x < 4 => x < 10 without a core check.
  EXPECT_TRUE(S.implies(intLt(X, 4), B));
  EXPECT_EQ(S.stats().CoreChecks, CoreBefore);

  // Repeats hit the implication cache.
  uint64_t HitsBefore = S.stats().ImplicationCacheHits;
  EXPECT_TRUE(S.implies(intLt(X, 4), B));
  EXPECT_GT(S.stats().ImplicationCacheHits, HitsBefore);

  // So does a repeated impliesFast call (the trie's entry point), which is
  // no implies() query: the hit counter is not a subset of the queries.
  uint64_t QueriesBefore = S.stats().ImplicationQueries;
  HitsBefore = S.stats().ImplicationCacheHits;
  EXPECT_EQ(S.impliesFast(intLt(X, 4), B), Trilean::True);
  EXPECT_GT(S.stats().ImplicationCacheHits, HitsBefore);
  EXPECT_EQ(S.stats().ImplicationQueries, QueriesBefore);
}

TEST_F(IncrementalSolverTest, ImpliesOutsideFragmentStillCorrect) {
  // x*x == 4 && x > 0  =>  x < 3 (x must be 2): needs the full solver
  // once, then answers from the cache.
  TermRef Sq = F.mkAnd(squareIs(4), intGt(X, 0));
  EXPECT_TRUE(S.implies(Sq, intLt(X, 3)));
  EXPECT_FALSE(S.implies(Sq, intLt(X, 2)));
  uint64_t Z3Before = S.stats().Z3Checks;
  EXPECT_TRUE(S.implies(Sq, intLt(X, 3)));
  EXPECT_FALSE(S.implies(Sq, intLt(X, 2)));
  EXPECT_EQ(S.stats().Z3Checks, Z3Before);
}

TEST_F(IncrementalSolverTest, ValidityCachedAcrossRepeats) {
  TermRef Tauto = F.mkOr(intLt(X, 10), intGt(X, 5));
  EXPECT_TRUE(S.isValid(Tauto));
  uint64_t HitsBefore = S.stats().CacheHits;
  EXPECT_TRUE(S.isValid(Tauto));
  EXPECT_GT(S.stats().CacheHits, HitsBefore);
  EXPECT_FALSE(S.isValid(intLt(X, 10)));
}

TEST_F(IncrementalSolverTest, EquivalenceViaTwoImplications) {
  TermRef P = intLt(X, 4);
  TermRef Q = F.mkLe(X, F.intConst(3));
  EXPECT_TRUE(S.areEquivalent(P, Q));
  EXPECT_TRUE(S.areEquivalent(P, P));
  EXPECT_FALSE(S.areEquivalent(P, intLt(X, 5)));
}

TEST_F(IncrementalSolverTest, ConjunctPairRefutationAvoidsZ3) {
  // The conjunction contains a non-linear atom (outside the built-in
  // fragment), but two string conjuncts refute each other; the
  // subsumption pre-check must answer unsat without any Z3 call.
  std::vector<TermRef> Conjuncts = {F.mkEq(Tag, F.stringConst("a")),
                                    F.mkEq(Tag, F.stringConst("b")),
                                    squareIs(4)};
  TermRef Conj = F.mkAnd(Conjuncts);
  ASSERT_FALSE(Conj->isFalse()) << "factory folded the test conjunction";
  uint64_t Z3Before = S.stats().Z3Checks;
  EXPECT_FALSE(S.isSat(Conj));
  EXPECT_EQ(S.stats().Z3Checks, Z3Before);
  EXPECT_GT(S.stats().SubsumptionAnswers, 0u);
}

TEST_F(SolverTest, TiersBelowZ3BuildNoContext) {
  // Trivial, built-in, cached, subsumption and pair-refutation answers,
  // and validity, implication and equivalence riding on them.
  EXPECT_TRUE(S.isSat(F.trueTerm()));
  EXPECT_FALSE(S.isSat(F.falseTerm()));
  EXPECT_TRUE(S.isSat(intLt(X, 4)));
  EXPECT_TRUE(S.isSat(intLt(X, 4)));
  EXPECT_TRUE(S.implies(F.mkAnd(intGt(X, 0), intLt(X, 4)), intGt(X, 0)));
  EXPECT_TRUE(S.isValid(F.mkOr(intLt(X, 10), intGt(X, 5))));
  EXPECT_TRUE(S.areEquivalent(intLt(X, 4), F.mkLe(X, F.intConst(3))));
  std::vector<TermRef> Refuted = {F.mkEq(Tag, F.stringConst("a")),
                                  F.mkEq(Tag, F.stringConst("b")),
                                  squareIs(4)};
  EXPECT_FALSE(S.isSat(F.mkAnd(Refuted)));
  EXPECT_GT(S.stats().CacheHits, 0u);
  EXPECT_GT(S.stats().SubsumptionAnswers, 0u);
  EXPECT_EQ(S.stats().Z3Checks, 0u);
  EXPECT_FALSE(S.hasZ3Context());
}

TEST_F(SolverTest, FirstZ3CheckBuildsTheContextOnce) {
  EXPECT_FALSE(S.hasZ3Context());
  EXPECT_TRUE(S.isSat(squareIs(4)));
  EXPECT_EQ(S.stats().Z3Checks, 1u);
  EXPECT_TRUE(S.hasZ3Context());
  // Later checks run on the context the first one built.
  EXPECT_FALSE(S.isSat(F.mkAnd(squareIs(4), intGt(X, 3))));
  EXPECT_TRUE(S.isSat(F.mkAnd(squareIs(4), intLt(X, 0))));
  EXPECT_EQ(S.stats().Z3Checks, 3u);
  EXPECT_EQ(S.stats().UnknownAnswers, 0u);
  EXPECT_EQ(S.stats().Z3CheckUs.count(), 3u);
  EXPECT_TRUE(S.hasZ3Context());
}

TEST_F(SolverTest, GetModelBuildsTheContext) {
  EXPECT_FALSE(S.hasZ3Context());
  std::optional<AttrModel> Model = S.getModel(intGt(X, 41));
  ASSERT_TRUE(Model.has_value());
  EXPECT_GT(Model->at(X).getInt(), 41);
  EXPECT_TRUE(S.hasZ3Context());
  EXPECT_EQ(S.stats().Z3ModelChecks, 1u);
}

TEST_F(SolverTest, ResetForReuseBeforeAndAfterTheContext) {
  S.resetForReuse();
  EXPECT_FALSE(S.hasZ3Context());
  EXPECT_TRUE(S.isSat(intLt(X, 4)));
  EXPECT_FALSE(S.hasZ3Context());

  EXPECT_TRUE(S.isSat(squareIs(4)));
  ASSERT_TRUE(S.hasZ3Context());
  S.resetForReuse();
  // The context survives; the caches do not, so the same query reaches
  // Z3 again, and getModel gets a fresh solver.
  EXPECT_TRUE(S.hasZ3Context());
  EXPECT_TRUE(S.isSat(squareIs(4)));
  EXPECT_FALSE(S.isSat(F.mkAnd(squareIs(4), intGt(X, 3))));
  EXPECT_EQ(S.stats().Z3Checks, 3u);
  std::optional<AttrModel> Model =
      S.getModel(F.mkAnd(squareIs(4), intLt(X, 0)));
  ASSERT_TRUE(Model.has_value());
  EXPECT_EQ(Model->at(X).getInt(), -2);
}

TEST(SolverTimeoutTest, TimeoutBelongsToEachSolver) {
  TermFactory F;
  Solver Short(F, /*TimeoutMs=*/50);
  // Built after Short: its timeout must not replace Short's.
  Solver Long(F, /*TimeoutMs=*/5000);
  TermRef X = F.attr(0, Sort::Int, "x");
  TermRef Y = F.attr(1, Sort::Int, "y");
  TermRef Z = F.attr(2, Sort::Int, "z");
  auto Cube = [&](TermRef V) { return F.mkMul(F.mkMul(V, V), V); };
  // x^3 + y^3 + z^3 = 33 over Int: non-linear, so it bypasses the built-in
  // procedure, and Z3 cannot decide it within seconds.
  std::vector<TermRef> Cubes = {Cube(X), Cube(Y), Cube(Z)};
  TermRef Hard = F.mkEq(F.mkAdd(Cubes), F.intConst(33));

  auto Start = std::chrono::steady_clock::now();
  EXPECT_TRUE(Short.isSat(Hard)); // unknown counts as satisfiable
  auto Ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - Start)
                .count();
  EXPECT_EQ(Short.stats().UnknownAnswers, 1u);
  EXPECT_LT(Ms, 2000) << "the 50 ms solver ran under the 5000 ms timeout";
}

} // namespace
