//===- tests/smt/SimpleSolverTest.cpp - Built-in procedure tests ----------===//
//
// Unit tests for the built-in decision procedure and, most importantly,
// cross-validation against Z3 on random predicates: whenever the built-in
// procedure answers, it must agree with Z3.  Formulas whose DNF exceeds
// the procedure's 256-cube cap exercise its attribute-region path.
//
//===----------------------------------------------------------------------===//

#include "automata/Determinize.h"
#include "smt/SimpleSolver.h"
#include "smt/Solver.h"
#include "testing/Instance.h"
#include "transducers/Ops.h"
#include "transducers/RandomAutomata.h"
#include "transducers/Session.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

using namespace fast;

namespace {

/// The built-in procedure's DNF cap.
constexpr double MaxCubes = 256;

/// The number of cubes \p T (under \p Positive) expands to in DNF, with
/// no cap: a formula past MaxCubes is decided by attribute regions.
double dnfSize(TermRef T, bool Positive = true) {
  switch (T->kind()) {
  case TermKind::ConstValue:
    return T->constValue().getBool() == Positive ? 1 : 0;
  case TermKind::Not:
    return dnfSize(T->operand(0), !Positive);
  case TermKind::And:
  case TermKind::Or: {
    bool Product = (T->kind() == TermKind::And) == Positive;
    double Size = Product ? 1 : 0;
    for (TermRef Op : T->operands())
      Size = Product ? Size * dnfSize(Op, Positive)
                     : Size + dnfSize(Op, Positive);
    return Size;
  }
  default:
    return 1;
  }
}

class SimpleSolverTest : public ::testing::Test {
protected:
  TermFactory F;
  TermRef X = F.attr(0, Sort::Int, "x");
  TermRef Tag = F.attr(1, Sort::String, "tag");
  TermRef B = F.attr(2, Sort::Bool, "b");
  TermRef R = F.attr(3, Sort::Real, "r");

  TermRef num(int64_t V) { return F.intConst(V); }
  TermRef str(const char *V) { return F.stringConst(V); }
  TermRef half(int64_t Num) { return F.realConst(Rational(Num, 2)); }
  TermRef mod(TermRef T, int64_t M) { return F.mkMod(T, num(M)); }
  TermRef all(std::initializer_list<TermRef> Conjuncts) {
    return F.mkAnd(std::span<const TermRef>(Conjuncts.begin(),
                                            Conjuncts.size()));
  }

  /// \p P with at least 512 DNF cubes: splitting on b nine times keeps its
  /// meaning and doubles its cube count each time.
  TermRef pastCubeCap(TermRef P) {
    for (int I = 0; I < 9; ++I)
      P = F.mkOr(F.mkAnd(P, B), F.mkAnd(P, F.mkNot(B)));
    return P;
  }

  /// The region path answers \p Expected (Sat or Unsat) on \p P past the
  /// cube cap, as the cube path does on \p P and a Z3-only solver does.
  void expectRegions(TermRef P, SimpleResult Expected) {
    TermRef Big = pastCubeCap(P);
    ASSERT_GT(dnfSize(Big), MaxCubes);
    EXPECT_EQ(simpleCheckSat(Big), Expected) << P->str();
    EXPECT_EQ(simpleCheckSat(P), Expected) << P->str();
    Solver Z3Only(F);
    Z3Only.setFastPathEnabled(false);
    EXPECT_EQ(Z3Only.isSat(Big), Expected == SimpleResult::Sat) << P->str();
  }
};

TEST_F(SimpleSolverTest, Intervals) {
  EXPECT_EQ(simpleCheckSat(F.mkLt(X, F.intConst(4))), SimpleResult::Sat);
  EXPECT_EQ(simpleCheckSat(F.mkAnd(F.mkLt(X, F.intConst(0)),
                                   F.mkGt(X, F.intConst(0)))),
            SimpleResult::Unsat);
  // 3 < x < 4 has no integer.
  EXPECT_EQ(simpleCheckSat(F.mkAnd(F.mkGt(X, F.intConst(3)),
                                   F.mkLt(X, F.intConst(4)))),
            SimpleResult::Unsat);
  // ...but a rational.
  EXPECT_EQ(simpleCheckSat(F.mkAnd(F.mkGt(R, F.realConst(Rational(3))),
                                   F.mkLt(R, F.realConst(Rational(4))))),
            SimpleResult::Sat);
  // Point interval minus the point.
  TermRef Pin = F.mkAnd(F.mkGe(X, F.intConst(7)), F.mkLe(X, F.intConst(7)));
  EXPECT_EQ(simpleCheckSat(Pin), SimpleResult::Sat);
  EXPECT_EQ(simpleCheckSat(F.mkAnd(Pin, F.mkNeq(X, F.intConst(7)))),
            SimpleResult::Unsat);
}

TEST_F(SimpleSolverTest, ScaledCoefficients) {
  // 2x <= 7 over ints: x <= 3.
  TermRef TwoX = F.mkMul(X, F.intConst(2));
  EXPECT_EQ(simpleCheckSat(F.mkAnd(F.mkLe(TwoX, F.intConst(7)),
                                   F.mkGe(X, F.intConst(4)))),
            SimpleResult::Unsat);
  EXPECT_EQ(simpleCheckSat(F.mkAnd(F.mkLe(TwoX, F.intConst(7)),
                                   F.mkGe(X, F.intConst(3)))),
            SimpleResult::Sat);
  // Negative coefficient flips the bound: -x < -5 means x > 5.
  EXPECT_EQ(simpleCheckSat(F.mkAnd(F.mkLt(F.mkNeg(X), F.intConst(-5)),
                                   F.mkLe(X, F.intConst(5)))),
            SimpleResult::Unsat);
  // 2x == 7 has no integer solution.
  EXPECT_EQ(simpleCheckSat(F.mkEq(TwoX, F.intConst(7))),
            SimpleResult::Unsat);
  EXPECT_EQ(simpleCheckSat(F.mkEq(TwoX, F.intConst(8))), SimpleResult::Sat);
}

TEST_F(SimpleSolverTest, Congruences) {
  TermRef Mod2 = F.mkMod(X, F.intConst(2));
  TermRef Mod3 = F.mkMod(X, F.intConst(3));
  // x == 1 (mod 2) and x == 2 (mod 3): CRT gives x == 5 (mod 6).
  TermRef Both = F.mkAnd(F.mkEq(Mod2, F.intConst(1)),
                         F.mkEq(Mod3, F.intConst(2)));
  EXPECT_EQ(simpleCheckSat(Both), SimpleResult::Sat);
  // Within [0, 4] only x = 5 would work: unsat.
  EXPECT_EQ(simpleCheckSat(F.mkAnd(Both, F.mkAnd(F.mkGe(X, F.intConst(0)),
                                                 F.mkLe(X, F.intConst(4))))),
            SimpleResult::Unsat);
  // The paper's Example 8 parity clash.
  TermRef OddP1 = F.mkEq(F.mkMod(F.mkAdd(X, F.intConst(1)), F.intConst(2)),
                         F.intConst(1));
  TermRef OddM2 = F.mkEq(F.mkMod(F.mkSub(X, F.intConst(2)), F.intConst(2)),
                         F.intConst(1));
  EXPECT_EQ(simpleCheckSat(F.mkAnd(OddP1, OddM2)), SimpleResult::Unsat);
  // Negated congruence: x mod 2 != 0 and x mod 2 != 1 is impossible.
  EXPECT_EQ(simpleCheckSat(F.mkAnd(F.mkNeq(Mod2, F.intConst(0)),
                                   F.mkNeq(Mod2, F.intConst(1)))),
            SimpleResult::Unsat);
  // Out-of-range residue: x mod 3 == 5 is false, != 5 is true.
  EXPECT_EQ(simpleCheckSat(F.mkEq(Mod3, F.intConst(5))),
            SimpleResult::Unsat);
  EXPECT_EQ(simpleCheckSat(F.mkNeq(Mod3, F.intConst(5))), SimpleResult::Sat);
}

TEST_F(SimpleSolverTest, UpperBoundedWithCongruence) {
  // Unbounded below with x <= 10, x == 0 (mod 4): solutions exist far
  // below any window anchored at the upper bound.
  TermRef C = F.mkAnd(F.mkLe(X, F.intConst(10)),
                      F.mkEq(F.mkMod(X, F.intConst(4)), F.intConst(0)));
  EXPECT_EQ(simpleCheckSat(C), SimpleResult::Sat);
  // And blocking the top candidates still leaves lower ones.
  TermRef Blocked = C;
  for (int64_t V : {8, 4, 0})
    Blocked = F.mkAnd(Blocked, F.mkNeq(X, F.intConst(V)));
  EXPECT_EQ(simpleCheckSat(Blocked), SimpleResult::Sat);
}

TEST_F(SimpleSolverTest, StringsAndBools) {
  EXPECT_EQ(simpleCheckSat(F.mkAnd(F.mkEq(Tag, F.stringConst("a")),
                                   F.mkNeq(Tag, F.stringConst("a")))),
            SimpleResult::Unsat);
  EXPECT_EQ(simpleCheckSat(F.mkAnd(F.mkEq(Tag, F.stringConst("a")),
                                   F.mkNeq(Tag, F.stringConst("b")))),
            SimpleResult::Sat);
  EXPECT_EQ(simpleCheckSat(F.mkAnd(F.mkNeq(Tag, F.stringConst("a")),
                                   F.mkNeq(Tag, F.stringConst("b")))),
            SimpleResult::Sat);
  EXPECT_EQ(simpleCheckSat(F.mkAnd(B, F.mkNot(B))), SimpleResult::Unsat);
  EXPECT_EQ(simpleCheckSat(F.mkOr(B, F.mkNot(B))), SimpleResult::Sat);
}

TEST_F(SimpleSolverTest, OutsideFragmentIsUnknown) {
  // Two attributes in one atom.
  TermRef Y = F.attr(4, Sort::Int, "y");
  EXPECT_EQ(simpleCheckSat(F.mkLt(X, Y)), SimpleResult::Unknown);
  // Non-linear.
  EXPECT_EQ(simpleCheckSat(F.mkEq(F.mkMul(X, X), F.intConst(4))),
            SimpleResult::Unknown);
  // Mod compared with <.
  EXPECT_EQ(simpleCheckSat(F.mkLt(F.mkMod(X, F.intConst(5)), F.intConst(3))),
            SimpleResult::Unknown);
  // Past the cube cap, one such atom sends the whole formula to Z3, even
  // where a small version has an in-fragment cube that is satisfiable.
  for (TermRef Outside : {F.mkLt(X, Y), F.mkEq(F.mkMul(X, X), num(4))}) {
    TermRef P = F.mkOr(Outside, F.mkEq(Tag, str("a")));
    EXPECT_EQ(simpleCheckSat(P), SimpleResult::Sat);
    EXPECT_EQ(simpleCheckSat(pastCubeCap(P)), SimpleResult::Unknown);
    TermRef Conjuncts[] = {pastCubeCap(F.mkEq(Tag, str("a"))), Outside};
    EXPECT_EQ(simpleCheckSat(std::span<const TermRef>(Conjuncts)),
              SimpleResult::Unknown);
  }
}

TEST_F(SimpleSolverTest, RegionsNonIntegerBreakpoint) {
  // 2x <= 7 holds up to x = 3; 6 < 2x < 8 has no integer.
  TermRef TwoX = F.mkMul(X, num(2));
  expectRegions(all({F.mkLe(TwoX, num(7)), F.mkGe(X, num(3))}),
                SimpleResult::Sat);
  expectRegions(all({F.mkLe(TwoX, num(7)), F.mkGe(X, num(4))}),
                SimpleResult::Unsat);
  expectRegions(all({F.mkLt(num(6), TwoX), F.mkLt(TwoX, num(8))}),
                SimpleResult::Unsat);
  expectRegions(F.mkEq(TwoX, num(7)), SimpleResult::Unsat);
}

TEST_F(SimpleSolverTest, RegionsNegatedCongruence) {
  // (-x + 3) mod 4 = 1 means x = 2 (mod 4).
  TermRef C = F.mkEq(mod(F.mkAdd(F.mkNeg(X), num(3)), 4), num(1));
  expectRegions(all({C, F.mkGe(X, num(0)), F.mkLe(X, num(1))}),
                SimpleResult::Unsat);
  expectRegions(all({C, F.mkGe(X, num(0)), F.mkLe(X, num(2))}),
                SimpleResult::Sat);
  expectRegions(all({C, F.mkEq(mod(X, 2), num(1))}), SimpleResult::Unsat);
}

TEST_F(SimpleSolverTest, RegionsPeriodOfTwoModuli) {
  // x mod 3 = 2 and x mod 4 = 3 mean x = 11 (mod 12).
  TermRef Both = all({F.mkEq(mod(X, 3), num(2)), F.mkEq(mod(X, 4), num(3))});
  expectRegions(all({Both, F.mkGe(X, num(0)), F.mkLe(X, num(10))}),
                SimpleResult::Unsat);
  // A gap wider than the period holds 107; one narrower than it does not.
  expectRegions(all({Both, F.mkLt(num(100), X), F.mkLt(X, num(200))}),
                SimpleResult::Sat);
  expectRegions(all({Both, F.mkLt(num(100), X), F.mkLt(X, num(107))}),
                SimpleResult::Unsat);
  expectRegions(all({Both, F.mkLt(num(100), X), F.mkLt(X, num(120)),
                     F.mkNeq(X, num(107))}),
                SimpleResult::Sat);
}

TEST_F(SimpleSolverTest, RegionsUnboundedSide) {
  expectRegions(all({F.mkGt(X, num(1000)), F.mkEq(mod(X, 4), num(3))}),
                SimpleResult::Sat);
  expectRegions(all({F.mkLt(X, num(-1000)), F.mkEq(mod(X, 3), num(1)),
                     F.mkEq(mod(X, 4), num(0))}),
                SimpleResult::Sat);
  // Odd and 2 (mod 4) on both unbounded sides.
  expectRegions(all({F.mkOr(F.mkLt(X, num(0)), F.mkGt(X, num(10))),
                     F.mkEq(mod(X, 2), num(1)), F.mkEq(mod(X, 4), num(2))}),
                SimpleResult::Unsat);
}

TEST_F(SimpleSolverTest, RegionsEveryStringConstantExcluded) {
  expectRegions(all({F.mkNeq(Tag, str("a")), F.mkNeq(Tag, str("b")),
                     F.mkNeq(Tag, str(""))}),
                SimpleResult::Sat);
  // The string outside the constants must not be one of them.
  expectRegions(all({F.mkNeq(Tag, str("a")), F.mkNeq(Tag, str("a#"))}),
                SimpleResult::Sat);
  expectRegions(all({F.mkOr(F.mkEq(Tag, str("a")), F.mkEq(Tag, str("b"))),
                     F.mkNeq(Tag, str("a")), F.mkNeq(Tag, str("b"))}),
                SimpleResult::Unsat);
}

TEST_F(SimpleSolverTest, RegionsStrictAndNonStrictRealBoundsAtOnePoint) {
  expectRegions(all({F.mkLe(R, half(1)), F.mkGe(R, half(1))}),
                SimpleResult::Sat);
  expectRegions(all({F.mkLt(R, half(1)), F.mkGe(R, half(1))}),
                SimpleResult::Unsat);
  expectRegions(all({F.mkLe(R, half(1)), F.mkGe(R, half(1)),
                     F.mkNeq(R, half(1))}),
                SimpleResult::Unsat);
  // Only the midpoint of the gap lies strictly between 1/2 and 1.
  expectRegions(all({F.mkGt(R, half(1)), F.mkLt(R, half(2))}),
                SimpleResult::Sat);
  expectRegions(all({F.mkOr(F.mkLt(R, half(1)), F.mkGt(R, half(1))),
                     F.mkEq(R, half(1))}),
                SimpleResult::Unsat);
}

TEST_F(SimpleSolverTest, RegionsNearInt64Limits) {
  constexpr int64_t Max = std::numeric_limits<int64_t>::max();
  constexpr int64_t Min = std::numeric_limits<int64_t>::min();
  // Representatives, or evaluating an atom on them, would leave int64:
  // the procedure answers Unknown and the full solver asks Z3.
  TermRef NearMax = all({F.mkGt(X, num(Max - 10)), F.mkEq(mod(X, 2), num(0))});
  TermRef NearMin = all({F.mkLt(X, num(Min + 1)), F.mkGt(X, num(Min))});
  TermRef Scaled = all({F.mkLt(F.mkMul(X, num(int64_t(1) << 61)),
                               num(int64_t(1) << 62)),
                        F.mkGt(X, num(0))});
  for (auto [P, IsSat] :
       {std::pair{NearMax, true}, {NearMin, false}, {Scaled, true}}) {
    TermRef Big = pastCubeCap(P);
    EXPECT_EQ(simpleCheckSat(Big), SimpleResult::Unknown) << P->str();
    EXPECT_EQ(Solver(F).isSat(Big), IsSat) << P->str();
  }
  // Large constants well inside the range are decided.
  expectRegions(all({F.mkGt(X, num(int64_t(1) << 40)),
                     F.mkEq(mod(X, 3), num(1))}),
                SimpleResult::Sat);
}

TEST_F(SimpleSolverTest, RegionsAgreeWithZ3PastTheCubeCap) {
  // Random conjunctions of clauses over the four-sort Mix signature, each
  // past the cube cap, half of them passed as a span of conjuncts: every
  // answer is definite and equals Z3's.
  SignatureRef Sig = TreeSignature::create(
      "Mix",
      {{"n", Sort::Int}, {"tag", Sort::String}, {"b", Sort::Bool},
       {"r", Sort::Real}},
      {{"leaf", 0}});
  TermFactory Terms;
  Solver Z3Only(Terms);
  Z3Only.setFastPathEnabled(false);
  std::mt19937 Rng(2026);
  RandomAutomatonOptions Options;
  unsigned Sat = 0, Unsat = 0;
  while (Sat + Unsat < 600) {
    std::vector<TermRef> Clauses;
    unsigned NumClauses = std::uniform_int_distribution<unsigned>(10, 18)(Rng);
    for (unsigned C = 0; C < NumClauses; ++C) {
      TermRef Disjuncts[2];
      for (TermRef &D : Disjuncts)
        D = randomPredicate(Terms, Sig, Rng, Options);
      Clauses.push_back(Terms.mkOr(Disjuncts));
    }
    TermRef P = Terms.mkAnd(Clauses);
    if (dnfSize(P) <= MaxCubes)
      continue;
    bool Span = (Sat + Unsat) % 2;
    SimpleResult Answer =
        Span ? simpleCheckSat(std::span<const TermRef>(Clauses))
             : simpleCheckSat(P);
    ASSERT_NE(Answer, SimpleResult::Unknown) << P->str();
    EXPECT_EQ(Answer == SimpleResult::Sat, Z3Only.isSat(P)) << P->str();
    ++(Answer == SimpleResult::Sat ? Sat : Unsat);
  }
  EXPECT_GE(Sat, 100u);
  EXPECT_GE(Unsat, 100u);
}

TEST_F(SimpleSolverTest, DisjunctionsAndDeepFormulas) {
  TermRef C = F.mkOr(F.mkAnd(F.mkLt(X, F.intConst(0)),
                             F.mkGt(X, F.intConst(0))),
                     F.mkEq(Tag, F.stringConst("ok")));
  EXPECT_EQ(simpleCheckSat(C), SimpleResult::Sat);
  // All branches unsat.
  TermRef D = F.mkOr(F.mkAnd(F.mkLt(X, F.intConst(0)),
                             F.mkGt(X, F.intConst(0))),
                     F.mkAnd(B, F.mkNot(B)));
  EXPECT_EQ(simpleCheckSat(D), SimpleResult::Unsat);
}

TEST_F(SimpleSolverTest, CrossValidationAgainstZ3) {
  // The load-bearing test: on random predicates the built-in procedure,
  // whenever it answers, agrees with Z3 — and it answers most of the time
  // on the fragment the generators (and the case studies) use.
  SignatureRef Sig = TreeSignature::create(
      "Mix",
      {{"n", Sort::Int}, {"tag", Sort::String}, {"b", Sort::Bool},
       {"r", Sort::Real}},
      {{"leaf", 0}});
  TermFactory Terms;
  Solver Z3Only(Terms);
  Z3Only.setFastPathEnabled(false);
  std::mt19937 Rng(2014);
  RandomAutomatonOptions Options;
  unsigned Decided = 0, Total = 600;
  for (unsigned I = 0; I < Total; ++I) {
    // Conjunctions of a few random predicates produce both sat and unsat
    // instances.
    TermRef P = randomPredicate(Terms, Sig, Rng, Options);
    if (I % 2)
      P = Terms.mkAnd(P, randomPredicate(Terms, Sig, Rng, Options));
    if (I % 3 == 0)
      P = Terms.mkAnd(P, randomPredicate(Terms, Sig, Rng, Options));
    SimpleResult Simple = simpleCheckSat(P);
    if (Simple == SimpleResult::Unknown)
      continue;
    ++Decided;
    EXPECT_EQ(Simple == SimpleResult::Sat, Z3Only.isSat(P)) << P->str();
  }
  // The generator stays within the fragment.
  EXPECT_GT(Decided, Total * 8 / 10);
}

TEST(SimpleSolverPopulationTest, TypecheckInstancesNeedNoZ3) {
  // Instances of perfbench's typecheck_random class (3 states, at most 2
  // rules per constructor, one per signature) whose type check and
  // minimization sent 61, 4 and 129 queries to Z3 before formulas past
  // the cube cap were decided by attribute regions.
  struct Case {
    unsigned Seed;
    unsigned MinimizedStates;
  };
  for (Case C : {Case{21, 6}, Case{23, 4}, Case{49, 4}}) {
    Session S;
    fast::testing::InstanceOptions Options;
    Options.SignatureIndex = C.Seed % 3;
    Options.NumStates = 3;
    Options.MaxRulesPerCtor = 2;
    Options.NumSamples = 0;
    fast::testing::FuzzInstance I =
        fast::testing::makeInstance(S, C.Seed, Options);
    EXPECT_FALSE(typeCheck(S.Solv, I.LangA, *I.Det1, I.LangB)) << C.Seed;
    EXPECT_EQ(minimizeLanguage(S.Solv, I.LangA).automaton().numStates(),
              C.MinimizedStates)
        << C.Seed;
    EXPECT_EQ(S.Solv.stats().Z3Checks, 0u) << C.Seed;
  }
}

TEST_F(SimpleSolverTest, SolverUsesTheFastPath) {
  TermFactory Terms;
  Solver S(Terms);
  TermRef X0 = Terms.attr(0, Sort::Int, "x");
  S.resetStats();
  EXPECT_TRUE(S.isSat(Terms.mkLt(X0, Terms.intConst(100))));
  EXPECT_FALSE(S.isSat(Terms.mkAnd(Terms.mkLt(X0, Terms.intConst(0)),
                                   Terms.mkGt(X0, Terms.intConst(0)))));
  EXPECT_EQ(S.stats().FastPathAnswers, 2u);
  // Disabled: the same fresh query goes to Z3.
  S.setFastPathEnabled(false);
  EXPECT_TRUE(S.isSat(Terms.mkLt(X0, Terms.intConst(101))));
  EXPECT_EQ(S.stats().FastPathAnswers, 2u);
}

} // namespace
