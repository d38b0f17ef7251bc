//===- tests/properties/LanguageLawsTest.cpp - Boolean-algebra laws -------===//
//
// Property-based tests: the language operations form a Boolean algebra
// and every representation-changing operation (normalize, determinize,
// clean, minimize) preserves the language.  Each property is checked on
// seeded random alternating STAs, both by the decision procedures and by
// sampled concrete membership.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "transducers/RandomAutomata.h"

using namespace fast;
using namespace fast::test;

namespace {

class LanguageLaws : public ::testing::TestWithParam<unsigned> {
protected:
  Session S;
  SignatureRef Sig = makeBtSig();
  TreeLanguage A = randomLanguage(S.Terms, Sig, GetParam() * 3 + 1);
  TreeLanguage B = randomLanguage(S.Terms, Sig, GetParam() * 3 + 2);

  /// Checks a law on 120 sampled trees via concrete membership.
  template <typename Fn> void forSamples(Fn Check) {
    RandomTreeGen Gen(S.Trees, Sig, /*Seed=*/GetParam() * 3 + 3);
    for (int I = 0; I < 120; ++I) {
      TreeRef T = Gen.generate();
      Check(T);
    }
  }
};

TEST_P(LanguageLaws, ComplementFlipsSampledMembership) {
  TreeLanguage NotA = complementLanguage(S.Solv, A);
  forSamples([&](TreeRef T) {
    EXPECT_NE(NotA.contains(T), A.contains(T)) << T->str();
  });
}

TEST_P(LanguageLaws, DoubleComplementIsIdentity) {
  TreeLanguage Twice =
      complementLanguage(S.Solv, complementLanguage(S.Solv, A));
  EXPECT_TRUE(areEquivalentLanguages(S.Solv, Twice, A));
}

TEST_P(LanguageLaws, IntersectionAndUnionMatchConnectives) {
  TreeLanguage Inter = intersectLanguages(S.Solv, A, B);
  TreeLanguage Uni = unionLanguages(A, B);
  TreeLanguage Diff = differenceLanguages(S.Solv, A, B);
  forSamples([&](TreeRef T) {
    EXPECT_EQ(Inter.contains(T), A.contains(T) && B.contains(T));
    EXPECT_EQ(Uni.contains(T), A.contains(T) || B.contains(T));
    EXPECT_EQ(Diff.contains(T), A.contains(T) && !B.contains(T));
  });
}

TEST_P(LanguageLaws, AlgebraicIdentities) {
  // A cap A == A;  A cap not A == empty;  A cup not A == universal.
  TreeLanguage NotA = complementLanguage(S.Solv, A);
  EXPECT_TRUE(
      areEquivalentLanguages(S.Solv, intersectLanguages(S.Solv, A, A), A));
  EXPECT_TRUE(isEmptyLanguage(S.Solv, intersectLanguages(S.Solv, A, NotA)));
  EXPECT_TRUE(areEquivalentLanguages(S.Solv, unionLanguages(A, NotA),
                                     universalLanguage(S.Terms, Sig)));
}

TEST_P(LanguageLaws, DeMorgan) {
  TreeLanguage Lhs = complementLanguage(S.Solv, intersectLanguages(S.Solv, A, B));
  TreeLanguage Rhs = unionLanguages(complementLanguage(S.Solv, A),
                                    complementLanguage(S.Solv, B));
  EXPECT_TRUE(areEquivalentLanguages(S.Solv, Lhs, Rhs));
}

TEST_P(LanguageLaws, InclusionIsAPartialOrder) {
  TreeLanguage Inter = intersectLanguages(S.Solv, A, B);
  TreeLanguage Uni = unionLanguages(A, B);
  EXPECT_TRUE(isSubsetLanguage(S.Solv, Inter, A));
  EXPECT_TRUE(isSubsetLanguage(S.Solv, Inter, B));
  EXPECT_TRUE(isSubsetLanguage(S.Solv, A, Uni));
  EXPECT_TRUE(isSubsetLanguage(S.Solv, B, Uni));
  if (isSubsetLanguage(S.Solv, A, B) && isSubsetLanguage(S.Solv, B, A)) {
    EXPECT_TRUE(areEquivalentLanguages(S.Solv, A, B));
  }
}

TEST_P(LanguageLaws, RepresentationChangesPreserveTheLanguage) {
  TreeLanguage Norm = normalize(S.Solv, A);
  EXPECT_TRUE(Norm.automaton().isNormalized());
  TreeLanguage Clean = cleanLanguage(S.Solv, A);
  DeterminizedSta Det = determinize(S.Solv, Norm.automaton());
  TreeLanguage DetLang(Det.Automaton, Det.acceptingFor(Norm.roots()));
  TreeLanguage Min = minimizeLanguage(S.Solv, A);
  forSamples([&](TreeRef T) {
    bool Expected = A.contains(T);
    EXPECT_EQ(Norm.contains(T), Expected);
    EXPECT_EQ(Clean.contains(T), Expected);
    EXPECT_EQ(DetLang.contains(T), Expected);
    EXPECT_EQ(Min.contains(T), Expected);
  });
}

TEST_P(LanguageLaws, WitnessesAreMembers) {
  std::optional<TreeRef> W = witness(S.Solv, A, S.Trees);
  EXPECT_EQ(W.has_value(), !isEmptyLanguage(S.Solv, A));
  if (W) {
    EXPECT_TRUE(A.contains(*W)) << (*W)->str();
  }
  // Witness of the difference is in A but not B.
  TreeLanguage Diff = differenceLanguages(S.Solv, A, B);
  if (std::optional<TreeRef> D = witness(S.Solv, Diff, S.Trees)) {
    EXPECT_TRUE(A.contains(*D));
    EXPECT_FALSE(B.contains(*D));
  }
}

TEST_P(LanguageLaws, MinimizeIsIdempotentInSize) {
  TreeLanguage Min = minimizeLanguage(S.Solv, A);
  TreeLanguage MinMin = minimizeLanguage(S.Solv, Min);
  EXPECT_EQ(Min.automaton().numStates(), MinMin.automaton().numStates());
  EXPECT_TRUE(areEquivalentLanguages(S.Solv, Min, MinMin));
}

TEST_P(LanguageLaws, UniversalStatesAcceptEverything) {
  TreeLanguage Norm = normalize(S.Solv, A);
  std::vector<bool> Universal = universalStates(S.Solv, Norm.automaton());
  RandomTreeGen Gen(S.Trees, Sig, /*Seed=*/GetParam() + 77);
  for (unsigned Q = 0; Q < Norm.automaton().numStates(); ++Q) {
    if (!Universal[Q])
      continue;
    for (int I = 0; I < 20; ++I)
      EXPECT_TRUE(staAccepts(Norm.automaton(), Q, Gen.generate()));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LanguageLaws, ::testing::Range(0u, 8u));

/// The same laws over a richer signature: two attributes (String + Int)
/// and a rank-3 constructor, the HtmlE shape.  The automata are kept
/// small: determinization enumerates |D|^3 child tuples and splits each
/// into the satisfiable minterms of the applicable guards, so complement
/// over rank-3 alphabets is exponential in earnest (the ExpTime bound of
/// Proposition 2 is not an abstraction).
class LanguageLawsRich : public ::testing::TestWithParam<unsigned> {
protected:
  static RandomAutomatonOptions smallOptions() {
    RandomAutomatonOptions Options;
    Options.NumStates = 2;
    Options.MaxRulesPerCtor = 1;
    Options.ConstraintProbability = 0.3;
    return Options;
  }

  Session S;
  SignatureRef Sig = TreeSignature::create(
      "Rich", {{"tag", Sort::String}, {"n", Sort::Int}},
      {{"nil", 0}, {"one", 1}, {"three", 3}});
  TreeLanguage A =
      randomLanguage(S.Terms, Sig, GetParam() * 5 + 11, smallOptions());
  TreeLanguage B =
      randomLanguage(S.Terms, Sig, GetParam() * 5 + 12, smallOptions());
};

TEST_P(LanguageLawsRich, BooleanAlgebra) {
  TreeLanguage NotA = complementLanguage(S.Solv, A);
  EXPECT_TRUE(isEmptyLanguage(S.Solv, intersectLanguages(S.Solv, A, NotA)));
  TreeLanguage Lhs =
      complementLanguage(S.Solv, unionLanguages(A, B));
  TreeLanguage Rhs = intersectLanguages(
      S.Solv, NotA, complementLanguage(S.Solv, B));
  EXPECT_TRUE(areEquivalentLanguages(S.Solv, Lhs, Rhs));
}

TEST_P(LanguageLawsRich, SampledMembershipAgreesAfterMinimize) {
  TreeLanguage Min = minimizeLanguage(S.Solv, A);
  RandomTreeOptions TreeOptions;
  TreeOptions.MaxDepth = 4;
  RandomTreeGen Gen(S.Trees, Sig, GetParam() + 99, TreeOptions);
  for (int I = 0; I < 80; ++I) {
    TreeRef T = Gen.generate();
    EXPECT_EQ(Min.contains(T), A.contains(T)) << T->str();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LanguageLawsRich, ::testing::Range(0u, 4u));

} // namespace
