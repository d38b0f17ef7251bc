//===- tests/smt/MintermTrieTest.cpp - Minterm trie tests -----------------===//
//
// The session-wide minterm trie: partition correctness, differential
// equality against the naive computeMinterms oracle on randomized guard
// sets, split-index reuse, prefix sharing across overlapping sets,
// verdict stability across interleaved one-shot queries, and what the
// solver's ScopedChecks counter (smt.scoped_checks) measures.
//
//===----------------------------------------------------------------------===//

#include "smt/MintermTrie.h"

#include "smt/Minterms.h"
#include "testing/Instance.h"
#include "transducers/RandomAutomata.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

using namespace fast;

namespace {

class MintermTrieTest : public ::testing::Test {
protected:
  TermFactory F;
  Solver S{F};
  MintermTrie Trie{S};
  TermRef X = F.attr(0, Sort::Int, "x");
  TermRef Tag = F.attr(1, Sort::String, "tag");

  TermRef intLt(TermRef A, int64_t B) { return F.mkLt(A, F.intConst(B)); }

  /// Sorts by Term::id and deduplicates: the canonical form minterms()
  /// requires.
  std::vector<TermRef> canonical(std::vector<TermRef> Guards) {
    std::sort(Guards.begin(), Guards.end(),
              [](TermRef A, TermRef B) { return A->id() < B->id(); });
    Guards.erase(std::unique(Guards.begin(), Guards.end()), Guards.end());
    return Guards;
  }

  /// The regions must be pairwise disjoint, individually satisfiable, and
  /// jointly exhaustive.
  void expectPartition(const std::vector<Minterm> &Regions) {
    std::vector<TermRef> All;
    for (size_t I = 0; I < Regions.size(); ++I) {
      EXPECT_TRUE(S.isSat(Regions[I].Predicate));
      All.push_back(Regions[I].Predicate);
      for (size_t J = I + 1; J < Regions.size(); ++J)
        EXPECT_FALSE(
            S.isSat(F.mkAnd(Regions[I].Predicate, Regions[J].Predicate)));
    }
    EXPECT_TRUE(S.isValid(F.mkOr(All)));
  }
};

TEST_F(MintermTrieTest, EmptyGuardSetIsTrueRegion) {
  const MintermSplit &Split = Trie.minterms({});
  ASSERT_EQ(Split.Regions.size(), 1u);
  EXPECT_EQ(Split.Regions.front().Predicate, F.trueTerm());
  EXPECT_TRUE(Split.Regions.front().Polarity.empty());
}

TEST_F(MintermTrieTest, PartitionsOverlappingGuards) {
  std::vector<TermRef> Guards = canonical({intLt(X, 4), intLt(X, 10)});
  const MintermSplit &Split = Trie.minterms(Guards);
  // x<4 implies x<10: the (+, -) region is empty, leaving 3.
  EXPECT_EQ(Split.Regions.size(), 3u);
  expectPartition(Split.Regions);
  for (const Minterm &M : Split.Regions)
    EXPECT_EQ(M.Polarity.size(), Guards.size());
}

TEST_F(MintermTrieTest, MatchesNaiveOracleExactly) {
  // The trie emits regions in the same order as the reference loop
  // (positive branch first), so the comparison is sequence equality.
  std::vector<TermRef> Guards = canonical(
      {intLt(X, 0), intLt(X, 7), F.mkEq(Tag, F.stringConst("div"))});
  const MintermSplit &Split = Trie.minterms(Guards);
  std::vector<Minterm> Naive = computeMinterms(S, Guards);
  ASSERT_EQ(Split.Regions.size(), Naive.size());
  for (size_t I = 0; I < Naive.size(); ++I) {
    EXPECT_EQ(Split.Regions[I].Polarity, Naive[I].Polarity);
    EXPECT_TRUE(S.areEquivalent(Split.Regions[I].Predicate,
                                Naive[I].Predicate));
  }
}

TEST_F(MintermTrieTest, DifferentialAgainstOracleOnRandomGuards) {
  const SignatureRef &Sig = fast::testing::signaturePool()[0];
  RandomAutomatonOptions Options;
  for (unsigned Seed = 0; Seed < 20; ++Seed) {
    std::mt19937 Rng(Seed);
    std::vector<TermRef> Guards;
    unsigned Count = 1 + Rng() % 4;
    for (unsigned I = 0; I < Count; ++I)
      Guards.push_back(randomPredicate(F, Sig, Rng, Options));
    Guards = canonical(Guards);

    const MintermSplit &Split = Trie.minterms(Guards);
    std::vector<Minterm> Naive = computeMinterms(S, Guards);
    ASSERT_EQ(Split.Regions.size(), Naive.size()) << "seed " << Seed;
    for (size_t I = 0; I < Naive.size(); ++I) {
      EXPECT_EQ(Split.Regions[I].Polarity, Naive[I].Polarity)
          << "seed " << Seed;
      EXPECT_TRUE(S.areEquivalent(Split.Regions[I].Predicate,
                                  Naive[I].Predicate))
          << "seed " << Seed;
    }
    expectPartition(Split.Regions);
  }
}

TEST_F(MintermTrieTest, RepeatEnumerationHitsSplitIndex) {
  std::vector<TermRef> Guards =
      canonical({intLt(X, 5), F.mkEq(Tag, F.stringConst("a"))});
  const MintermSplit &First = Trie.minterms(Guards);
  uint64_t QueriesBefore = S.stats().Queries;
  uint64_t SplitHitsBefore = Trie.stats().SplitHits;
  const MintermSplit &Second = Trie.minterms(Guards);
  // Same stable object, answered with zero solver traffic.
  EXPECT_EQ(&First, &Second);
  EXPECT_EQ(S.stats().Queries, QueriesBefore);
  EXPECT_EQ(Trie.stats().SplitHits, SplitHitsBefore + 1);
}

TEST_F(MintermTrieTest, OverlappingSetsShareDecidedPrefixes) {
  TermRef A = intLt(X, 3);
  TermRef B = intLt(X, 8);
  TermRef C = F.mkEq(Tag, F.stringConst("b"));
  Trie.minterms(canonical({A, B}));
  uint64_t DecidedBefore = Trie.stats().NodesDecided;
  uint64_t HitsBefore = Trie.stats().NodeHits;
  const MintermSplit &Super = Trie.minterms(canonical({A, B, C}));
  // The {A, B} prefix layer is reused: revisits outnumber zero, and the
  // superset only decides the new deepest layer.
  EXPECT_GT(Trie.stats().NodeHits, HitsBefore);
  EXPECT_GT(Trie.stats().NodesDecided, DecidedBefore);
  expectPartition(Super.Regions);
}

TEST_F(MintermTrieTest, TrieOffPathMatchesTrieOn) {
  // Two tries over the same solver, so each computes its own split.
  MintermTrie Naive{S};
  std::vector<TermRef> Guards = canonical(
      {intLt(X, 0), intLt(X, 6), F.mkEq(Tag, F.stringConst("script"))});
  const MintermSplit &On = Trie.minterms(Guards, /*ViaTrie=*/true);
  const MintermSplit &Off = Naive.minterms(Guards, /*ViaTrie=*/false);
  ASSERT_EQ(On.Regions.size(), Off.Regions.size());
  for (size_t I = 0; I < On.Regions.size(); ++I) {
    EXPECT_EQ(On.Regions[I].Polarity, Off.Regions[I].Polarity);
    EXPECT_TRUE(
        S.areEquivalent(On.Regions[I].Predicate, Off.Regions[I].Predicate));
  }
}

TEST_F(MintermTrieTest, SubsumedBranchesSkipSolverChecks) {
  // x<0 implies x<10: under the +(x<0) branch the second guard's polarity
  // is forced, so the cheap implication check answers without checkSat.
  std::vector<TermRef> Guards = canonical({intLt(X, 0), intLt(X, 10)});
  Trie.minterms(Guards);
  EXPECT_GT(Trie.stats().SubsumptionAnswers, 0u);
}

TEST_F(MintermTrieTest, VerdictsSurviveInterleavedOneShotQueries) {
  // Interleave a one-shot query between two enumerations and re-enumerate
  // a superset: memoized verdicts must still be correct.
  TermRef A = intLt(X, 2);
  TermRef B = F.mkEq(Tag, F.stringConst("div"));
  Trie.minterms(canonical({A}));

  EXPECT_TRUE(S.isSat(F.mkLt(F.intConst(100), X)));

  const MintermSplit &Split = Trie.minterms(canonical({A, B}));
  EXPECT_EQ(Split.Regions.size(), 4u);
  expectPartition(Split.Regions);
  // And the memoized single-guard split is still served unchanged.
  const MintermSplit &Single = Trie.minterms(canonical({A}));
  EXPECT_EQ(Single.Regions.size(), 2u);
  expectPartition(Single.Regions);
}

TEST_F(MintermTrieTest, ScopedChecksCountRegionChecksAndShareSatCache) {
  // x<4 implies x<10, so subsumption decides part of the descent but not
  // all of it; the tag guard is refined last and no x-literal decides it.
  TermRef Lt4 = intLt(X, 4);
  TermRef Lt10 = intLt(X, 10);
  TermRef IsDiv = F.mkEq(Tag, F.stringConst("div")); // Created last.
  std::vector<TermRef> Guards = canonical({Lt4, Lt10, IsDiv});
  ASSERT_EQ(Guards.back(), IsDiv);
  const MintermSplit &Split = Trie.minterms(Guards);
  const MintermTrie::Stats &T = Trie.stats();
  ASSERT_GT(T.SubsumptionAnswers, 0u);
  ASSERT_LT(T.SubsumptionAnswers, T.NodesDecided);
  // Every decided node not settled by subsumption is one checkSat.
  EXPECT_EQ(S.stats().ScopedChecks, T.NodesDecided - T.SubsumptionAnswers);

  // A region's verdict was cached under its conjunction term, so a
  // one-shot query of an emitted region costs no decision core.
  ASSERT_FALSE(Split.Regions.empty());
  for (const Minterm &M : Split.Regions) {
    uint64_t HitsBefore = S.stats().CacheHits;
    uint64_t CoreBefore = S.stats().CoreChecks;
    EXPECT_TRUE(S.isSat(M.Predicate));
    EXPECT_EQ(S.stats().CacheHits, HitsBefore + 1);
    EXPECT_EQ(S.stats().CoreChecks, CoreBefore);
  }
}

} // namespace
