//===- tests/obs/ProvenanceTest.cpp - Provenance layer tests --------------===//
//
// Unit tests for the provenance layer (ProvenanceStore interning and the
// rule-coverage ledger, StateProvenance side tables and their propagation
// through Sta::import), and the derivation-carrying witness round trip
// (witnessExplained + verifyDerivation).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "automata/StaOps.h"
#include "obs/Provenance.h"

#include <memory>
#include <string>
#include <vector>

using namespace fast;
using namespace fast::obs;
using namespace fast::test;

namespace {

TEST(ProvenanceStoreTest, InternsAnchorsAndDedups) {
  ProvenanceStore P;
  unsigned A = P.internAnchor(DeclAnchor::Kind::Lang, "nodeTree", 3, 1);
  unsigned B = P.internAnchor(DeclAnchor::Kind::Trans, "remScript", 9, 1);
  unsigned A2 = P.internAnchor(DeclAnchor::Kind::Lang, "nodeTree", 3, 1);
  EXPECT_EQ(A, A2);
  EXPECT_NE(A, B);
  EXPECT_EQ(P.numAnchors(), 2u);
  EXPECT_STREQ(P.anchor(A).kindName(), "lang");
  EXPECT_STREQ(P.anchor(B).kindName(), "trans");
  EXPECT_EQ(P.anchor(B).Name, "remScript");
  EXPECT_EQ(P.anchor(B).Line, 9u);
}

TEST(ProvenanceStoreTest, CoverageLedgerAndDeadRules) {
  ProvenanceStore P;
  unsigned A = P.internAnchor(DeclAnchor::Kind::Lang, "l", 1, 1);
  unsigned R0 = P.registerRule(A, 2, 3);
  unsigned R1 = P.registerRule(A, 3, 3);
  unsigned R2 = P.registerRule(A, 4, 3);
  // Fire R0 directly and R1 through a side table that aliases it twice
  // (a rule merged from two constructions still credits each origin).
  P.countCanon(R0);
  StateProvenance T;
  T.addRuleCanon(7, R1);
  T.addRuleCanon(7, R1);
  P.countFiring(&T, 7);
  EXPECT_EQ(P.ruleOrigin(R0).Fired, 1u);
  EXPECT_EQ(P.ruleOrigin(R1).Fired, 1u);
  EXPECT_EQ(P.ruleOrigin(R2).Fired, 0u);
  EXPECT_EQ(P.deadRules(), std::vector<unsigned>({R2}));

  P.reset();
  EXPECT_EQ(P.numAnchors(), 0u);
  EXPECT_EQ(P.numRules(), 0u);
}

TEST(ProvenanceStoreTest, SourceTableGatesOnEnabled) {
  ProvenanceStore P;
  StateProvenance T;
  EXPECT_EQ(P.sourceTable(&T), nullptr);
  P.setEnabled(true);
  EXPECT_EQ(P.sourceTable(&T), &T);
  EXPECT_EQ(P.sourceTable(nullptr), nullptr);
}

TEST(StateProvenanceTest, TablesDedupAndTolerateOutOfRange) {
  StateProvenance T;
  T.addStateAnchor(2, 5);
  T.addStateAnchor(2, 5);
  T.addStateAnchor(2, 1);
  EXPECT_EQ(T.anchors(2), std::vector<unsigned>({1, 5}));
  EXPECT_TRUE(T.anchors(0).empty());
  EXPECT_TRUE(T.anchors(99).empty());
  EXPECT_TRUE(T.ruleCanon(99).empty());

  StateProvenance U;
  U.addRuleCanons(0, {3, 3, 2});
  U.importFrom(T, /*StateOffset=*/10, /*RuleOffset=*/0);
  EXPECT_EQ(U.anchors(12), std::vector<unsigned>({1, 5}));
  EXPECT_EQ(U.ruleCanon(0), std::vector<unsigned>({2, 3}));
}

TEST(StateProvenanceTest, StaImportCarriesTables) {
  Session S;
  SignatureRef Sig = makeBtSig();
  S.provenance().setEnabled(true);
  unsigned Anchor =
      S.provenance().internAnchor(DeclAnchor::Kind::Lang, "src", 1, 1);
  unsigned Canon = S.provenance().registerRule(Anchor, 2, 3);

  auto Src = std::make_shared<Sta>(Sig);
  unsigned Q = Src->addState("q");
  Src->addRule(Q, *Sig->findConstructor("L"), S.Terms.trueTerm(), {});
  Src->provenanceRW().addStateAnchor(Q, Anchor);
  Src->provenanceRW().addRuleCanon(0, Canon);

  Sta Dst(Sig);
  unsigned Extra = Dst.addState("pad");
  Dst.addRule(Extra, *Sig->findConstructor("L"), S.Terms.trueTerm(), {});
  unsigned StateOffset = Dst.import(*Src);
  ASSERT_NE(Dst.provenance(), nullptr);
  EXPECT_EQ(Dst.provenance()->anchors(StateOffset + Q),
            std::vector<unsigned>({Anchor}));
  EXPECT_EQ(Dst.provenance()->ruleCanon(1), std::vector<unsigned>({Canon}));
}

class WitnessExplainTest : public ::testing::Test {
protected:
  Session S;
  SignatureRef Sig = makeBtSig();
  TreeLanguage AllPos = makeAllPositiveLang(S, Sig);
};

TEST_F(WitnessExplainTest, DerivationReplaysAndMatchesWitness) {
  std::optional<ExplainedWitness> W =
      witnessExplained(S.Solv, AllPos, S.Trees);
  ASSERT_TRUE(W.has_value());
  ASSERT_NE(W->Tree, nullptr);
  ASSERT_NE(W->Automaton, nullptr);
  ASSERT_NE(W->Derivation, nullptr);
  EXPECT_TRUE(AllPos.contains(W->Tree));
  std::string Error;
  EXPECT_TRUE(verifyDerivation(*W->Automaton, *W->Derivation, &Error))
      << Error;

  // Tampering with the recorded rule makes the replay fail loudly.
  W->Derivation->RuleIndex = 12345;
  EXPECT_FALSE(verifyDerivation(*W->Automaton, *W->Derivation, &Error));
  EXPECT_FALSE(Error.empty());
}

TEST_F(WitnessExplainTest, EmptyLanguageYieldsNoWitness) {
  // A state with only the binary rule accepts no finite tree.
  auto A = std::make_shared<Sta>(Sig);
  unsigned Q = A->addState("q");
  A->addRule(Q, *Sig->findConstructor("N"), S.Terms.trueTerm(), {{Q}, {Q}});
  TreeLanguage Empty(A, Q);
  EXPECT_FALSE(witnessExplained(S.Solv, Empty, S.Trees).has_value());
}

} // namespace
