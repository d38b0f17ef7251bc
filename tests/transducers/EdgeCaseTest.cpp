//===- tests/transducers/EdgeCaseTest.cpp - Boundary behaviours -----------===//
//
// Edge cases across the transducer stack: empty transducers, unsatisfiable
// guards, high-rank constructors, multi-attribute signatures, deep
// recursion, output truncation, and restriction against empty/universal
// languages.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "support/Stack.h"
#include "transducers/RandomAutomata.h"

using namespace fast;
using namespace fast::test;

namespace {

class EdgeCaseTest : public ::testing::Test {
protected:
  Session S;
  SignatureRef Bt = makeBtSig();
};

TEST_F(EdgeCaseTest, TransducerWithNoRulesIsEmpty) {
  auto T = std::make_shared<Sttr>(Bt);
  T->addState("dead");
  T->setStartState(0);
  EXPECT_TRUE(isEmptyTransducer(S.Solv, *T));
  EXPECT_TRUE(runSttr(*T, S.Trees, btLeaf(S, Bt, 1)).empty());
  EXPECT_TRUE(isEmptyLanguage(S.Solv, domainLanguage(*T)));
}

TEST_F(EdgeCaseTest, UnsatisfiableGuardsNeverFire) {
  auto T = std::make_shared<Sttr>(Bt);
  unsigned Q = T->addState("q");
  T->setStartState(Q);
  TermRef I = Bt->attrTerm(S.Terms, 0);
  // i < 0 and i > 0 simultaneously: unsatisfiable but not syntactically
  // false (the factory does not decide arithmetic).
  TermRef Unsat = S.Terms.mkAnd(S.Terms.mkLt(I, S.Terms.intConst(0)),
                                S.Terms.mkGt(I, S.Terms.intConst(0)));
  unsigned L = *Bt->findConstructor("L");
  T->addRule(Q, L, Unsat, {}, S.Outputs.mkCons(L, {I}, {}));
  EXPECT_FALSE(Unsat->isFalse());
  EXPECT_TRUE(isEmptyTransducer(S.Solv, *T));
  EXPECT_TRUE(runSttr(*T, S.Trees, btLeaf(S, Bt, 1)).empty());
}

TEST_F(EdgeCaseTest, ComposeWithEmptyTransducerIsEmpty) {
  auto Dead = std::make_shared<Sttr>(Bt);
  Dead->addState("dead");
  Dead->setStartState(0);
  std::shared_ptr<Sttr> Id = identitySttr(S.Terms, S.Outputs, Bt);
  for (auto &[A, B] : {std::pair(Dead, Id), std::pair(Id, Dead)}) {
    ComposeResult C = composeSttr(S.Solv, S.Outputs, *A, *B);
    EXPECT_TRUE(isEmptyTransducer(S.Solv, *C.Composed));
  }
}

TEST_F(EdgeCaseTest, RestrictAgainstEmptyAndUniversal) {
  std::shared_ptr<Sttr> Id = identitySttr(S.Terms, S.Outputs, Bt);
  std::shared_ptr<Sttr> None =
      restrictInput(S.Solv, *Id, emptyLanguage(Bt));
  EXPECT_TRUE(isEmptyTransducer(S.Solv, *None));
  std::shared_ptr<Sttr> All =
      restrictInput(S.Solv, *Id, universalLanguage(S.Terms, Bt));
  RandomTreeGen Gen(S.Trees, Bt, /*Seed=*/101);
  for (int K = 0; K < 30; ++K) {
    TreeRef T = Gen.generate();
    std::vector<TreeRef> Out = runSttr(*All, S.Trees, T);
    ASSERT_EQ(Out.size(), 1u);
    EXPECT_EQ(Out.front(), T);
  }
}

TEST_F(EdgeCaseTest, HighRankConstructor) {
  // Rank 5, two attributes; reverse the children and swap the attributes.
  SignatureRef Wide = TreeSignature::create(
      "Wide", {{"a", Sort::Int}, {"b", Sort::Int}},
      {{"leaf", 0}, {"penta", 5}});
  auto T = std::make_shared<Sttr>(Wide);
  unsigned Q = T->addState("rev");
  T->setStartState(Q);
  TermRef A = Wide->attrTerm(S.Terms, 0);
  TermRef B = Wide->attrTerm(S.Terms, 1);
  unsigned Leaf = *Wide->findConstructor("leaf");
  unsigned Penta = *Wide->findConstructor("penta");
  T->addRule(Q, Leaf, S.Terms.trueTerm(), {},
             S.Outputs.mkCons(Leaf, {B, A}, {}));
  std::vector<OutputRef> Reversed;
  for (int I = 4; I >= 0; --I)
    Reversed.push_back(S.Outputs.mkState(Q, I));
  T->addRule(Q, Penta, S.Terms.trueTerm(), std::vector<StateSet>(5),
             S.Outputs.mkCons(Penta, {B, A}, std::move(Reversed)));

  auto MakeLeaf = [&](int64_t X, int64_t Y) {
    return S.Trees.makeLeaf(Wide, Leaf, {Value::integer(X), Value::integer(Y)});
  };
  std::vector<TreeRef> Kids;
  for (int64_t I = 0; I < 5; ++I)
    Kids.push_back(MakeLeaf(I, 10 + I));
  const Value Attrs[] = {Value::integer(7), Value::integer(8)};
  TreeRef In = S.Trees.make(Wide, Penta, Attrs, Kids);
  std::vector<TreeRef> Out = runSttr(*T, S.Trees, In);
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_EQ(Out.front()->attr(0).getInt(), 8);
  EXPECT_EQ(Out.front()->attr(1).getInt(), 7);
  EXPECT_EQ(Out.front()->child(0)->attr(0).getInt(), 14); // reversed + swapped
  // Composing reverse with itself gives the identity behaviour.
  ComposeResult Twice = composeSttr(S.Solv, S.Outputs, *T, *T);
  EXPECT_TRUE(Twice.isExact());
  std::vector<TreeRef> Back = runSttr(*Twice.Composed, S.Trees, In);
  ASSERT_EQ(Back.size(), 1u);
  EXPECT_EQ(Back.front(), In);
}

TEST_F(EdgeCaseTest, DeepListsRunUnderALargeStack) {
  // Runs recurse along the input, so 100k-element lists need more than
  // the default thread stack; runWithStack lifts the bound.
  SignatureRef IList = makeIListSig();
  std::shared_ptr<Sttr> Map = makeMapCaesar(S, IList);
  std::vector<int64_t> Big(100000, 3);
  TreeRef In = makeIList(S, IList, Big);
  std::vector<TreeRef> Out;
  // 2 GiB: ASan builds inflate each frame several-fold, and the pages are
  // only committed as touched.
  runWithStack(size_t{2} << 30, [&] {
    SttrRunner Runner(*Map, S.Trees);
    Out = Runner.run(In);
  });
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_EQ(Out.front()->size(), In->size());
  EXPECT_EQ(readIList(Out.front()).front(), 8);
}

TEST_F(EdgeCaseTest, OutputTruncationFlag) {
  // A transducer with 2 outputs per leaf: a list of n leaves under a
  // chain of N nodes gives 2^n outputs; the runner truncates and says so.
  auto T = std::make_shared<Sttr>(Bt);
  unsigned Q = T->addState("fan");
  T->setStartState(Q);
  unsigned L = *Bt->findConstructor("L"), N = *Bt->findConstructor("N");
  TermRef I = Bt->attrTerm(S.Terms, 0);
  T->addRule(Q, L, S.Terms.trueTerm(), {},
             S.Outputs.mkCons(L, {S.Terms.intConst(0)}, {}));
  T->addRule(Q, L, S.Terms.trueTerm(), {},
             S.Outputs.mkCons(L, {S.Terms.intConst(1)}, {}));
  T->addRule(Q, N, S.Terms.trueTerm(), {{}, {}},
             S.Outputs.mkCons(N, {I}, {S.Outputs.mkState(Q, 0),
                                       S.Outputs.mkState(Q, 1)}));
  // Build a complete tree of depth 6: 32 leaves -> 2^32 outputs.
  TreeRef Tree = btLeaf(S, Bt, 5);
  for (int D = 0; D < 5; ++D)
    Tree = btNode(S, Bt, 0, Tree, Tree);
  SttrRunner Runner(*T, S.Trees);
  Runner.setMaxOutputs(64);
  std::vector<TreeRef> Out = Runner.run(Tree);
  EXPECT_TRUE(Runner.truncated());
  EXPECT_LE(Out.size(), 64u);
  EXPECT_FALSE(Out.empty());
}

TEST_F(EdgeCaseTest, PreImageOfEmptyLanguageIsEmpty) {
  std::shared_ptr<Sttr> Id = identitySttr(S.Terms, S.Outputs, Bt);
  TreeLanguage Pre = preImageLanguage(S.Solv, *Id, emptyLanguage(Bt));
  EXPECT_TRUE(isEmptyLanguage(S.Solv, Pre));
  // And pre-image of the universal language is the domain (universal for
  // the identity).
  TreeLanguage PreAll =
      preImageLanguage(S.Solv, *Id, universalLanguage(S.Terms, Bt));
  EXPECT_TRUE(areEquivalentLanguages(S.Solv, PreAll,
                                     universalLanguage(S.Terms, Bt)));
}

TEST_F(EdgeCaseTest, MultiRootRestriction) {
  // Restrict the identity to a union language (two roots after
  // normalization): leaves that are either negative or greater than ten.
  auto A = std::make_shared<Sta>(Bt);
  unsigned Neg = A->addState("neg");
  unsigned Big = A->addState("big");
  TermRef I = Bt->attrTerm(S.Terms, 0);
  unsigned L = *Bt->findConstructor("L");
  A->addRule(Neg, L, S.Terms.mkLt(I, S.Terms.intConst(0)), {});
  A->addRule(Big, L, S.Terms.mkGt(I, S.Terms.intConst(10)), {});
  TreeLanguage Union(A, StateSet{Neg, Big});
  std::shared_ptr<Sttr> Id = identitySttr(S.Terms, S.Outputs, Bt);
  std::shared_ptr<Sttr> R = restrictInput(S.Solv, *Id, Union);
  EXPECT_EQ(runSttr(*R, S.Trees, btLeaf(S, Bt, -3)).size(), 1u);
  EXPECT_EQ(runSttr(*R, S.Trees, btLeaf(S, Bt, 11)).size(), 1u);
  EXPECT_TRUE(runSttr(*R, S.Trees, btLeaf(S, Bt, 5)).empty());
  EXPECT_TRUE(
      runSttr(*R, S.Trees, btNode(S, Bt, 0, btLeaf(S, Bt, -3), btLeaf(S, Bt, -3)))
          .empty());
}

TEST_F(EdgeCaseTest, DomainOfLookaheadOnlyRule) {
  // A transducer that copies leaves only when the WHOLE left subtree of a
  // node is all-positive; the domain must reflect the lookahead.
  TreeLanguage AllPos = makeAllPositiveLang(S, Bt);
  auto T = std::make_shared<Sttr>(Bt);
  unsigned LaPos = T->lookahead().import(AllPos.automaton());
  LaPos += AllPos.roots().front();
  unsigned Q = T->addState("q");
  unsigned Id = T->ensureIdentityState(S.Terms, S.Outputs);
  T->setStartState(Q);
  unsigned L = *Bt->findConstructor("L"), N = *Bt->findConstructor("N");
  TermRef I = Bt->attrTerm(S.Terms, 0);
  T->addRule(Q, L, S.Terms.trueTerm(), {}, S.Outputs.mkCons(L, {I}, {}));
  T->addRule(Q, N, S.Terms.trueTerm(), {{LaPos}, {}},
             S.Outputs.mkCons(N, {I}, {S.Outputs.mkState(Id, 0),
                                       S.Outputs.mkState(Id, 1)}));
  TreeLanguage Dom = domainLanguage(*T);
  EXPECT_TRUE(Dom.contains(
      btNode(S, Bt, 0, btLeaf(S, Bt, 1), btLeaf(S, Bt, -1))));
  EXPECT_FALSE(Dom.contains(
      btNode(S, Bt, 0, btLeaf(S, Bt, -1), btLeaf(S, Bt, 1))));
  RandomTreeGen Gen(S.Trees, Bt, /*Seed=*/103);
  for (int K = 0; K < 50; ++K) {
    TreeRef Tr = Gen.generate();
    EXPECT_EQ(Dom.contains(Tr), !runSttr(*T, S.Trees, Tr).empty());
  }
}

TEST_F(EdgeCaseTest, IdentityStateIsCreatedOnce) {
  auto T = std::make_shared<Sttr>(Bt);
  unsigned First = T->ensureIdentityState(S.Terms, S.Outputs);
  unsigned Second = T->ensureIdentityState(S.Terms, S.Outputs);
  EXPECT_EQ(First, Second);
  EXPECT_EQ(T->numStates(), 1u);
}

} // namespace
