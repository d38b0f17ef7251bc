//===- tests/trees/TreeTest.cpp - Tree substrate tests --------------------===//

#include "TestUtil.h"

#include "support/Freeze.h"

using namespace fast;
using namespace fast::test;

namespace {

TEST(RationalTest, Arithmetic) {
  Rational Half(1, 2), Third(1, 3);
  EXPECT_EQ(Half + Third, Rational(5, 6));
  EXPECT_EQ(Half * Third, Rational(1, 6));
  EXPECT_EQ(Half - Half, Rational(0));
  EXPECT_EQ(Half / Third, Rational(3, 2));
  EXPECT_TRUE(Third < Half);
  EXPECT_EQ(Rational(2, 4), Half);
  EXPECT_EQ(Rational(-1, -2), Half);
  EXPECT_EQ(Rational(1, -2), -Half);
  EXPECT_EQ(Rational(6, 3).str(), "2");
  EXPECT_EQ(Rational(-3, 6).str(), "-1/2");
}

TEST(RationalTest, Parse) {
  Rational R;
  EXPECT_TRUE(Rational::parse("42", R));
  EXPECT_EQ(R, Rational(42));
  EXPECT_TRUE(Rational::parse("-2.5", R));
  EXPECT_EQ(R, Rational(-5, 2));
  EXPECT_TRUE(Rational::parse("7/4", R));
  EXPECT_EQ(R, Rational(7, 4));
  EXPECT_FALSE(Rational::parse("", R));
  EXPECT_FALSE(Rational::parse("1/0", R));
  EXPECT_FALSE(Rational::parse("abc", R));
}

TEST(TreeTest, InterningSharesStructure) {
  Session S;
  SignatureRef Sig = makeBtSig();
  TreeRef L1 = btLeaf(S, Sig, 1);
  TreeRef L2 = btLeaf(S, Sig, 1);
  EXPECT_EQ(L1, L2);
  TreeRef N1 = btNode(S, Sig, 0, L1, L2);
  TreeRef N2 = btNode(S, Sig, 0, L1, L1);
  EXPECT_EQ(N1, N2);
  EXPECT_EQ(N1->size(), 3u);
  EXPECT_EQ(N1->depth(), 2u);
}

TEST(TreeTest, PrintParseRoundTrip) {
  Session S;
  SignatureRef Sig = makeHtmlSig();
  std::string Error;
  const std::string Text =
      "node[\"script\"](nil[\"\"], nil[\"\"], node[\"div\"](nil[\"\"], "
      "nil[\"\"], nil[\"\"]))";
  TreeRef T = parseTree(S.Trees, Sig, Text, Error);
  ASSERT_NE(T, nullptr) << Error;
  EXPECT_EQ(T->str(), Text);
  // Parsing the printed form gives the identical (interned) node.
  TreeRef T2 = parseTree(S.Trees, Sig, T->str(), Error);
  EXPECT_EQ(T, T2);
}

TEST(TreeTest, ParseEscapes) {
  Session S;
  SignatureRef Sig = makeHtmlSig();
  std::string Error;
  TreeRef T = parseTree(S.Trees, Sig, "val[\"\\\\\"](nil[\"\"])", Error);
  ASSERT_NE(T, nullptr) << Error;
  EXPECT_EQ(T->attr(0).getString(), "\\");
}

TEST(TreeTest, ParseErrors) {
  Session S;
  SignatureRef Sig = makeBtSig();
  std::string Error;
  EXPECT_EQ(parseTree(S.Trees, Sig, "M[1]", Error), nullptr);
  EXPECT_NE(Error.find("unknown constructor"), std::string::npos);
  EXPECT_EQ(parseTree(S.Trees, Sig, "N[1](L[1])", Error), nullptr);
  EXPECT_EQ(parseTree(S.Trees, Sig, "L[1] garbage", Error), nullptr);
  EXPECT_EQ(parseTree(S.Trees, Sig, "L[\"x\"]", Error), nullptr);
  EXPECT_EQ(parseTree(S.Trees, Sig, "L[]", Error), nullptr);
}

TEST(TreeTest, IListHelpers) {
  Session S;
  SignatureRef Sig = makeIListSig();
  std::vector<int64_t> Values = {3, 1, 4, 1, 5};
  EXPECT_EQ(readIList(makeIList(S, Sig, Values)), Values);
  EXPECT_EQ(readIList(makeIList(S, Sig, {})), std::vector<int64_t>{});
}

TEST(TreeFactoryTest, OverlayResolvesBaseAndInternsLocally) {
  SignatureRef Sig = makeBtSig();
  unsigned L = *Sig->findConstructor("L"), N = *Sig->findConstructor("N");
  TreeFactory Base;
  TreeRef BaseLeaf = Base.makeLeaf(Sig, L, {Value::integer(1)});
  TreeRef BaseNode =
      Base.make(Sig, N, {Value::integer(0)}, {BaseLeaf, BaseLeaf});
  Base.freeze();
  const size_t BaseCount = Base.numNodes();
  ASSERT_EQ(BaseCount, 2u);

  TreeFactory Overlay(&Base);
  // A base structure resolves to the base pointer.
  EXPECT_EQ(Overlay.make(Sig, N, {Value::integer(0)}, {BaseLeaf, BaseLeaf}),
            BaseNode);
  EXPECT_EQ(Overlay.numNodes(), BaseCount);
  // A new node interns locally; the base does not move.
  TreeRef Local =
      Overlay.make(Sig, N, {Value::integer(7)}, {BaseNode, BaseLeaf});
  EXPECT_EQ(Overlay.make(Sig, N, {Value::integer(7)}, {BaseNode, BaseLeaf}),
            Local);
  EXPECT_EQ(Overlay.numNodes(), BaseCount + 1);
  EXPECT_EQ(Base.numNodes(), BaseCount);
  EXPECT_EQ(Local->size(), 5u);
  EXPECT_EQ(Local->depth(), 3u);

  // After a reset, re-interning gives an equal node over the same base
  // refs, which stay valid.
  Overlay.resetOverlay();
  EXPECT_EQ(Overlay.numNodes(), BaseCount);
  TreeRef Again =
      Overlay.make(Sig, N, {Value::integer(7)}, {BaseNode, BaseLeaf});
  EXPECT_EQ(Again->str(), "N[7](N[0](L[1], L[1]), L[1])");
  EXPECT_EQ(Again->child(0), BaseNode);
  EXPECT_EQ(Again->child(1), BaseLeaf);
  EXPECT_EQ(BaseNode->str(), "N[0](L[1], L[1])");
  EXPECT_EQ(Overlay.numNodes(), BaseCount + 1);
}

TEST(TreeFactoryTest, RefsSurviveTableGrowth) {
  SignatureRef Sig = makeBtSig();
  unsigned L = *Sig->findConstructor("L"), N = *Sig->findConstructor("N");
  constexpr int64_t kSteps = 100000; // Two new nodes per step.
  TreeFactory F;
  const TreeRef Bottom = F.makeLeaf(Sig, L, {Value::integer(-1)});
  std::vector<TreeRef> Leaves, Spine;
  for (int64_t I = 0; I < kSteps; ++I) {
    Leaves.push_back(F.makeLeaf(Sig, L, {Value::integer(I)}));
    Spine.push_back(F.make(Sig, N, {Value::integer(I)},
                           {Leaves.back(), I == 0 ? Bottom : Spine.back()}));
  }
  ASSERT_EQ(F.numNodes(), size_t(2 * kSteps + 1));
  // Every ref taken before the table grew re-interns to the same pointer
  // and still reads its size and depth.
  EXPECT_EQ(F.makeLeaf(Sig, L, {Value::integer(-1)}), Bottom);
  for (int64_t I = 0; I < kSteps; ++I) {
    ASSERT_EQ(F.makeLeaf(Sig, L, {Value::integer(I)}), Leaves[I]);
    ASSERT_EQ(F.make(Sig, N, {Value::integer(I)},
                     {Leaves[I], I == 0 ? Bottom : Spine[I - 1]}),
              Spine[I]);
    ASSERT_EQ(Spine[I]->size(), size_t(2 * I + 3));
    ASSERT_EQ(Spine[I]->depth(), unsigned(I + 2));
  }
  EXPECT_EQ(F.numNodes(), size_t(2 * kSteps + 1));
}

TEST(TreeFactoryTest, LongAttributeStringsOutliveGrowthAndReset) {
  SignatureRef Sig = makeHtmlSig();
  unsigned Nil = *Sig->findConstructor("nil");
  unsigned Val = *Sig->findConstructor("val");
  // Longer than any small-string buffer, so each lives on the heap.
  auto Long = [](int I) {
    return std::string(64, char('a' + I % 26)) + std::to_string(I);
  };
  TreeFactory Base;
  TreeRef BaseLeaf = Base.makeLeaf(Sig, Nil, {Value::string(Long(0))});
  Base.freeze();

  TreeFactory Overlay(&Base);
  constexpr int kNodes = 2000; // Several table doublings and arena chunks.
  std::vector<TreeRef> Refs;
  for (int I = 1; I <= kNodes; ++I)
    Refs.push_back(
        Overlay.make(Sig, Val, {Value::string(Long(I))}, {BaseLeaf}));
  for (int I = 1; I <= kNodes; ++I) {
    ASSERT_EQ(Refs[I - 1]->attr(0).getString(), Long(I));
    ASSERT_EQ(Overlay.make(Sig, Val, {Value::string(Long(I))}, {BaseLeaf}),
              Refs[I - 1]);
  }
  Overlay.resetOverlay();
  EXPECT_EQ(BaseLeaf->attr(0).getString(), Long(0));
  TreeRef Again =
      Overlay.make(Sig, Val, {Value::string(Long(5))}, {BaseLeaf});
  EXPECT_EQ(Again->attr(0).getString(), Long(5));
  EXPECT_EQ(Again->child(0), BaseLeaf);
  // The overlay's destructor frees the rest before the base's.
}

TEST(TreeFactoryTest, FrozenFactoryReadsButNeverWrites) {
  SignatureRef Sig = makeBtSig();
  unsigned L = *Sig->findConstructor("L");
  // 48 nodes fill the first 64-slot table to its load limit, so any
  // insertion would have to grow it.
  TreeFactory F;
  std::vector<TreeRef> Refs;
  for (int64_t I = 0; I < 48; ++I)
    Refs.push_back(F.makeLeaf(Sig, L, {Value::integer(I)}));
  F.freeze();
  for (int64_t I = 0; I < 48; ++I)
    EXPECT_EQ(F.makeLeaf(Sig, L, {Value::integer(I)}), Refs[I]);
  EXPECT_EQ(F.numNodes(), 48u);
  EXPECT_THROW((void)F.makeLeaf(Sig, L, {Value::integer(48)}),
               FrozenFactoryError);
  EXPECT_EQ(F.numNodes(), 48u);
  EXPECT_EQ(F.makeLeaf(Sig, L, {Value::integer(0)}), Refs[0]);
  EXPECT_EQ(Refs[47]->attr(0).getInt(), 47);
}

TEST(RandomTreeTest, DeterministicAndBounded) {
  Session S;
  SignatureRef Sig = makeBtSig();
  RandomTreeOptions Options;
  Options.MaxDepth = 4;
  RandomTreeGen Gen1(S.Trees, Sig, /*Seed=*/7, Options);
  RandomTreeGen Gen2(S.Trees, Sig, /*Seed=*/7, Options);
  for (int I = 0; I < 50; ++I) {
    TreeRef A = Gen1.generate();
    TreeRef B = Gen2.generate();
    EXPECT_EQ(A, B);
    EXPECT_LE(A->depth(), 4u);
  }
}

TEST(SignatureTest, Lookups) {
  SignatureRef Sig = makeHtmlSig();
  EXPECT_EQ(Sig->numConstructors(), 4u);
  EXPECT_EQ(*Sig->findConstructor("attr"), 2u);
  EXPECT_FALSE(Sig->findConstructor("bogus").has_value());
  EXPECT_EQ(*Sig->findAttr("tag"), 0u);
  EXPECT_EQ(Sig->maxRank(), 3u);
  EXPECT_TRUE(Sig->isCompatibleWith(*makeHtmlSig()));
  EXPECT_FALSE(Sig->isCompatibleWith(*makeBtSig()));
}

} // namespace
