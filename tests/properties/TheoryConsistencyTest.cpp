//===- tests/properties/TheoryConsistencyTest.cpp - eval vs solver --------===//
//
// The library has two semantics for the label theory: concrete evaluation
// (used when running transducers) and Z3 (used by the decision
// procedures).  Soundness of every analysis hinges on their agreement, so
// this suite cross-validates them: for random predicates p and random
// attribute tuples a,
//
//     evalPredicate(p, a)  <=>  isSat(p /\ attrs == a).
//
// It also checks that the term-factory simplifications (negation
// normalization, mod-chain collapse, constant folding under
// substitution) preserve solver equivalence.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "transducers/RandomAutomata.h"

using namespace fast;
using namespace fast::test;

namespace {

class TheoryConsistency : public ::testing::TestWithParam<unsigned> {
protected:
  Session S;
  SignatureRef Sig = TreeSignature::create(
      "Mix",
      {{"n", Sort::Int}, {"tag", Sort::String}, {"b", Sort::Bool},
       {"r", Sort::Real}},
      {{"leaf", 0}});
  std::mt19937 Rng{GetParam() + 1000};
  RandomAutomatonOptions Options;

  /// A random attribute tuple matching Sig.
  std::vector<Value> randomAttrs() {
    std::vector<Value> Attrs;
    Attrs.push_back(Value::integer(
        std::uniform_int_distribution<int64_t>(-12, 12)(Rng)));
    Attrs.push_back(Value::string(Options.StringPool[
        std::uniform_int_distribution<size_t>(
            0, Options.StringPool.size() - 1)(Rng)]));
    Attrs.push_back(Value::boolean(
        std::uniform_int_distribution<int>(0, 1)(Rng) != 0));
    Attrs.push_back(Value::real(
        Rational(std::uniform_int_distribution<int64_t>(-24, 24)(Rng),
                 std::uniform_int_distribution<int64_t>(1, 4)(Rng))));
    return Attrs;
  }

  /// The constraint attrs == a as a term.
  TermRef bindAttrs(const std::vector<Value> &Attrs) {
    std::vector<TermRef> Eqs;
    for (unsigned I = 0; I < Attrs.size(); ++I)
      Eqs.push_back(
          S.Terms.mkEq(Sig->attrTerm(S.Terms, I), S.Terms.constant(Attrs[I])));
    return S.Terms.mkAnd(Eqs);
  }
};

TEST_P(TheoryConsistency, EvalAgreesWithSolver) {
  for (int Round = 0; Round < 25; ++Round) {
    TermRef Pred = randomPredicate(S.Terms, Sig, Rng, Options);
    std::vector<Value> Attrs = randomAttrs();
    bool Evaluated = evalPredicate(Pred, Attrs);
    bool Solved = S.Solv.isSat(S.Terms.mkAnd(Pred, bindAttrs(Attrs)));
    EXPECT_EQ(Evaluated, Solved)
        << Pred->str() << " on (" << Attrs[0].str() << ", " << Attrs[1].str()
        << ", " << Attrs[2].str() << ", " << Attrs[3].str() << ")";
  }
}

TEST_P(TheoryConsistency, NegationNormalizationIsEquivalent) {
  for (int Round = 0; Round < 15; ++Round) {
    TermRef Pred = randomPredicate(S.Terms, Sig, Rng, Options);
    // mkNot may rewrite (not a<b -> b<=a, de-double-negation, ...).
    TermRef NotPred = S.Terms.mkNot(Pred);
    EXPECT_FALSE(S.Solv.isSat(S.Terms.mkAnd(Pred, NotPred)));
    EXPECT_TRUE(S.Solv.isValid(S.Terms.mkOr(Pred, NotPred)));
  }
}

TEST_P(TheoryConsistency, ModChainCollapsePreservesValues) {
  // ((n + a) mod m + b) mod m is built through the simplifier; compare
  // against direct Euclidean arithmetic on samples.
  TermRef N = Sig->attrTerm(S.Terms, 0);
  for (int Round = 0; Round < 25; ++Round) {
    int64_t A = std::uniform_int_distribution<int64_t>(-9, 9)(Rng);
    int64_t B = std::uniform_int_distribution<int64_t>(-9, 9)(Rng);
    int64_t M = std::uniform_int_distribution<int64_t>(2, 9)(Rng);
    TermRef Inner =
        S.Terms.mkMod(S.Terms.mkAdd(N, S.Terms.intConst(A)),
                      S.Terms.intConst(M));
    TermRef Outer = S.Terms.mkMod(S.Terms.mkAdd(Inner, S.Terms.intConst(B)),
                                  S.Terms.intConst(M));
    // The simplifier collapsed the chain to a single mod.
    EXPECT_TRUE(Outer->isConst() || Outer->kind() == TermKind::Mod);
    if (Outer->kind() == TermKind::Mod) {
      EXPECT_NE(Outer->operand(0)->kind(), TermKind::Mod);
    }
    for (int64_t V : {-20l, -7l, -1l, 0l, 3l, 11l, 26l}) {
      std::vector<Value> Attrs = {Value::integer(V), Value::string(""),
                                  Value::boolean(false),
                                  Value::real(Rational(0))};
      int64_t Got = evalTerm(Outer, Attrs).getInt();
      auto Euclid = [](int64_t X, int64_t Mod) {
        int64_t R = X % Mod;
        return R < 0 ? R + Mod : R;
      };
      EXPECT_EQ(Got, Euclid(Euclid(V + A, M) + B, M))
          << "v=" << V << " a=" << A << " b=" << B << " m=" << M;
    }
  }
}

TEST_P(TheoryConsistency, SubstitutionCommutesWithEvaluation) {
  // eval(subst(p, e), a) == eval(p, eval(e, a)): substituting label
  // expressions then evaluating equals evaluating the expressions first.
  for (int Round = 0; Round < 15; ++Round) {
    TermRef Pred = randomPredicate(S.Terms, Sig, Rng, Options);
    // Substitution: each attribute is replaced by an expression of its
    // sort (identity, constant, or arithmetic tweak for Int).
    TermRef N = Sig->attrTerm(S.Terms, 0);
    std::vector<TermRef> Subst = {
        S.Terms.mkAdd(N, S.Terms.intConst(
                             std::uniform_int_distribution<int64_t>(-3, 3)(Rng))),
        Sig->attrTerm(S.Terms, 1), Sig->attrTerm(S.Terms, 2),
        Sig->attrTerm(S.Terms, 3)};
    TermRef Substituted = S.Terms.substituteAttrs(Pred, Subst);
    std::vector<Value> Attrs = randomAttrs();
    std::vector<Value> Mapped;
    for (TermRef E : Subst)
      Mapped.push_back(evalTerm(E, Attrs));
    EXPECT_EQ(evalPredicate(Substituted, Attrs), evalPredicate(Pred, Mapped))
        << Pred->str();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TheoryConsistency, ::testing::Range(0u, 6u));

} // namespace
