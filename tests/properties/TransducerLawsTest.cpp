//===- tests/properties/TransducerLawsTest.cpp - STTR property tests ------===//
//
// Property-based tests over seeded random transducers:
//   - Theorem 4: composed == sequential when the first operand is
//     single-valued or the second is linear; always an over-approximation;
//   - the domain automaton accepts exactly the runnable inputs;
//   - pre-image membership matches exhaustive forward search;
//   - restriction and lookahead simplification preserve behaviour.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "transducers/RandomAutomata.h"

#include <algorithm>

using namespace fast;
using namespace fast::test;

namespace {

std::vector<TreeRef> runSequential(Session &Se, const Sttr &S, const Sttr &T,
                                   TreeRef Input) {
  std::vector<TreeRef> Result;
  for (TreeRef Mid : runSttr(S, Se.Trees, Input)) {
    std::vector<TreeRef> Out = runSttr(T, Se.Trees, Mid);
    Result.insert(Result.end(), Out.begin(), Out.end());
  }
  std::sort(Result.begin(), Result.end());
  Result.erase(std::unique(Result.begin(), Result.end()), Result.end());
  return Result;
}

class TransducerLaws : public ::testing::TestWithParam<unsigned> {
protected:
  Session S;
  SignatureRef Sig = makeBtSig();
  std::shared_ptr<Sttr> T1 =
      randomDetLinearSttr(S.Terms, S.Outputs, Sig, GetParam() * 7 + 1);
  std::shared_ptr<Sttr> T2 =
      randomDetLinearSttr(S.Terms, S.Outputs, Sig, GetParam() * 7 + 2);

  template <typename Fn> void forSamples(unsigned Count, Fn Check) {
    RandomTreeOptions Options;
    Options.MaxDepth = 5;
    RandomTreeGen Gen(S.Trees, Sig, GetParam() * 7 + 3, Options);
    for (unsigned I = 0; I < Count; ++I)
      Check(Gen.generate());
  }
};

TEST_P(TransducerLaws, GeneratedTransducersAreDetLinearTotal) {
  EXPECT_TRUE(T1->isLinear());
  EXPECT_TRUE(T1->isDeterministic(S.Solv));
  forSamples(40, [&](TreeRef T) {
    EXPECT_EQ(runSttr(*T1, S.Trees, T).size(), 1u) << T->str();
  });
}

TEST_P(TransducerLaws, Theorem4ExactForDetLinear) {
  ComposeResult C = composeSttr(S.Solv, S.Outputs, *T1, *T2);
  EXPECT_TRUE(C.isExact());
  forSamples(60, [&](TreeRef T) {
    EXPECT_EQ(runSttr(*C.Composed, S.Trees, T), runSequential(S, *T1, *T2, T))
        << T->str();
  });
}

TEST_P(TransducerLaws, ComposedAssociativityOnBehaviour) {
  std::shared_ptr<Sttr> T3 =
      randomDetLinearSttr(S.Terms, S.Outputs, Sig, GetParam() * 7 + 4);
  std::shared_ptr<Sttr> LeftFirst =
      composeSttr(S.Solv, S.Outputs,
                  *composeSttr(S.Solv, S.Outputs, *T1, *T2).Composed, *T3)
          .Composed;
  std::shared_ptr<Sttr> RightFirst =
      composeSttr(S.Solv, S.Outputs, *T1,
                  *composeSttr(S.Solv, S.Outputs, *T2, *T3).Composed)
          .Composed;
  forSamples(40, [&](TreeRef T) {
    EXPECT_EQ(runSttr(*LeftFirst, S.Trees, T), runSttr(*RightFirst, S.Trees, T))
        << T->str();
  });
}

TEST_P(TransducerLaws, Theorem4OverapproximationForNondet) {
  // S nondeterministic, T det+linear: composition is still exact in the
  // run-inclusion sense (it must contain every sequential output).
  std::shared_ptr<Sttr> N =
      randomNondetSttr(S.Terms, S.Outputs, Sig, GetParam() * 7 + 5);
  ComposeResult C = composeSttr(S.Solv, S.Outputs, *N, *T2);
  forSamples(40, [&](TreeRef T) {
    std::vector<TreeRef> Sequential = runSequential(S, *N, *T2, T);
    std::vector<TreeRef> Composed = runSttr(*C.Composed, S.Trees, T);
    EXPECT_TRUE(std::includes(Composed.begin(), Composed.end(),
                              Sequential.begin(), Sequential.end()))
        << T->str();
    if (C.isExact()) {
      EXPECT_EQ(Composed, Sequential) << T->str();
    }
  });
}

TEST_P(TransducerLaws, DomainAcceptsExactlyRunnableInputs) {
  // Build a partial transducer by restricting T1 to a random language.
  TreeLanguage L = randomLanguage(S.Terms, Sig, GetParam() * 7 + 6);
  std::shared_ptr<Sttr> Partial = restrictInput(S.Solv, *T1, L);
  TreeLanguage Dom = domainLanguage(*Partial);
  forSamples(60, [&](TreeRef T) {
    EXPECT_EQ(Dom.contains(T), !runSttr(*Partial, S.Trees, T).empty())
        << T->str();
  });
}

TEST_P(TransducerLaws, PreImageMatchesForwardSearch) {
  TreeLanguage L = randomLanguage(S.Terms, Sig, GetParam() * 7 + 6);
  TreeLanguage Pre = preImageLanguage(S.Solv, *T1, L);
  forSamples(60, [&](TreeRef T) {
    bool Forward = false;
    for (TreeRef Out : runSttr(*T1, S.Trees, T))
      Forward |= L.contains(Out);
    EXPECT_EQ(Pre.contains(T), Forward) << T->str();
  });
}

TEST_P(TransducerLaws, RestrictInputBehaviour) {
  TreeLanguage L = randomLanguage(S.Terms, Sig, GetParam() * 7 + 6);
  std::shared_ptr<Sttr> R = restrictInput(S.Solv, *T1, L);
  forSamples(60, [&](TreeRef T) {
    std::vector<TreeRef> Expected =
        L.contains(T) ? runSttr(*T1, S.Trees, T) : std::vector<TreeRef>{};
    EXPECT_EQ(runSttr(*R, S.Trees, T), Expected) << T->str();
  });
}

TEST_P(TransducerLaws, RestrictOutputBehaviour) {
  TreeLanguage L = randomLanguage(S.Terms, Sig, GetParam() * 7 + 6);
  ComposeResult R = restrictOutput(S.Solv, S.Outputs, *T1, L);
  forSamples(60, [&](TreeRef T) {
    std::vector<TreeRef> Expected;
    for (TreeRef Out : runSttr(*T1, S.Trees, T))
      if (L.contains(Out))
        Expected.push_back(Out);
    std::sort(Expected.begin(), Expected.end());
    EXPECT_EQ(runSttr(*R.Composed, S.Trees, T), Expected) << T->str();
  });
}

TEST_P(TransducerLaws, TypeCheckAgreesWithSampling) {
  TreeLanguage In = randomLanguage(S.Terms, Sig, GetParam() * 7 + 6);
  TreeLanguage Out = randomLanguage(S.Terms, Sig, GetParam() * 7 + 7);
  bool Checked = typeCheck(S.Solv, In, *T1, Out);
  forSamples(60, [&](TreeRef T) {
    if (!In.contains(T))
      return;
    for (TreeRef O : runSttr(*T1, S.Trees, T)) {
      if (Checked) {
        EXPECT_TRUE(Out.contains(O)) << T->str() << " -> " << O->str();
      }
    }
  });
}

TEST_P(TransducerLaws, SimplifyLookaheadPreservesBehaviour) {
  TreeLanguage L = randomLanguage(S.Terms, Sig, GetParam() * 7 + 6);
  std::shared_ptr<Sttr> R = restrictInput(S.Solv, *T1, L);
  std::shared_ptr<Sttr> Simplified = simplifyLookahead(S.Solv, *R);
  EXPECT_LE(Simplified->lookahead().numStates(), R->lookahead().numStates());
  forSamples(60, [&](TreeRef T) {
    EXPECT_EQ(runSttr(*Simplified, S.Trees, T), runSttr(*R, S.Trees, T))
        << T->str();
  });
}

TEST_P(TransducerLaws, CloneIsBehaviourallyIdentical) {
  std::shared_ptr<Sttr> Copy = cloneSttr(*T1);
  forSamples(30, [&](TreeRef T) {
    EXPECT_EQ(runSttr(*Copy, S.Trees, T), runSttr(*T1, S.Trees, T));
  });
}

TEST_P(TransducerLaws, PreImageOfUniversalIsTheDomain) {
  // pre-image(T, universe) == domain(T), and
  // domain(restrict-out(T, L)) == pre-image(T, L) — the identities behind
  // Section 3.5's operation table.
  TreeLanguage L = randomLanguage(S.Terms, Sig, GetParam() * 7 + 6);
  std::shared_ptr<Sttr> Partial = restrictInput(S.Solv, *T1, L);
  TreeLanguage PreAll = preImageLanguage(
      S.Solv, *Partial, universalLanguage(S.Terms, Sig));
  EXPECT_TRUE(
      areEquivalentLanguages(S.Solv, PreAll, domainLanguage(*Partial)));

  TreeLanguage Out = randomLanguage(S.Terms, Sig, GetParam() * 7 + 8);
  ComposeResult Restr = restrictOutput(S.Solv, S.Outputs, *T1, Out);
  EXPECT_TRUE(areEquivalentLanguages(S.Solv,
                                     domainLanguage(*Restr.Composed),
                                     preImageLanguage(S.Solv, *T1, Out)));
}

TEST_P(TransducerLaws, DomainOfComposedWithinDomainOfFirst) {
  ComposeResult C = composeSttr(S.Solv, S.Outputs, *T1, *T2);
  TreeLanguage DomC = domainLanguage(*C.Composed);
  TreeLanguage DomS = domainLanguage(*T1);
  EXPECT_TRUE(isSubsetLanguage(S.Solv, DomC, DomS));
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransducerLaws, ::testing::Range(0u, 6u));

} // namespace
