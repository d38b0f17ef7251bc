//===- testing/Oracles.cpp - Differential & metamorphic oracles -----------===//

#include "testing/Oracle.h"

#include "automata/Determinize.h"
#include "engine/Engine.h"
#include "smt/Minterms.h"
#include "transducers/Ops.h"
#include "transducers/Run.h"
#include "vm/Vm.h"

#include <algorithm>
#include <map>
#include <sstream>

using namespace fast;
using namespace fast::testing;

namespace {

/// Bounded transduction with memoization shared across one oracle run.
class BoundedRunner {
public:
  BoundedRunner(const Sttr &T, TreeFactory &Trees, size_t MaxOutputs)
      : Runner(T, Trees) {
    Runner.setMaxOutputs(MaxOutputs);
  }
  SttrRunResult operator()(TreeRef Input) { return Runner.runChecked(Input); }

private:
  SttrRunner Runner;
};

/// Runs A then B on every intermediate, with per-side bounds; the result
/// is truncated if either stage truncated anywhere.
SttrRunResult runSequential(BoundedRunner &A, BoundedRunner &B,
                            TreeRef Input) {
  SttrRunResult Mid = A(Input);
  SttrRunResult Out;
  Out.Truncated = Mid.Truncated;
  for (TreeRef M : Mid.Outputs) {
    SttrRunResult Step = B(M);
    Out.Truncated |= Step.Truncated;
    Out.Outputs.insert(Out.Outputs.end(), Step.Outputs.begin(),
                       Step.Outputs.end());
  }
  std::sort(Out.Outputs.begin(), Out.Outputs.end());
  Out.Outputs.erase(std::unique(Out.Outputs.begin(), Out.Outputs.end()),
                    Out.Outputs.end());
  return Out;
}

OracleFailure fail(std::string Message, TreeRef Counterexample = nullptr) {
  return OracleFailure{std::move(Message), Counterexample};
}

std::string describeOutputs(const std::vector<TreeRef> &Outputs,
                            size_t Limit = 4) {
  std::ostringstream Out;
  Out << "{";
  for (size_t I = 0; I < Outputs.size() && I < Limit; ++I)
    Out << (I ? ", " : "") << Outputs[I]->str();
  if (Outputs.size() > Limit)
    Out << ", ... (" << Outputs.size() << " total)";
  Out << "}";
  return Out.str();
}

// --- individual oracles -------------------------------------------------

/// complement flips concrete membership and L ∩ ¬L = ∅.
OracleResult complementOracle(Session &S, const FuzzInstance &I,
                              const OracleOptions &) {
  TreeLanguage NotA = complementLanguage(S.Solv, I.LangA);
  for (TreeRef T : I.Samples)
    if (NotA.contains(T) == I.LangA.contains(T))
      return fail("complement does not flip membership of " + T->str(), T);
  if (!isEmptyLanguage(S.Solv, intersectLanguages(S.Solv, I.LangA, NotA)))
    return fail("A ∩ ¬A is not empty");
  if (!areEquivalentLanguages(
          S.Solv, unionLanguages(I.LangA, NotA),
          universalLanguage(S.Terms, I.Sig)))
    return fail("A ∪ ¬A is not the universe");
  return std::nullopt;
}

/// product/union/difference agree with the boolean connectives on
/// concrete membership.
OracleResult connectivesOracle(Session &S, const FuzzInstance &I,
                               const OracleOptions &) {
  TreeLanguage Inter = intersectLanguages(S.Solv, I.LangA, I.LangB);
  TreeLanguage Uni = unionLanguages(I.LangA, I.LangB);
  TreeLanguage Diff = differenceLanguages(S.Solv, I.LangA, I.LangB);
  for (TreeRef T : I.Samples) {
    bool InA = I.LangA.contains(T), InB = I.LangB.contains(T);
    if (Inter.contains(T) != (InA && InB))
      return fail("A ∩ B disagrees with && on " + T->str(), T);
    if (Uni.contains(T) != (InA || InB))
      return fail("A ∪ B disagrees with || on " + T->str(), T);
    if (Diff.contains(T) != (InA && !InB))
      return fail("A \\ B disagrees with &&! on " + T->str(), T);
  }
  return std::nullopt;
}

/// normalize/determinize/minimize/clean preserve the language, concretely
/// and (for minimize) by the decision procedure.
OracleResult representationOracle(Session &S, const FuzzInstance &I,
                                  const OracleOptions &) {
  TreeLanguage Norm = normalize(S.Solv, I.LangA);
  if (!Norm.automaton().isNormalized())
    return fail("normalize produced a non-normalized automaton");
  DeterminizedSta Det = determinize(S.Solv, Norm.automaton());
  TreeLanguage DetLang(Det.Automaton, Det.acceptingFor(Norm.roots()));
  TreeLanguage Min = minimizeLanguage(S.Solv, I.LangA);
  TreeLanguage Clean = cleanLanguage(S.Solv, I.LangA);
  for (TreeRef T : I.Samples) {
    bool Expected = I.LangA.contains(T);
    if (Norm.contains(T) != Expected)
      return fail("normalize changed membership of " + T->str(), T);
    if (DetLang.contains(T) != Expected)
      return fail("determinize changed membership of " + T->str(), T);
    if (Min.contains(T) != Expected)
      return fail("minimize changed membership of " + T->str(), T);
    if (Clean.contains(T) != Expected)
      return fail("clean changed membership of " + T->str(), T);
  }
  if (!areEquivalentLanguages(S.Solv, Min, I.LangA))
    return fail("minimize is not language-equivalent to its input");
  return std::nullopt;
}

/// Compose-then-run equals run-then-run for det+linear operands
/// (Theorem 4, both preconditions hold).
OracleResult composeExactOracle(Session &S, const FuzzInstance &I,
                                const OracleOptions &Options) {
  ComposeResult C = composeSttr(S.Solv, S.Outputs, *I.Det1, *I.Det2);
  if (!C.isExact())
    return fail("composition of det linear transducers not flagged exact");
  BoundedRunner Composed(*C.Composed, S.Trees, Options.MaxOutputs);
  BoundedRunner First(*I.Det1, S.Trees, Options.MaxOutputs);
  BoundedRunner Second(*I.Det2, S.Trees, Options.MaxOutputs);
  for (TreeRef T : I.Samples) {
    SttrRunResult Fused = Composed(T);
    SttrRunResult Seq = runSequential(First, Second, T);
    if (!Options.IgnoreTruncation && (Fused.Truncated || Seq.Truncated))
      continue; // Both sides are lower bounds; nothing sound to compare.
    if (Fused.Outputs != Seq.Outputs)
      return fail("compose-then-run " + describeOutputs(Fused.Outputs) +
                      " != run-then-run " + describeOutputs(Seq.Outputs) +
                      " on " + T->str(),
                  T);
  }
  return std::nullopt;
}

/// Composition always over-approximates the sequential relation, and is
/// exact exactly when its Theorem 4 flag says so (checked against the
/// nondeterministic and, when expressible, nonlinear generators).
OracleResult composeOverapproxOracle(Session &S, const FuzzInstance &I,
                                     const OracleOptions &Options) {
  const std::pair<const Sttr *, const Sttr *> Pairs[] = {
      {I.Nondet.get(), I.Det2.get()}, // second linear: exact by Theorem 4
      {I.Nondet.get(), I.Dup.get()},  // nonlinear second: inexact regime
  };
  for (const auto &[A, B] : Pairs) {
    ComposeResult C = composeSttr(S.Solv, S.Outputs, *A, *B);
    BoundedRunner Composed(*C.Composed, S.Trees, Options.MaxOutputs);
    BoundedRunner First(*A, S.Trees, Options.MaxOutputs);
    BoundedRunner Second(*B, S.Trees, Options.MaxOutputs);
    for (TreeRef T : I.Samples) {
      SttrRunResult Fused = Composed(T);
      SttrRunResult Seq = runSequential(First, Second, T);
      if (!Options.IgnoreTruncation && (Fused.Truncated || Seq.Truncated))
        continue; // Lower bounds only; skip, the law needs complete sets.
      if (!std::includes(Fused.Outputs.begin(), Fused.Outputs.end(),
                         Seq.Outputs.begin(), Seq.Outputs.end()))
        return fail("composed outputs " + describeOutputs(Fused.Outputs) +
                        " miss sequential outputs " +
                        describeOutputs(Seq.Outputs) + " on " + T->str(),
                    T);
      if (C.isExact() && Fused.Outputs != Seq.Outputs)
        return fail("composition flagged exact but compose-then-run " +
                        describeOutputs(Fused.Outputs) +
                        " != run-then-run " + describeOutputs(Seq.Outputs) +
                        " on " + T->str(),
                    T);
    }
  }
  return std::nullopt;
}

/// pre-image membership matches exhaustive forward search.
OracleResult preimageOracle(Session &S, const FuzzInstance &I,
                            const OracleOptions &Options) {
  for (const Sttr *T : {I.Det1.get(), I.Nondet.get()}) {
    TreeLanguage Pre = preImageLanguage(S.Solv, *T, I.LangA);
    BoundedRunner Run(*T, S.Trees, Options.MaxOutputs);
    for (TreeRef Input : I.Samples) {
      SttrRunResult Out = Run(Input);
      if (!Options.IgnoreTruncation && Out.Truncated)
        continue; // The forward search below would be incomplete.
      bool Forward = false;
      for (TreeRef O : Out.Outputs)
        Forward |= I.LangA.contains(O);
      if (Pre.contains(Input) != Forward)
        return fail(std::string("pre-image membership ") +
                        (Pre.contains(Input) ? "true" : "false") +
                        " disagrees with forward search over " +
                        describeOutputs(Out.Outputs) + " on " + Input->str(),
                    Input);
    }
  }
  return std::nullopt;
}

/// dom(S∘T) = pre_S(dom T) when the composition is exact (Fülöp–Vogler
/// backward application), and ⊇ otherwise; cross-checked concretely.
OracleResult domainPreimageOracle(Session &S, const FuzzInstance &I,
                                  const OracleOptions &Options) {
  std::shared_ptr<Sttr> S1 = restrictInput(S.Solv, *I.Det1, I.LangA);
  std::shared_ptr<Sttr> S2 = restrictInput(S.Solv, *I.Det2, I.LangB);
  ComposeResult C = composeSttr(S.Solv, S.Outputs, *S1, *S2);
  TreeLanguage DomC = domainLanguage(*C.Composed, &S.Solv);
  TreeLanguage PreDom =
      preImageLanguage(S.Solv, *S1, domainLanguage(*S2, &S.Solv));
  if (C.isExact()) {
    if (!areEquivalentLanguages(S.Solv, DomC, PreDom))
      return fail("dom(S∘T) != pre_S(dom T) for an exact composition");
  } else if (!isSubsetLanguage(S.Solv, PreDom, DomC)) {
    return fail("dom(S∘T) does not over-approximate pre_S(dom T)");
  }
  // Concrete cross-check of the pre-image side against sequential runs.
  BoundedRunner First(*S1, S.Trees, Options.MaxOutputs);
  BoundedRunner Second(*S2, S.Trees, Options.MaxOutputs);
  for (TreeRef T : I.Samples) {
    SttrRunResult Seq = runSequential(First, Second, T);
    if (!Options.IgnoreTruncation && Seq.Truncated)
      continue;
    if (PreDom.contains(T) != !Seq.Outputs.empty())
      return fail("pre_S(dom T) disagrees with the sequential run on " +
                      T->str(),
                  T);
  }
  return std::nullopt;
}

/// type-check agrees with sampling and with its witness obligation
/// (Frisch–Hosoya: failure must come with a bad input).
OracleResult typecheckOracle(Session &S, const FuzzInstance &I,
                             const OracleOptions &Options) {
  bool Checked = typeCheck(S.Solv, I.LangA, *I.Det1, I.LangB);
  BoundedRunner Run(*I.Det1, S.Trees, Options.MaxOutputs);
  if (Checked) {
    for (TreeRef T : I.Samples) {
      if (!I.LangA.contains(T))
        continue;
      SttrRunResult Out = Run(T);
      if (!Options.IgnoreTruncation && Out.Truncated)
        continue;
      for (TreeRef O : Out.Outputs)
        if (!I.LangB.contains(O))
          return fail("type-check passed but " + T->str() +
                          " maps outside the output type: " + O->str(),
                      T);
    }
    return std::nullopt;
  }
  // Failure: the bad-input language must be non-empty, and its witness
  // must genuinely map outside the output type.
  TreeLanguage Bad = intersectLanguages(
      S.Solv, I.LangA,
      preImageLanguage(S.Solv, *I.Det1,
                       complementLanguage(S.Solv, I.LangB)));
  std::optional<TreeRef> W = witness(S.Solv, Bad, S.Trees);
  if (!W)
    return fail("type-check failed but the bad-input language is empty");
  if (!I.LangA.contains(*W))
    return fail("type-check counterexample is outside the input type: " +
                    (*W)->str(),
                *W);
  SttrRunResult Out = Run(*W);
  bool Escapes = false;
  for (TreeRef O : Out.Outputs)
    Escapes |= !I.LangB.contains(O);
  if (!Escapes && !(Out.Truncated && !Options.IgnoreTruncation))
    return fail("type-check counterexample does not map outside the "
                    "output type: " +
                    (*W)->str(),
                *W);
  return std::nullopt;
}

/// The truncation signal itself: a bounded run may drop outputs only if
/// it says so, and everything it returns must be a genuine output.
OracleResult truncationSignalOracle(Session &S, const FuzzInstance &I,
                                    const OracleOptions &Options) {
  size_t Bound = std::min<size_t>(Options.MaxOutputs, 3);
  BoundedRunner Bounded(*I.Nondet, S.Trees, Bound);
  BoundedRunner Full(*I.Nondet, S.Trees, 1u << 16);
  for (TreeRef T : I.Samples) {
    SttrRunResult B = Bounded(T);
    SttrRunResult F = Full(T);
    if (F.Truncated)
      continue; // No complete reference set to compare against.
    if (!std::includes(F.Outputs.begin(), F.Outputs.end(),
                       B.Outputs.begin(), B.Outputs.end()))
      return fail("bounded run produced outputs the full run lacks on " +
                      T->str(),
                  T);
    if (!B.Truncated && B.Outputs != F.Outputs)
      return fail("bounded run dropped outputs (" +
                      std::to_string(B.Outputs.size()) + " of " +
                      std::to_string(F.Outputs.size()) +
                      ") without raising the truncation flag on " + T->str(),
                  T);
  }
  return std::nullopt;
}

/// The trie-backed minterm split agrees region-for-region with the naive
/// computeMinterms reference loop on the guard sets determinization
/// actually splits on: one set per (automaton, constructor).
OracleResult mintermTrieOracle(Session &S, const FuzzInstance &I,
                               const OracleOptions &) {
  engine::GuardCache &G = S.engine().Guards;
  std::vector<std::vector<TermRef>> Sets;
  for (const TreeLanguage *L : {&I.LangA, &I.LangB}) {
    std::map<unsigned, std::vector<TermRef>> ByCtor;
    for (const StaRule &R : L->automaton().rules())
      ByCtor[R.CtorId].push_back(R.Guard);
    for (auto &[Ctor, Guards] : ByCtor)
      Sets.push_back(std::move(Guards));
  }
  for (const std::vector<TermRef> &Guards : Sets) {
    const MintermSplit &Split = G.minterms(Guards);
    // Replay the reference loop on the canonical set the trie actually
    // used, so polarity vectors index the same guards.
    std::vector<Minterm> Naive = computeMinterms(S.Solv, Split.Guards);
    if (Split.Regions.size() != Naive.size())
      return fail("trie produced " + std::to_string(Split.Regions.size()) +
                  " minterm regions, reference loop produced " +
                  std::to_string(Naive.size()));
    for (size_t R = 0; R < Naive.size(); ++R) {
      if (Split.Regions[R].Polarity != Naive[R].Polarity)
        return fail("minterm region " + std::to_string(R) +
                    " has diverging polarities between trie and reference");
      if (!S.Solv.areEquivalent(Split.Regions[R].Predicate,
                                Naive[R].Predicate))
        return fail("minterm region " + std::to_string(R) +
                    " predicates are not equivalent: trie " +
                    Split.Regions[R].Predicate->str() + " vs reference " +
                    Naive[R].Predicate->str());
    }
  }
  return std::nullopt;
}

/// witnessExplained: the explained witness agrees with emptiness, lies in
/// the language, and its recorded derivation replays concretely — every
/// node's rule matches state/constructor, the stored guard model equals
/// the node's attributes and satisfies the guard, and each child is
/// accepted by its lookahead state (StaOps::verifyDerivation).
OracleResult derivationReplayOracle(Session &S, const FuzzInstance &I,
                                    const OracleOptions &) {
  auto CheckLang = [&](const TreeLanguage &L,
                       const std::string &Label) -> OracleResult {
    bool Empty = isEmptyLanguage(S.Solv, L);
    std::optional<ExplainedWitness> W = witnessExplained(S.Solv, L, S.Trees);
    if (Empty == W.has_value())
      return fail(Label + ": witnessExplained " +
                  (W ? "produced a witness for an empty language"
                     : "found no witness for a non-empty language"));
    if (!W)
      return std::nullopt;
    if (!W->Derivation || !W->Automaton)
      return fail(Label + ": explained witness carries no derivation",
                  W->Tree);
    std::string Error;
    if (!verifyDerivation(*W->Automaton, *W->Derivation, &Error))
      return fail(Label + ": derivation replay failed: " + Error, W->Tree);
    if (!L.contains(W->Tree))
      return fail(Label + ": explained witness is not in the language",
                  W->Tree);
    return std::nullopt;
  };
  if (OracleResult R = CheckLang(I.LangA, "A"))
    return R;
  return CheckLang(intersectLanguages(S.Solv, I.LangA, I.LangB), "A ∩ B");
}

/// bytecodeRun: the compiled data plane is a transparent fast path — a
/// runner with a VM attached must produce exactly the interpreter's
/// checked result (same output set, same truncation flag) on every
/// sample, for every instance transducer.  Ineligible transducers (the
/// nondeterministic and duplicating ones, typically) must keep the plain
/// interpreter path bit-for-bit by falling back.
OracleResult bytecodeRunOracle(Session &S, const FuzzInstance &I,
                               const OracleOptions &Options) {
  struct Subject {
    const char *Label;
    const std::shared_ptr<Sttr> &T;
  };
  const Subject Subjects[] = {{"Det1", I.Det1},
                              {"Det2", I.Det2},
                              {"Nondet", I.Nondet},
                              {"Dup", I.Dup}};
  bool SawCompiled = false, SawFallback = false;
  for (const Subject &Sub : Subjects) {
    if (!Sub.T)
      continue;
    SttrRunner Plain(*Sub.T, S.Trees);
    Plain.setMaxOutputs(Options.MaxOutputs);
    SttrRunner Routed(*Sub.T, S.Trees);
    Routed.setMaxOutputs(Options.MaxOutputs);
    bool Attached = vm::attachVm(Routed, S, *Sub.T, Sub.Label);
    (Attached ? SawCompiled : SawFallback) = true;
    for (TreeRef Sample : I.Samples) {
      SttrRunResult Expected = Plain.runChecked(Sample);
      SttrRunResult Got = Routed.runChecked(Sample);
      if (Got.Outputs != Expected.Outputs)
        return fail(std::string(Sub.Label) + (Attached ? " (vm)" : " (fallback)") +
                        ": routed outputs " + describeOutputs(Got.Outputs) +
                        " != interpreter outputs " +
                        describeOutputs(Expected.Outputs),
                    Sample);
      if (Got.Truncated != Expected.Truncated)
        return fail(std::string(Sub.Label) +
                        ": truncation flag diverges (vm " +
                        (Got.Truncated ? "set" : "clear") + ", interpreter " +
                        (Expected.Truncated ? "set" : "clear") + ")",
                    Sample);
      if (Attached && Got.Truncated)
        return fail(std::string(Sub.Label) +
                        ": a compiled (single-output) transducer can "
                        "never truncate",
                    Sample);
    }
  }
  // The instance mix is designed to exercise both planes; if every
  // transducer lands on one side the oracle has lost its teeth.
  if (!SawCompiled && !SawFallback)
    return fail("instance carries no transducers to differentiate");
  return std::nullopt;
}

} // namespace

OracleRun fast::testing::runOracle(const Oracle &O, Session &S,
                                   const FuzzInstance &I,
                                   const OracleOptions &Options) {
  engine::ExplorationLimits &Limits = S.engine().Limits;
  engine::ExplorationLimits Saved = Limits;
  Limits.MaxStates = Options.MaxExplorationStates;
  OracleRun Run;
  try {
    Run.Result = O.Check(S, I, Options);
  } catch (const engine::ExplorationError &E) {
    Run.Skipped = true;
    Run.SkipReason = E.what();
  }
  Limits = Saved;
  return Run;
}

const std::vector<Oracle> &fast::testing::allOracles() {
  static const std::vector<Oracle> Registry = {
      {"complement", "¬L flips membership; L ∩ ¬L = ∅; L ∪ ¬L = U", 1,
       complementOracle},
      {"connectives", "∩/∪/\\ agree with &&, ||, &&! on concrete membership",
       1, connectivesOracle},
      {"representation",
       "normalize/determinize/minimize/clean preserve the language", 1,
       representationOracle},
      {"compose-exact",
       "T_{S∘T} = T_T ∘ T_S for det linear operands (Theorem 4)", 1,
       composeExactOracle},
      {"compose-overapprox",
       "T_{S∘T} ⊇ T_T ∘ T_S always; = exactly when flagged exact", 1,
       composeOverapproxOracle},
      {"preimage", "pre_T(L) membership = exhaustive forward search", 1,
       preimageOracle},
      // Rotated: two restrictions, a composition, two domain automata,
      // a pre-image, and a language-equivalence decision per run.
      {"domain-preimage",
       "dom(S∘T) = pre_S(dom T) when exact (backward application law)", 4,
       domainPreimageOracle},
      {"typecheck",
       "type-check truth agrees with sampling; failure carries a bad input",
       1, typecheckOracle},
      {"truncation-signal",
       "bounded runs drop outputs only with the truncation flag raised", 1,
       truncationSignalOracle},
      {"minterm-trie",
       "trie minterm splits match the naive enumeration region-for-region",
       1, mintermTrieOracle},
      {"derivation-replay",
       "explained witnesses carry derivations that replay concretely", 1,
       derivationReplayOracle},
      {"bytecode-run",
       "a VM-attached runner equals the structural interpreter "
       "(outputs and truncation flag) on every sample; ineligible "
       "transducers fall back transparently",
       1, bytecodeRunOracle},
  };
  return Registry;
}

const Oracle *fast::testing::findOracle(const std::string &Name) {
  for (const Oracle &O : allOracles())
    if (O.Name == Name)
      return &O;
  return nullptr;
}
