//===- automata/StaOps.cpp - Core STA operations --------------------------===//

#include "automata/StaOps.h"

#include "engine/Engine.h"

#include <algorithm>
#include <cassert>

using namespace fast;

//===----------------------------------------------------------------------===//
// Normalization (Section 3.2)
//===----------------------------------------------------------------------===//

namespace {

/// A merged rule under construction: conjoined guard plus pointwise-unioned
/// child state-sets (the `!` merge of the paper).
struct MergedRule {
  TermRef Guard;
  std::vector<StateSet> Lookahead;
  /// Source rule indices merged into this rule; tracked only when the
  /// session records provenance (empty otherwise).
  std::vector<unsigned> From;
};

/// Pointwise union X ]] Y of two k-tuples of state sets.
std::vector<StateSet> unionLookahead(const std::vector<StateSet> &X,
                                     const std::vector<StateSet> &Y) {
  assert(X.size() == Y.size() && "rank mismatch in lookahead union");
  std::vector<StateSet> Result(X.size());
  for (size_t I = 0; I < X.size(); ++I) {
    Result[I] = X[I];
    Result[I].insert(Result[I].end(), Y[I].begin(), Y[I].end());
    canonicalizeStateSet(Result[I]);
  }
  return Result;
}

/// The merged-state construction shared by normalization proper and the
/// product (intersection) entry point, which differ only in their seeds
/// and in the construction name their engine statistics accrue to.
NormalizedSta normalizeSetsAs(Solver &S, const Sta &A,
                              std::span<const StateSet> Seeds,
                              obs::Literal Construction) {
  engine::SessionEngine &E = engine::SessionEngine::of(S);
  engine::ConstructionScope Scope(E.Stats, Construction);
  engine::GuardCache &G = E.Guards;
  TermFactory &F = S.factory();
  const SignatureRef &Sig = A.signature();
  auto Out = std::make_shared<Sta>(Sig);

  // Merged states, identified by their canonical member set; interned ids
  // coincide with Out's state ids.
  engine::StateInterner<StateSet> Merged(&Scope.stats());
  engine::Exploration Explore(&Scope.stats(), E.Limits, &E.Trace);

  auto NameOf = [&](const StateSet &Set) {
    std::string Name = "{";
    for (size_t I = 0; I < Set.size(); ++I) {
      if (I != 0)
        Name += ",";
      Name += A.stateName(Set[I]);
    }
    return Name + "}";
  };

  // Provenance recording: nullptr (and hence dead branches below) unless
  // the session enables it *and* the input automaton carries a table.
  const obs::StateProvenance *SrcProv = E.Prov.sourceTable(A.provenance());

  auto GetState = [&](StateSet Set) {
    canonicalizeStateSet(Set);
    auto [Id, Fresh] = Merged.intern(std::move(Set));
    if (Fresh) {
      unsigned OutId = Out->addState(NameOf(Merged.key(Id)));
      assert(OutId == Id && "interner and automaton ids must stay aligned");
      (void)OutId;
      if (SrcProv) {
        // A merged state descends from every declaration its members do.
        obs::StateProvenance &OP = Out->provenanceRW();
        for (unsigned Member : Merged.key(Id))
          OP.addStateAnchors(Id, SrcProv->anchors(Member));
      }
      Explore.enqueue(Id);
    }
    return Id;
  };

  NormalizedSta Result;
  for (const StateSet &Seed : Seeds)
    Result.SeedStates.push_back(GetState(Seed));

  Explore.runOrThrow(Construction, [&](unsigned Source) {
    const StateSet &MergedSet = Merged.key(Source);
    for (unsigned CtorId = 0; CtorId < Sig->numConstructors(); ++CtorId) {
      unsigned Rank = Sig->rank(CtorId);
      // delta_f(emptyset): one unconstrained rule; delta_f(p u {q}) merges
      // each accumulated rule with each rule of q on f.
      std::vector<MergedRule> Accumulated = {
          {F.trueTerm(), std::vector<StateSet>(Rank), {}}};
      for (unsigned Q : MergedSet) {
        const std::vector<unsigned> &QRules = A.rulesFrom(Q, CtorId);
        std::vector<MergedRule> Next;
        for (const MergedRule &Acc : Accumulated) {
          for (unsigned RuleIndex : QRules) {
            const StaRule &R = A.rule(RuleIndex);
            TermRef Guard = F.mkAnd(Acc.Guard, R.Guard);
            if (!G.isSat(Guard))
              continue; // Eager elimination (footnote 7).
            MergedRule Merged{Guard, unionLookahead(Acc.Lookahead, R.Lookahead),
                              {}};
            if (SrcProv) {
              Merged.From = Acc.From;
              Merged.From.push_back(RuleIndex);
            }
            Next.push_back(std::move(Merged));
          }
        }
        Accumulated = std::move(Next);
        if (Accumulated.empty())
          break;
      }
      for (const MergedRule &MR : Accumulated) {
        std::vector<StateSet> Children(Rank);
        for (unsigned I = 0; I < Rank; ++I)
          Children[I] = {GetState(MR.Lookahead[I])};
        unsigned NewRule = static_cast<unsigned>(Out->numRules());
        Out->addRule(Source, CtorId, MR.Guard, std::move(Children));
        ++Scope.stats().RulesEmitted;
        if (SrcProv) {
          // A merged rule fires iff all its components do (its guard is
          // their conjunction), so credit every component in the ledger
          // and alias all their canonical origins.
          obs::StateProvenance &OP = Out->provenanceRW();
          for (unsigned RuleIndex : MR.From) {
            E.Prov.countFiring(SrcProv, RuleIndex);
            OP.addRuleCanons(NewRule, SrcProv->ruleCanon(RuleIndex));
          }
        }
      }
    }
  });

  Result.Automaton = std::move(Out);
  return Result;
}

} // namespace

NormalizedSta fast::normalizeSets(Solver &S, const Sta &A,
                                  std::span<const StateSet> Seeds) {
  return normalizeSetsAs(S, A, Seeds, "normalize");
}

TreeLanguage fast::normalize(Solver &S, const TreeLanguage &L) {
  std::vector<StateSet> Seeds;
  for (unsigned Root : L.roots())
    Seeds.push_back({Root});
  NormalizedSta N = normalizeSets(S, L.automaton(), Seeds);
  return TreeLanguage(std::move(N.Automaton), StateSet(N.SeedStates.begin(),
                                                       N.SeedStates.end()));
}

//===----------------------------------------------------------------------===//
// Emptiness and witnesses (Proposition 1)
//===----------------------------------------------------------------------===//

std::vector<bool> fast::productiveStates(Solver &S, const Sta &A) {
  assert(A.isNormalized() && "productivity fixpoint requires normalized STA");
  engine::GuardCache &G = engine::SessionEngine::of(S).Guards;
  std::vector<bool> Productive(A.numStates(), false);
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (const StaRule &R : A.rules()) {
      if (Productive[R.State])
        continue;
      bool ChildrenOk = true;
      for (const StateSet &Set : R.Lookahead)
        if (!Productive[Set.front()]) {
          ChildrenOk = false;
          break;
        }
      if (!ChildrenOk || !G.isSat(R.Guard))
        continue;
      Productive[R.State] = true;
      Changed = true;
    }
  }
  return Productive;
}

std::vector<bool> fast::universalStates(Solver &S, const Sta &A) {
  engine::GuardCache &G = engine::SessionEngine::of(S).Guards;
  TermFactory &F = S.factory();
  const SignatureRef &Sig = A.signature();
  std::vector<bool> Universal(A.numStates(), true);
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (unsigned Q = 0; Q < A.numStates(); ++Q) {
      if (!Universal[Q])
        continue;
      for (unsigned CtorId = 0; CtorId < Sig->numConstructors() && Universal[Q];
           ++CtorId) {
        std::vector<TermRef> Guards;
        for (unsigned Index : A.rulesFrom(Q, CtorId)) {
          const StaRule &R = A.rule(Index);
          bool ChildrenUniversal = true;
          for (const StateSet &Set : R.Lookahead)
            for (unsigned Child : Set)
              ChildrenUniversal &= Universal[Child];
          if (ChildrenUniversal)
            Guards.push_back(R.Guard);
        }
        if (!G.isValid(F.mkOr(Guards))) {
          Universal[Q] = false;
          Changed = true;
        }
      }
    }
  }
  return Universal;
}

bool fast::isEmptyLanguage(Solver &S, const TreeLanguage &L) {
  TreeLanguage N = normalize(S, L);
  std::vector<bool> Productive = productiveStates(S, N.automaton());
  for (unsigned Root : N.roots())
    if (Productive[Root])
      return false;
  return true;
}

std::optional<std::vector<Value>> fast::modelAttrs(Solver &S,
                                                   const SignatureRef &Sig,
                                                   TermRef Guard) {
  std::optional<AttrModel> Model = S.getModel(Guard);
  if (!Model)
    return std::nullopt;
  std::vector<Value> Attrs;
  Attrs.reserve(Sig->numAttrs());
  for (unsigned I = 0; I < Sig->numAttrs(); ++I) {
    TermRef Attr = Sig->attrTerm(S.factory(), I);
    auto It = Model->find(Attr);
    if (It != Model->end()) {
      Attrs.push_back(It->second);
      continue;
    }
    switch (Sig->attrSpec(I).TheSort) {
    case Sort::Bool:
      Attrs.push_back(Value::boolean(false));
      break;
    case Sort::Int:
      Attrs.push_back(Value::integer(0));
      break;
    case Sort::Real:
      Attrs.push_back(Value::real(Rational(0)));
      break;
    case Sort::String:
      Attrs.push_back(Value::string(""));
      break;
    }
  }
  return Attrs;
}

namespace {

/// Per-state result of the witness fixpoint: the witness tree plus the
/// rule that produced it and (when recording a derivation) the attribute
/// model the solver chose.
struct StateWitnessInfo {
  TreeRef Tree = nullptr;
  unsigned RuleIndex = 0;
  std::vector<Value> Model;
};

/// Bottom-up fixpoint that records a witness per state as it becomes
/// productive; iterating until stable yields small witnesses first.
std::vector<StateWitnessInfo> witnessTable(Solver &S, const Sta &A,
                                           TreeFactory &Trees,
                                           bool RecordModels) {
  const SignatureRef &Sig = A.signature();
  std::vector<StateWitnessInfo> Witness(A.numStates());
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (unsigned Index = 0; Index < A.numRules(); ++Index) {
      const StaRule &R = A.rule(Index);
      if (Witness[R.State].Tree)
        continue;
      std::vector<TreeRef> Children;
      Children.reserve(R.Lookahead.size());
      bool ChildrenOk = true;
      for (const StateSet &Set : R.Lookahead) {
        TreeRef Child = Witness[Set.front()].Tree;
        if (!Child) {
          ChildrenOk = false;
          break;
        }
        Children.push_back(Child);
      }
      if (!ChildrenOk)
        continue;
      std::optional<std::vector<Value>> Attrs = modelAttrs(S, Sig, R.Guard);
      if (!Attrs)
        continue;
      StateWitnessInfo &Info = Witness[R.State];
      Info.RuleIndex = Index;
      if (RecordModels)
        Info.Model = *Attrs;
      Info.Tree = Trees.make(Sig, R.CtorId, *Attrs, Children);
      Changed = true;
    }
  }
  return Witness;
}

/// The root of the smallest recorded witness among \p Roots, or ~0u.
unsigned bestWitnessRoot(const std::vector<StateWitnessInfo> &Witness,
                         const StateSet &Roots) {
  unsigned Best = ~0u;
  for (unsigned Root : Roots)
    if (Witness[Root].Tree &&
        (Best == ~0u || Witness[Root].Tree->size() < Witness[Best].Tree->size()))
      Best = Root;
  return Best;
}

std::unique_ptr<obs::DerivationNode>
buildDerivation(const Sta &A, const std::vector<StateWitnessInfo> &Witness,
                unsigned State) {
  const StateWitnessInfo &Info = Witness[State];
  const StaRule &R = A.rule(Info.RuleIndex);
  auto Node = std::make_unique<obs::DerivationNode>();
  Node->State = State;
  Node->RuleIndex = Info.RuleIndex;
  Node->Guard = R.Guard;
  Node->Model = Info.Model;
  Node->Node = Info.Tree;
  for (const StateSet &Set : R.Lookahead)
    Node->Children.push_back(buildDerivation(A, Witness, Set.front()));
  return Node;
}

/// Credits every rule the derivation fired to the coverage ledger.
void countDerivation(engine::SessionEngine &E, const obs::StateProvenance *P,
                     const obs::DerivationNode &D) {
  E.Prov.countFiring(P, D.RuleIndex);
  for (const std::unique_ptr<obs::DerivationNode> &Child : D.Children)
    countDerivation(E, P, *Child);
}

} // namespace

std::optional<TreeRef> fast::witness(Solver &S, const TreeLanguage &L,
                                     TreeFactory &Trees) {
  TreeLanguage N = normalize(S, L);
  std::vector<StateWitnessInfo> Witness =
      witnessTable(S, N.automaton(), Trees, /*RecordModels=*/false);
  unsigned Best = bestWitnessRoot(Witness, N.roots());
  if (Best == ~0u)
    return std::nullopt;
  return Witness[Best].Tree;
}

std::optional<ExplainedWitness>
fast::witnessExplained(Solver &S, const TreeLanguage &L, TreeFactory &Trees) {
  TreeLanguage N = normalize(S, L);
  std::vector<StateWitnessInfo> Witness =
      witnessTable(S, N.automaton(), Trees, /*RecordModels=*/true);
  unsigned Best = bestWitnessRoot(Witness, N.roots());
  if (Best == ~0u)
    return std::nullopt;
  ExplainedWitness Result;
  Result.Tree = Witness[Best].Tree;
  Result.Automaton = N.automatonPtr();
  Result.Derivation = buildDerivation(N.automaton(), Witness, Best);
  engine::SessionEngine &E = engine::SessionEngine::of(S);
  if (const obs::StateProvenance *P =
          E.Prov.sourceTable(N.automaton().provenance()))
    countDerivation(E, P, *Result.Derivation);
  return Result;
}

bool fast::verifyDerivation(const Sta &A, const obs::DerivationNode &D,
                            std::string *Error) {
  auto Fail = [Error](std::string Message) {
    if (Error)
      *Error = std::move(Message);
    return false;
  };
  if (!D.Node)
    return Fail("derivation node carries no tree");
  if (D.RuleIndex >= A.numRules())
    return Fail("derivation rule index out of range");
  const StaRule &R = A.rule(D.RuleIndex);
  if (R.State != D.State)
    return Fail("derivation rule belongs to state " + A.stateName(R.State) +
                ", not " + A.stateName(D.State));
  if (R.CtorId != D.Node->ctorId())
    return Fail("derivation rule is on constructor " +
                A.signature()->ctorName(R.CtorId) + ", tree node is " +
                D.Node->ctorName());
  if (R.Guard != D.Guard)
    return Fail("derivation guard is not the rule's guard");
  std::span<const Value> Attrs = D.Node->attrs();
  if (D.Model.size() != Attrs.size() ||
      !std::equal(D.Model.begin(), D.Model.end(), Attrs.begin()))
    return Fail("derivation model differs from the node's attributes");
  if (!evalPredicate(R.Guard, D.Node->attrs()))
    return Fail("guard " + R.Guard->str() +
                " is not satisfied by the recorded model");
  if (D.Children.size() != R.Lookahead.size())
    return Fail("derivation child count does not match rule rank");
  for (unsigned I = 0; I < D.Children.size(); ++I) {
    const obs::DerivationNode *Child = D.Children[I].get();
    if (!Child)
      return Fail("derivation child " + std::to_string(I) + " missing");
    if (Child->Node != D.Node->child(I))
      return Fail("derivation child " + std::to_string(I) +
                  " explains a different subtree");
    if (R.Lookahead[I].size() != 1 || R.Lookahead[I].front() != Child->State)
      return Fail("derivation child state does not match the rule's "
                  "lookahead for child " +
                  std::to_string(I));
    if (!staAccepts(A, Child->State, Child->Node))
      return Fail("lookahead state " + A.stateName(Child->State) +
                  " rejects child " + std::to_string(I));
    if (!verifyDerivation(A, *Child, Error))
      return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Boolean combinations
//===----------------------------------------------------------------------===//

TreeLanguage fast::intersectLanguages(Solver &S, const TreeLanguage &A,
                                      const TreeLanguage &B) {
  assert(A.signature()->isCompatibleWith(*B.signature()) &&
         "intersection over incompatible signatures");
  Sta Combined(A.signature());
  unsigned OffA = Combined.import(A.automaton());
  unsigned OffB = Combined.import(B.automaton());
  std::vector<StateSet> Seeds;
  for (unsigned RA : A.roots())
    for (unsigned RB : B.roots())
      Seeds.push_back({RA + OffA, RB + OffB});
  NormalizedSta N = normalizeSetsAs(S, Combined, Seeds, "product");
  return TreeLanguage(std::move(N.Automaton),
                      StateSet(N.SeedStates.begin(), N.SeedStates.end()));
}

TreeLanguage fast::unionLanguages(const TreeLanguage &A, const TreeLanguage &B) {
  assert(A.signature()->isCompatibleWith(*B.signature()) &&
         "union over incompatible signatures");
  auto Combined = std::make_shared<Sta>(A.signature());
  unsigned OffA = Combined->import(A.automaton());
  unsigned OffB = Combined->import(B.automaton());
  StateSet Roots;
  for (unsigned RA : A.roots())
    Roots.push_back(RA + OffA);
  for (unsigned RB : B.roots())
    Roots.push_back(RB + OffB);
  return TreeLanguage(std::move(Combined), std::move(Roots));
}

TreeLanguage fast::universalLanguage(TermFactory &F, SignatureRef Sig) {
  auto A = std::make_shared<Sta>(Sig);
  unsigned Top = A->addState("top");
  for (unsigned CtorId = 0; CtorId < Sig->numConstructors(); ++CtorId)
    A->addRule(Top, CtorId, F.trueTerm(),
               std::vector<StateSet>(Sig->rank(CtorId), StateSet{Top}));
  return TreeLanguage(std::move(A), Top);
}

TreeLanguage fast::emptyLanguage(SignatureRef Sig) {
  auto A = std::make_shared<Sta>(Sig);
  unsigned Dead = A->addState("dead");
  return TreeLanguage(std::move(A), Dead);
}

TreeLanguage fast::cleanLanguage(Solver &S, const TreeLanguage &L) {
  TreeLanguage N = normalize(S, L);
  const Sta &A = N.automaton();
  std::vector<bool> Productive = productiveStates(S, A);

  engine::SessionEngine &E = engine::SessionEngine::of(S);
  engine::ConstructionScope Scope(E.Stats, "clean");
  engine::GuardCache &G = E.Guards;

  // Reachability from the roots through rules with all-productive children.
  std::vector<bool> Reachable(A.numStates(), false);
  engine::Exploration Explore(&Scope.stats(), E.Limits, &E.Trace);
  auto Enqueue = [&](unsigned Q) {
    if (!Reachable[Q]) {
      Reachable[Q] = true;
      Explore.enqueue(Q);
    }
  };
  for (unsigned Root : N.roots())
    if (Productive[Root])
      Enqueue(Root);
  Explore.runOrThrow("clean", [&](unsigned Q) {
    for (unsigned Index : A.rulesFrom(Q)) {
      const StaRule &R = A.rule(Index);
      bool Viable = G.isSat(R.Guard);
      for (const StateSet &Set : R.Lookahead)
        Viable = Viable && Productive[Set.front()];
      if (!Viable)
        continue;
      for (const StateSet &Set : R.Lookahead)
        Enqueue(Set.front());
    }
  });

  // Rebuild with only useful states.
  auto Out = std::make_shared<Sta>(A.signature());
  const obs::StateProvenance *SrcProv = E.Prov.sourceTable(A.provenance());
  std::vector<unsigned> Remap(A.numStates(), ~0u);
  for (unsigned Q = 0; Q < A.numStates(); ++Q)
    if (Reachable[Q]) {
      Remap[Q] = Out->addState(A.stateName(Q));
      if (SrcProv)
        Out->provenanceRW().addStateAnchors(Remap[Q], SrcProv->anchors(Q));
    }
  for (unsigned Index = 0; Index < A.numRules(); ++Index) {
    const StaRule &R = A.rule(Index);
    if (!Reachable[R.State] || !G.isSat(R.Guard))
      continue;
    bool Viable = true;
    std::vector<StateSet> Lookahead;
    for (const StateSet &Set : R.Lookahead) {
      if (!Reachable[Set.front()]) {
        Viable = false;
        break;
      }
      Lookahead.push_back({Remap[Set.front()]});
    }
    if (Viable) {
      unsigned NewRule = static_cast<unsigned>(Out->numRules());
      Out->addRule(Remap[R.State], R.CtorId, R.Guard, std::move(Lookahead));
      ++Scope.stats().RulesEmitted;
      if (SrcProv)
        Out->provenanceRW().addRuleCanons(NewRule, SrcProv->ruleCanon(Index));
    }
  }
  StateSet Roots;
  for (unsigned Root : N.roots())
    if (Reachable[Root])
      Roots.push_back(Remap[Root]);
  if (Roots.empty()) {
    // Empty language; keep one dead root so the handle stays well-formed.
    Roots.push_back(Out->addState("dead"));
  }
  return TreeLanguage(std::move(Out), std::move(Roots));
}
