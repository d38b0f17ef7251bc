//===- automata/Determinize.cpp - Determinization & friends ---------------===//

#include "automata/Determinize.h"

#include "engine/Engine.h"

#include <algorithm>
#include <cassert>
#include <map>

using namespace fast;

StateSet DeterminizedSta::acceptingFor(const StateSet &Roots) const {
  StateSet Result;
  for (unsigned Id = 0; Id < StateSets.size(); ++Id) {
    bool Intersects = false;
    for (unsigned Q : StateSets[Id])
      if (std::binary_search(Roots.begin(), Roots.end(), Q)) {
        Intersects = true;
        break;
      }
    if (Intersects)
      Result.push_back(Id);
  }
  return Result;
}

DeterminizedSta fast::determinize(Solver &S, const Sta &A) {
  assert(A.isNormalized() && "determinization requires a normalized STA");
  engine::SessionEngine &E = engine::SessionEngine::of(S);
  engine::ConstructionScope Scope(E.Stats, "determinize");
  engine::GuardCache &G = E.Guards;
  const SignatureRef &Sig = A.signature();

  DeterminizedSta Result;
  Result.Automaton = std::make_shared<Sta>(Sig);
  Sta &Out = *Result.Automaton;

  // The subset construction's work items are (constructor, child det-state
  // tuple) pairs.  A tuple is scheduled exactly once, when its largest det
  // state is created: every tuple over states 0..N containing N is new at
  // that moment, and every tuple whose members are all < N was scheduled
  // when *its* largest member appeared.
  using WorkItem = std::pair<unsigned, std::vector<unsigned>>;
  engine::StateInterner<StateSet> DetStates(&Scope.stats());
  engine::StateInterner<WorkItem> WorkItems;
  engine::Exploration Explore(&Scope.stats(), E.Limits, &E.Trace);

  auto EnqueueItem = [&](unsigned CtorId, std::vector<unsigned> Tuple) {
    auto [Id, Fresh] = WorkItems.intern({CtorId, std::move(Tuple)});
    if (Fresh)
      Explore.enqueue(Id);
  };

  // Enumerate only the tuples that actually contain NewState, but in the
  // exact order the naive filtered counter would visit them, so the BFS
  // enqueue sequence (and hence det-state numbering) is unchanged: walk a
  // little-endian counter over positions 1..Rank-1; when that suffix
  // already contains NewState every value of position 0 qualifies,
  // otherwise only Tuple[0] == NewState does.  This drops the per-state
  // scheduling cost from O(N^Rank) to O(N^(Rank-1) + tuples emitted),
  // which the fuzz harness's budget sweeps showed dominating large subset
  // constructions at rank >= 2.
  auto ScheduleTuplesWith = [&](unsigned NewState) {
    for (unsigned CtorId = 0; CtorId < Sig->numConstructors(); ++CtorId) {
      unsigned Rank = Sig->rank(CtorId);
      if (Rank == 0)
        continue;
      std::vector<unsigned> Tuple(Rank, 0);
      bool More = true;
      while (More) {
        bool SuffixHasNew =
            std::find(Tuple.begin() + 1, Tuple.end(), NewState) != Tuple.end();
        if (SuffixHasNew) {
          for (unsigned First = 0; First <= NewState; ++First) {
            Tuple[0] = First;
            EnqueueItem(CtorId, Tuple);
          }
        } else {
          Tuple[0] = NewState;
          EnqueueItem(CtorId, Tuple);
        }
        Tuple[0] = 0;
        More = false;
        for (unsigned I = 1; I < Rank; ++I) {
          if (++Tuple[I] <= NewState) {
            More = true;
            break;
          }
          Tuple[I] = 0;
        }
      }
    }
  };

  const obs::StateProvenance *SrcProv = E.Prov.sourceTable(A.provenance());

  auto GetState = [&](StateSet Set) {
    canonicalizeStateSet(Set);
    auto [Id, Fresh] = DetStates.intern(std::move(Set));
    if (Fresh) {
      const StateSet &Canonical = DetStates.key(Id);
      std::string Name = "{";
      for (size_t I = 0; I < Canonical.size(); ++I) {
        if (I != 0)
          Name += ",";
        Name += A.stateName(Canonical[I]);
      }
      Name += "}";
      unsigned OutId = Out.addState(std::move(Name));
      assert(OutId == Id && "interner and automaton ids must stay aligned");
      (void)OutId;
      if (SrcProv) {
        obs::StateProvenance &OP = Out.provenanceRW();
        for (unsigned Member : Canonical)
          OP.addStateAnchors(Id, SrcProv->anchors(Member));
      }
      Result.StateSets.push_back(Canonical);
      ScheduleTuplesWith(Id);
    }
    return Id;
  };

  // Group A's rule indices by constructor for the applicability scan.
  std::vector<std::vector<unsigned>> RulesByCtor(Sig->numConstructors());
  for (unsigned Index = 0; Index < A.numRules(); ++Index)
    RulesByCtor[A.rule(Index).CtorId].push_back(Index);

  // Leaf constructors seed the exploration; their expansions create the
  // first det states, which in turn schedule the positive-rank tuples.
  for (unsigned CtorId = 0; CtorId < Sig->numConstructors(); ++CtorId)
    if (Sig->rank(CtorId) == 0)
      EnqueueItem(CtorId, {});

  Explore.runOrThrow("determinize", [&](unsigned ItemId) {
    const auto &[CtorId, Tuple] = WorkItems.key(ItemId);
    unsigned Rank = Sig->rank(CtorId);

    // Applicable rules: each child's singleton lookahead state must be in
    // the child's det state set.
    struct ApplicableRule {
      TermRef Guard;
      unsigned Target;
      unsigned Index;
    };
    std::vector<ApplicableRule> Applicable;
    for (unsigned Index : RulesByCtor[CtorId]) {
      const StaRule &R = A.rule(Index);
      bool Ok = true;
      for (unsigned I = 0; I < Rank && Ok; ++I) {
        const StateSet &ChildSet = DetStates.key(Tuple[I]);
        Ok = std::binary_search(ChildSet.begin(), ChildSet.end(),
                                R.Lookahead[I].front());
      }
      if (Ok)
        Applicable.push_back({R.Guard, R.State, Index});
    }

    // Split the label space on the minterms of the applicable guards; the
    // GuardCache canonicalizes the set and reuses prior enumerations.
    std::vector<TermRef> Guards;
    for (const ApplicableRule &AR : Applicable)
      Guards.push_back(AR.Guard);
    const MintermSplit &Split = G.minterms(Guards);
    std::map<TermRef, unsigned> GuardIndex;
    for (unsigned I = 0; I < Split.Guards.size(); ++I)
      GuardIndex[Split.Guards[I]] = I;

    std::vector<StateSet> ChildSets(Rank);
    for (unsigned I = 0; I < Rank; ++I)
      ChildSets[I] = {Tuple[I]};

    for (const Minterm &M : Split.Regions) {
      StateSet Target;
      std::vector<unsigned> Fired;
      for (const ApplicableRule &AR : Applicable)
        if (M.Polarity[GuardIndex[AR.Guard]]) {
          Target.push_back(AR.Target);
          if (SrcProv)
            Fired.push_back(AR.Index);
        }
      unsigned TargetId = GetState(std::move(Target));
      unsigned NewRule = static_cast<unsigned>(Out.numRules());
      Out.addRule(TargetId, CtorId, M.Predicate, ChildSets);
      ++Scope.stats().RulesEmitted;
      if (SrcProv) {
        obs::StateProvenance &OP = Out.provenanceRW();
        for (unsigned Index : Fired) {
          E.Prov.countFiring(SrcProv, Index);
          OP.addRuleCanons(NewRule, SrcProv->ruleCanon(Index));
        }
      }
    }
  });
  return Result;
}

TreeLanguage fast::complementLanguage(Solver &S, const TreeLanguage &L) {
  // Clean first: determinization enumerates child-state tuples, so
  // removing unproductive/unreachable states up front shrinks the subset
  // construction's base exponentially.
  TreeLanguage N = cleanLanguage(S, L);
  DeterminizedSta D = determinize(S, N.automaton());
  StateSet Accepting = D.acceptingFor(N.roots());
  StateSet Complement;
  for (unsigned Id = 0; Id < D.StateSets.size(); ++Id)
    if (!std::binary_search(Accepting.begin(), Accepting.end(), Id))
      Complement.push_back(Id);
  if (Complement.empty())
    return emptyLanguage(L.signature());
  return TreeLanguage(std::move(D.Automaton), std::move(Complement));
}

TreeLanguage fast::differenceLanguages(Solver &S, const TreeLanguage &A,
                                       const TreeLanguage &B) {
  return intersectLanguages(S, A, complementLanguage(S, B));
}

bool fast::isSubsetLanguage(Solver &S, const TreeLanguage &A,
                            const TreeLanguage &B) {
  return isEmptyLanguage(S, differenceLanguages(S, A, B));
}

bool fast::areEquivalentLanguages(Solver &S, const TreeLanguage &A,
                                  const TreeLanguage &B) {
  return isSubsetLanguage(S, A, B) && isSubsetLanguage(S, B, A);
}

//===----------------------------------------------------------------------===//
// Minimization
//===----------------------------------------------------------------------===//

namespace {

/// Transition view of a deterministic automaton: for each constructor, maps
/// a child-state tuple to its (guard, target) partition of the label space.
struct TransitionTable {
  std::vector<std::map<std::vector<unsigned>, std::vector<std::pair<TermRef, unsigned>>>>
      ByCtor;

  explicit TransitionTable(const Sta &A) {
    ByCtor.resize(A.signature()->numConstructors());
    for (const StaRule &R : A.rules()) {
      std::vector<unsigned> Tuple;
      Tuple.reserve(R.Lookahead.size());
      for (const StateSet &Set : R.Lookahead)
        Tuple.push_back(Set.front());
      ByCtor[R.CtorId][Tuple].push_back({R.Guard, R.State});
    }
  }
};

/// True if states \p P and \p Q react distinguishably (w.r.t. \p Block) for
/// some constructor, position, and sibling assignment.
bool distinguishable(engine::GuardCache &G, const Sta &A,
                     const TransitionTable &Table,
                     const std::vector<int> &Block, unsigned P, unsigned Q) {
  const SignatureRef &Sig = A.signature();
  unsigned NumStates = A.numStates();
  for (unsigned CtorId = 0; CtorId < Sig->numConstructors(); ++CtorId) {
    unsigned Rank = Sig->rank(CtorId);
    if (Rank == 0)
      continue;
    // Enumerate sibling assignments; position I holds P or Q.
    for (unsigned I = 0; I < Rank; ++I) {
      std::vector<unsigned> Siblings(Rank - 1, 0);
      bool More = true;
      while (More) {
        std::vector<unsigned> TupleP, TupleQ;
        unsigned SiblingIndex = 0;
        for (unsigned J = 0; J < Rank; ++J) {
          if (J == I) {
            TupleP.push_back(P);
            TupleQ.push_back(Q);
          } else {
            TupleP.push_back(Siblings[SiblingIndex]);
            TupleQ.push_back(Siblings[SiblingIndex]);
            ++SiblingIndex;
          }
        }
        auto ItP = Table.ByCtor[CtorId].find(TupleP);
        auto ItQ = Table.ByCtor[CtorId].find(TupleQ);
        // Complete automata have transitions for every tuple.
        if (ItP != Table.ByCtor[CtorId].end() &&
            ItQ != Table.ByCtor[CtorId].end()) {
          for (const auto &[GuardP, TargetP] : ItP->second)
            for (const auto &[GuardQ, TargetQ] : ItQ->second) {
              if (Block[TargetP] == Block[TargetQ])
                continue;
              if (G.isSat(G.factory().mkAnd(GuardP, GuardQ)))
                return true;
            }
        }
        More = false;
        for (unsigned J = 0; J + 1 < Rank; ++J) {
          if (++Siblings[J] < NumStates) {
            More = true;
            break;
          }
          Siblings[J] = 0;
        }
      }
    }
  }
  return false;
}

} // namespace

TreeLanguage fast::minimizeLanguage(Solver &S, const TreeLanguage &L) {
  engine::SessionEngine &E = engine::SessionEngine::of(S);
  engine::GuardCache &G = E.Guards;
  TreeLanguage N = cleanLanguage(S, L);
  DeterminizedSta D = determinize(S, N.automaton());
  const Sta &A = *D.Automaton;
  unsigned NumStates = A.numStates();
  StateSet Accepting = D.acceptingFor(N.roots());

  // Initial partition: accepting vs non-accepting.
  std::vector<int> Block(NumStates, 0);
  for (unsigned Id : Accepting)
    Block[Id] = 1;
  int NumBlocks = 2;

  TransitionTable Table(A);

  // Moore refinement: split members that disagree with their block's
  // representative; iterate to a fixpoint.
  bool Changed = true;
  while (Changed) {
    Changed = false;
    std::vector<int> Representative(NumBlocks, -1);
    std::vector<int> SplitTarget(NumBlocks, -1);
    for (unsigned Q = 0; Q < NumStates; ++Q) {
      int B = Block[Q];
      if (Representative[B] < 0) {
        Representative[B] = static_cast<int>(Q);
        continue;
      }
      if (!distinguishable(G, A, Table, Block,
                           static_cast<unsigned>(Representative[B]), Q))
        continue;
      if (SplitTarget[B] < 0)
        SplitTarget[B] = NumBlocks++;
      Block[Q] = SplitTarget[B];
      Changed = true;
    }
  }

  // Quotient automaton: one state per block; merge parallel guards.
  auto Out = std::make_shared<Sta>(A.signature());
  const obs::StateProvenance *SrcProv = E.Prov.sourceTable(A.provenance());
  std::vector<unsigned> BlockState(NumBlocks, ~0u);
  for (unsigned Q = 0; Q < NumStates; ++Q) {
    if (BlockState[Block[Q]] == ~0u)
      BlockState[Block[Q]] = Out->addState(A.stateName(Q));
    if (SrcProv)
      Out->provenanceRW().addStateAnchors(BlockState[Block[Q]],
                                          SrcProv->anchors(Q));
  }

  struct GroupedRules {
    std::vector<TermRef> Guards;
    std::vector<unsigned> Canons;
  };
  std::map<std::tuple<unsigned, unsigned, std::vector<unsigned>>, GroupedRules>
      Grouped;
  for (unsigned Index = 0; Index < A.numRules(); ++Index) {
    const StaRule &R = A.rule(Index);
    std::vector<unsigned> Children;
    for (const StateSet &Set : R.Lookahead)
      Children.push_back(BlockState[Block[Set.front()]]);
    GroupedRules &Group =
        Grouped[{BlockState[Block[R.State]], R.CtorId, std::move(Children)}];
    Group.Guards.push_back(R.Guard);
    if (SrcProv)
      for (unsigned Canon : SrcProv->ruleCanon(Index))
        Group.Canons.push_back(Canon);
  }
  for (auto &[Key, Group] : Grouped) {
    auto &[State, CtorId, Children] = Key;
    std::vector<StateSet> Lookahead;
    Lookahead.reserve(Children.size());
    for (unsigned Child : Children)
      Lookahead.push_back({Child});
    unsigned NewRule = static_cast<unsigned>(Out->numRules());
    Out->addRule(State, CtorId, S.factory().mkOr(Group.Guards),
                 std::move(Lookahead));
    if (SrcProv)
      Out->provenanceRW().addRuleCanons(NewRule, Group.Canons);
  }

  StateSet Roots;
  for (unsigned Id : Accepting)
    Roots.push_back(BlockState[Block[Id]]);
  canonicalizeStateSet(Roots);
  return TreeLanguage(std::move(Out), std::move(Roots));
}
