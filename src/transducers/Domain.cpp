//===- transducers/Domain.cpp - STTR domain automata ----------------------===//

#include "transducers/Domain.h"

#include "engine/Engine.h"

#include <cassert>
#include <optional>

using namespace fast;

DomainAutomaton fast::domainAutomaton(const Sttr &S, Solver *Solv) {
  std::optional<engine::ConstructionScope> Scope;
  engine::ExplorationLimits Limits;
  obs::Tracer *Trace = nullptr;
  const obs::StateProvenance *SProv = nullptr;
  if (Solv) {
    engine::SessionEngine &E = engine::SessionEngine::of(*Solv);
    Scope.emplace(E.Stats, obs::Literal("domain"));
    Limits = E.Limits;
    Trace = &E.Trace;
    SProv = E.Prov.sourceTable(S.provenance());
  }
  engine::ConstructionStats *Stats = Scope ? &Scope->stats() : nullptr;

  DomainAutomaton Result;
  Result.Automaton = std::make_shared<Sta>(S.signature());
  Sta &Out = *Result.Automaton;

  // The lookahead STA comes first, so its state ids carry over unchanged.
  Result.LookaheadOffset = Out.import(S.lookahead());
  assert(Result.LookaheadOffset == 0 && "lookahead STA must be imported first");

  Result.StateOf.reserve(S.numStates());
  for (unsigned Q = 0; Q < S.numStates(); ++Q) {
    Result.StateOf.push_back(Out.addState("dom(" + S.stateName(Q) + ")"));
    if (SProv)
      Out.provenanceRW().addStateAnchors(Result.StateOf.back(),
                                         SProv->anchors(Q));
  }

  // One worklist item per transducer state; its expansion emits the domain
  // rules of that state's transduction rules.
  std::vector<std::vector<unsigned>> RulesByState(S.numStates());
  for (unsigned RI = 0; RI < S.numRules(); ++RI)
    RulesByState[S.rule(RI).State].push_back(RI);

  engine::Exploration Explore(Stats, Limits, Trace);
  for (unsigned Q = 0; Q < S.numStates(); ++Q)
    Explore.enqueue(Q);
  Explore.runOrThrow("domain", [&](unsigned Q) {
    for (unsigned RI : RulesByState[Q]) {
      const SttrRule &R = S.rule(RI);
      std::vector<StateSet> Children;
      Children.reserve(R.Lookahead.size());
      for (unsigned I = 0; I < R.Lookahead.size(); ++I) {
        StateSet Set = R.Lookahead[I]; // Lookahead-STA ids, offset 0.
        for (unsigned P : statesAppliedTo(R.Out, I))
          Set.push_back(Result.StateOf[P]);
        canonicalizeStateSet(Set);
        Children.push_back(std::move(Set));
      }
      unsigned NewRule = static_cast<unsigned>(Out.numRules());
      Out.addRule(Result.StateOf[Q], R.CtorId, R.Guard, std::move(Children));
      if (Stats)
        ++Stats->RulesEmitted;
      // Domain rules are structural (no guard decision is taken here), so
      // they alias their transduction rule's origin without counting a
      // firing in the coverage ledger.
      if (SProv)
        Out.provenanceRW().addRuleCanons(NewRule, SProv->ruleCanon(RI));
    }
  });
  return Result;
}

TreeLanguage fast::domainLanguage(const Sttr &S, Solver *Solv) {
  DomainAutomaton D = domainAutomaton(S, Solv);
  unsigned Root = D.StateOf[S.startState()];
  return TreeLanguage(std::move(D.Automaton), Root);
}
