//===- obs/Provenance.cpp - Derivations, anchors, rule coverage -----------===//
//
// Part of the fast-transducers project (see support/Hashing.h).
//
//===----------------------------------------------------------------------===//

#include "obs/Provenance.h"

#include <algorithm>
#include <cassert>

using namespace fast::obs;

namespace {

/// Appends Id to Set keeping it sorted and duplicate-free (anchor sets are
/// tiny — a handful of declarations — so linear insert beats a hash set).
void insertUnique(std::vector<unsigned> &Set, unsigned Id) {
  auto It = std::lower_bound(Set.begin(), Set.end(), Id);
  if (It == Set.end() || *It != Id)
    Set.insert(It, Id);
}

std::vector<unsigned> &grow(std::vector<std::vector<unsigned>> &Table,
                            unsigned Index) {
  if (Index >= Table.size())
    Table.resize(Index + 1);
  return Table[Index];
}

} // namespace

void StateProvenance::addStateAnchor(unsigned State, unsigned AnchorId) {
  insertUnique(grow(StateAnchors, State), AnchorId);
}

void StateProvenance::addStateAnchors(unsigned State,
                                      const std::vector<unsigned> &Ids) {
  if (Ids.empty())
    return;
  std::vector<unsigned> &Set = grow(StateAnchors, State);
  for (unsigned Id : Ids)
    insertUnique(Set, Id);
}

void StateProvenance::addRuleCanon(unsigned Rule, unsigned CanonId) {
  insertUnique(grow(RuleCanons, Rule), CanonId);
}

void StateProvenance::addRuleCanons(unsigned Rule,
                                    const std::vector<unsigned> &Ids) {
  if (Ids.empty())
    return;
  std::vector<unsigned> &Set = grow(RuleCanons, Rule);
  for (unsigned Id : Ids)
    insertUnique(Set, Id);
}

void StateProvenance::importFrom(const StateProvenance &Other,
                                 unsigned StateOffset, unsigned RuleOffset) {
  for (unsigned Q = 0; Q < Other.StateAnchors.size(); ++Q)
    addStateAnchors(StateOffset + Q, Other.StateAnchors[Q]);
  for (unsigned R = 0; R < Other.RuleCanons.size(); ++R)
    addRuleCanons(RuleOffset + R, Other.RuleCanons[R]);
}

unsigned ProvenanceStore::internAnchor(DeclAnchor::Kind K, std::string Name,
                                       unsigned Line, unsigned Col) {
  for (unsigned Id = 0; Id < Anchors.size(); ++Id) {
    const DeclAnchor &A = Anchors[Id];
    if (A.K == K && A.Name == Name && A.Line == Line && A.Col == Col)
      return Id;
  }
  Anchors.push_back(DeclAnchor{K, std::move(Name), Line, Col});
  return static_cast<unsigned>(Anchors.size() - 1);
}

unsigned ProvenanceStore::registerRule(unsigned AnchorId, unsigned Line,
                                       unsigned Col) {
  Rules.push_back(RuleOrigin{AnchorId, Line, Col, 0});
  return static_cast<unsigned>(Rules.size() - 1);
}

void ProvenanceStore::countFiring(const StateProvenance *P,
                                  unsigned RuleIndex) {
  if (!P)
    return;
  for (unsigned CanonId : P->ruleCanon(RuleIndex))
    ++Rules[CanonId].Fired;
}

void ProvenanceStore::adoptSharedFrom(const ProvenanceStore &Base) {
  Anchors = Base.Anchors;
  Rules = Base.Rules;
  for (RuleOrigin &R : Rules)
    R.Fired = 0;
  setEnabled(Base.enabled());
}

void ProvenanceStore::mergeCoverageFrom(const ProvenanceStore &Worker) {
  // Workers share the frozen base id space — anchors and rules are
  // registered by the Compiler before freeze, never by workers.  Entries
  // beyond the shared tables cannot be merged soundly: every worker
  // numbers its first new entry at the same id, so adopting one worker's
  // extras would credit every other worker's same-id firings to them.
  assert(Worker.Anchors.size() <= Anchors.size() &&
         Worker.Rules.size() <= Rules.size() &&
         "worker provenance store registered entries beyond the frozen "
         "base tables");
  size_t Shared = std::min(Worker.Rules.size(), Rules.size());
  for (unsigned Id = 0; Id < Shared; ++Id)
    Rules[Id].Fired += Worker.Rules[Id].Fired;
}

std::vector<unsigned> ProvenanceStore::deadRules() const {
  std::vector<unsigned> Dead;
  for (unsigned Id = 0; Id < Rules.size(); ++Id)
    if (Rules[Id].Fired == 0)
      Dead.push_back(Id);
  return Dead;
}

void ProvenanceStore::reset() {
  Anchors.clear();
  Rules.clear();
}
