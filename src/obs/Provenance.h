//===- obs/Provenance.h - Derivations, anchors, rule coverage ---*- C++ -*-===//
//
// Part of the fast-transducers project (see support/Hashing.h).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The provenance layer: explains *why* the symbolic engine produced a
/// result.  Three cooperating pieces, all zero-cost when disabled:
///
///  - DeclAnchor / RuleOrigin (interned in the session ProvenanceStore):
///    the original Fast `lang`/`trans` declarations and their rules, with
///    SourceLocs.  Registered by the Compiler when provenance is enabled.
///
///  - StateProvenance: a side table attached to one Sta/Sttr mapping each
///    state to the set of decl anchors it descends from and each rule to
///    the set of canonical rule ids it aliases.  The constructions
///    (import, normalize, product, determinize, minimize, compose,
///    pre-image, domain, restrict) propagate the table through merged /
///    paired / subset states, so any engine state — however many layers of
///    construction deep — resolves back to the user's declarations.
///
///  - DerivationNode: one node of a witness derivation tree — the rule
///    that fired, its guard, and the attribute model the solver chose —
///    produced by StaOps::witnessExplained.
///
/// Gating discipline mirrors the Tracer: ProvenanceStore::enabled() is one
/// relaxed atomic load; constructions take a `const StateProvenance *`
/// that is nullptr unless both the store is enabled and the source
/// automaton carries a table, so the disabled fast path is a branch on a
/// null pointer.
///
//===----------------------------------------------------------------------===//

#ifndef FAST_OBS_PROVENANCE_H
#define FAST_OBS_PROVENANCE_H

#include "smt/Value.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace fast {

class Term;
class TreeNode;
class Sta;

namespace obs {

/// A Fast source declaration that engine states can descend from.
struct DeclAnchor {
  enum class Kind { Lang, Trans };
  Kind K = Kind::Lang;
  std::string Name;
  /// 1-based source position of the declaration (0 when synthetic).
  unsigned Line = 0;
  unsigned Col = 0;

  const char *kindName() const {
    return K == Kind::Lang ? "lang" : "trans";
  }
};

/// One declared rule (a `lang` alternative or a `trans` rewrite case),
/// with its firing count for the coverage ledger.
struct RuleOrigin {
  unsigned AnchorId = 0;
  /// 1-based source position of the rule pattern.
  unsigned Line = 0;
  unsigned Col = 0;
  /// Times any construction fired a rule aliasing this origin.
  uint64_t Fired = 0;
};

/// Per-automaton provenance side table.  Attached to a Sta or Sttr via a
/// shared_ptr; indices parallel the automaton's state/rule indices.  The
/// vectors auto-resize on write and tolerate out-of-range reads (states
/// or rules with no recorded provenance simply have none).
class StateProvenance {
public:
  /// Anchor ids (into the session ProvenanceStore) per state.
  const std::vector<unsigned> &anchors(unsigned State) const {
    static const std::vector<unsigned> Empty;
    return State < StateAnchors.size() ? StateAnchors[State] : Empty;
  }

  /// Canonical rule ids (into the session ProvenanceStore) per rule.
  const std::vector<unsigned> &ruleCanon(unsigned Rule) const {
    static const std::vector<unsigned> Empty;
    return Rule < RuleCanons.size() ? RuleCanons[Rule] : Empty;
  }

  void addStateAnchor(unsigned State, unsigned AnchorId);
  void addStateAnchors(unsigned State, const std::vector<unsigned> &Ids);
  void addRuleCanon(unsigned Rule, unsigned CanonId);
  void addRuleCanons(unsigned Rule, const std::vector<unsigned> &Ids);

  /// Copies Other's tables at the given offsets (used by Sta::import so
  /// product/union/lookahead copies keep their back-pointers).
  void importFrom(const StateProvenance &Other, unsigned StateOffset,
                  unsigned RuleOffset);

  size_t numAnnotatedStates() const { return StateAnchors.size(); }
  size_t numAnnotatedRules() const { return RuleCanons.size(); }

private:
  std::vector<std::vector<unsigned>> StateAnchors;
  std::vector<std::vector<unsigned>> RuleCanons;
};

/// Session-wide anchor/rule intern tables plus the rule-coverage ledger.
/// Owned by the SessionEngine next to the Tracer and the StatsRegistry.
class ProvenanceStore {
public:
  bool enabled() const { return Enabled.load(std::memory_order_relaxed); }
  void setEnabled(bool On) { Enabled.store(On, std::memory_order_relaxed); }

  /// Convenience: the source table to thread through a construction —
  /// nullptr unless recording is on and the automaton has provenance.
  const StateProvenance *sourceTable(const StateProvenance *P) const {
    return enabled() ? P : nullptr;
  }

  unsigned internAnchor(DeclAnchor::Kind K, std::string Name, unsigned Line,
                        unsigned Col);
  const DeclAnchor &anchor(unsigned Id) const { return Anchors[Id]; }
  size_t numAnchors() const { return Anchors.size(); }

  unsigned registerRule(unsigned AnchorId, unsigned Line, unsigned Col);
  const RuleOrigin &ruleOrigin(unsigned Id) const { return Rules[Id]; }
  size_t numRules() const { return Rules.size(); }

  /// Credits one firing to every canonical origin the rule aliases.
  void countFiring(const StateProvenance *P, unsigned RuleIndex);
  void countCanon(unsigned CanonId) { ++Rules[CanonId].Fired; }

  /// Seeds a worker store from the frozen base session's: copies the
  /// anchor/rule tables (same id space, Fired counts zeroed — the worker
  /// accumulates only its own firings) and the enabled flag, so shared
  /// StateProvenance tables resolve identically in the worker.
  void adoptSharedFrom(const ProvenanceStore &Base);

  /// Join-point merge: adds a worker store's Fired counts into this
  /// store's rules.  The worker must share this store's id space (it was
  /// seeded by adoptSharedFrom and anchors/rules are only registered
  /// before freeze); worker-registered entries beyond the shared tables
  /// are rejected by assertion, since same-numbered extras from
  /// different workers would be indistinguishable.  Commutative over
  /// workers, so merge order cannot change coverage.
  void mergeCoverageFrom(const ProvenanceStore &Worker);

  /// Canonical rule ids whose Fired count is still zero, in id order.
  std::vector<unsigned> deadRules() const;

  void reset();

private:
  std::atomic<bool> Enabled{false};
  std::vector<DeclAnchor> Anchors;
  std::vector<RuleOrigin> Rules;
};

/// One node of a witness derivation: state Q accepted Node because
/// RuleIndex (of the automaton the derivation was produced over) fired
/// with the given attribute model, and each child was accepted by the
/// corresponding lookahead state.
struct DerivationNode {
  unsigned State = 0;
  unsigned RuleIndex = 0;
  const Term *Guard = nullptr;
  /// The attribute model the solver chose (also the node's attrs).
  std::vector<Value> Model;
  const TreeNode *Node = nullptr;
  std::vector<std::unique_ptr<DerivationNode>> Children;
};

} // namespace obs
} // namespace fast

#endif // FAST_OBS_PROVENANCE_H
