//===- smt/Term.h - Hash-consed label-theory terms --------------*- C++ -*-===//
//
// Part of the fast-transducers project (see support/Hashing.h).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The term language of the label theory.  Guards of STA/STTR rules are
/// Bool-sorted terms over the attributes of the node being read; output
/// label expressions of STTR rules are terms of the attribute's sort over
/// the same attributes (the paper's `e : sigma -> sigma` in Definition 4).
///
/// Terms are immutable and hash-consed by TermFactory, so pointer equality
/// is structural equality.  The factory applies local simplifications
/// (constant folding, flattening, complement detection, canonical operand
/// order for commutative operators); this keeps the predicates produced by
/// composition and mintermization small before the solver ever sees them.
///
//===----------------------------------------------------------------------===//

#ifndef FAST_SMT_TERM_H
#define FAST_SMT_TERM_H

#include "smt/Value.h"

#include <cassert>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace fast {

class Term;

/// Terms are owned by their TermFactory; users pass them by pointer.
using TermRef = const Term *;

/// The operator of a term node.
enum class TermKind : uint8_t {
  ConstValue, ///< A literal Value of any sort.
  Attr,       ///< Reference to attribute i of the node label.
  Not,        ///< Boolean negation (1 operand).
  And,        ///< n-ary conjunction.
  Or,         ///< n-ary disjunction.
  Ite,        ///< if-then-else (cond, then, else); then/else share a sort.
  Eq,         ///< Polymorphic equality (2 operands of equal sort).
  Lt,         ///< Numeric strict less-than.
  Le,         ///< Numeric less-or-equal.
  Add,        ///< n-ary numeric addition.
  Neg,        ///< Numeric negation.
  Mul,        ///< n-ary numeric multiplication.
  Mod,        ///< Integer Euclidean remainder (matches Z3's mod).
  Div,        ///< Integer Euclidean division (matches Z3's div).
};

/// Returns a human-readable operator spelling ("and", "+", ...).
const char *termKindName(TermKind K);

/// An immutable, interned term node.
class Term {
public:
  TermKind kind() const { return Kind; }
  Sort sort() const { return TheSort; }
  /// Dense id assigned by the owning factory; usable as a map key and as the
  /// canonical ordering for commutative operands.
  unsigned id() const { return Id; }
  std::size_t hash() const { return Hash; }

  bool isConst() const { return Kind == TermKind::ConstValue; }
  bool isTrue() const { return isConst() && sort() == Sort::Bool && Payload.getBool(); }
  bool isFalse() const {
    return isConst() && sort() == Sort::Bool && !Payload.getBool();
  }

  /// For ConstValue terms: the literal value.
  const Value &constValue() const { return Payload; }
  /// For Attr terms: the attribute tuple index.
  unsigned attrIndex() const { return AttrIndex; }
  /// For Attr terms: the display name of the attribute.
  const std::string &attrName() const { return Name; }

  std::span<const TermRef> operands() const { return Operands; }
  TermRef operand(unsigned I) const { return Operands[I]; }
  unsigned numOperands() const { return static_cast<unsigned>(Operands.size()); }

  /// Renders the term in prefix form, e.g. `(and (= tag "a") (< x 4))`.
  std::string str() const;

private:
  friend class TermFactory;
  Term(TermKind Kind, Sort TheSort, Value Payload, unsigned AttrIndex,
       std::string Name, std::vector<TermRef> Operands);

  TermKind Kind;
  Sort TheSort;
  unsigned Id = 0;
  std::size_t Hash = 0;
  Value Payload;
  unsigned AttrIndex = 0;
  std::string Name;
  std::vector<TermRef> Operands;
};

/// Builds and interns terms, applying local simplification.
///
/// All automata/transducers participating in one analysis must share a
/// factory (pointer identity of predicates is relied upon throughout).
/// "Share" generalizes to a frozen base plus per-thread overlays: after
/// freeze() the factory is an immutable shared artifact (interning an
/// existing term is a lock-free read; interning a new one throws
/// FrozenFactoryError), and overlay factories constructed over it resolve
/// existing structures to the base pointers while interning genuinely new
/// terms locally — so pointer identity still equals structural equality
/// across the base/overlay union.
class TermFactory {
public:
  TermFactory();
  /// Overlay over frozen \p Base (which must outlive this factory):
  /// lookups consult Base first, new terms intern locally with ids above
  /// Base's id range.
  explicit TermFactory(const TermFactory *Base);
  TermFactory(const TermFactory &) = delete;
  TermFactory &operator=(const TermFactory &) = delete;

  /// Makes the factory immutable: from here on, interning an existing
  /// term returns the interned pointer without mutation (safe from any
  /// number of threads), and interning a new term throws
  /// FrozenFactoryError.  One-way.
  void freeze() { Frozen = true; }
  bool frozen() const { return Frozen; }
  /// The frozen base this factory overlays, or null.
  const TermFactory *base() const { return Base; }

  /// Number of distinct interned terms (used by ablation benchmarks);
  /// includes the frozen base's terms for an overlay.
  size_t numTerms() const { return IdOffset + Nodes.size(); }

  /// Discards every locally interned term, returning the overlay to its
  /// just-constructed state (the pooled worker-context reset path, so a
  /// reused overlay assigns the same local ids a fresh one would).  Only
  /// valid for unfrozen overlays.  Every TermRef that does not resolve
  /// into the base dangles afterwards; the caller must clear any
  /// structure keyed by such refs in the same operation.
  void resetOverlay() {
    assert(Base && !Frozen && "resetOverlay requires an unfrozen overlay");
    Interned.clear();
    Nodes.clear();
  }

  // Constants ---------------------------------------------------------------
  TermRef constant(Value V);
  TermRef trueTerm() { return True; }
  TermRef falseTerm() { return False; }
  TermRef boolConst(bool B) { return B ? True : False; }
  TermRef intConst(int64_t I) { return constant(Value::integer(I)); }
  TermRef realConst(Rational R) { return constant(Value::real(R)); }
  TermRef stringConst(std::string S) {
    return constant(Value::string(std::move(S)));
  }

  /// Reference to attribute \p Index of sort \p S, displayed as \p Name.
  TermRef attr(unsigned Index, Sort S, std::string Name);

  // Boolean structure ---------------------------------------------------------
  TermRef mkNot(TermRef T);
  TermRef mkAnd(std::span<const TermRef> Conjuncts);
  TermRef mkAnd(TermRef A, TermRef B);
  TermRef mkOr(std::span<const TermRef> Disjuncts);
  TermRef mkOr(TermRef A, TermRef B);
  TermRef mkImplies(TermRef A, TermRef B) { return mkOr(mkNot(A), B); }
  TermRef mkIte(TermRef Cond, TermRef Then, TermRef Else);

  // Relations -----------------------------------------------------------------
  TermRef mkEq(TermRef A, TermRef B);
  TermRef mkNeq(TermRef A, TermRef B) { return mkNot(mkEq(A, B)); }
  TermRef mkLt(TermRef A, TermRef B);
  TermRef mkLe(TermRef A, TermRef B);
  TermRef mkGt(TermRef A, TermRef B) { return mkLt(B, A); }
  TermRef mkGe(TermRef A, TermRef B) { return mkLe(B, A); }

  // Arithmetic ----------------------------------------------------------------
  TermRef mkAdd(std::span<const TermRef> Summands);
  TermRef mkAdd(TermRef A, TermRef B);
  TermRef mkSub(TermRef A, TermRef B) { return mkAdd(A, mkNeg(B)); }
  TermRef mkNeg(TermRef T);
  TermRef mkMul(std::span<const TermRef> Factors);
  TermRef mkMul(TermRef A, TermRef B);
  TermRef mkMod(TermRef A, TermRef B);
  TermRef mkDiv(TermRef A, TermRef B);

  /// Replaces every Attr(i) in \p T by \p Replacements[i]; used by the
  /// composition algorithm to form psi(u0) when T's guard is applied to
  /// S's output label expression (Section 4's Look, step 2a).
  TermRef substituteAttrs(TermRef T, std::span<const TermRef> Replacements);

  /// Largest attribute index mentioned in \p T plus one (0 if none).
  unsigned numAttrsUsed(TermRef T);

private:
  TermRef intern(TermKind Kind, Sort TheSort, Value Payload, unsigned AttrIndex,
                 std::string Name, std::vector<TermRef> Operands);
  TermRef mkAssocCommut(TermKind Kind, std::span<const TermRef> Operands);
  /// Read-only probe of this factory's (and its bases') intern table.
  const Term *findInterned(const Term *Probe) const;

  struct NodeHash {
    std::size_t operator()(const Term *T) const { return T->hash(); }
  };
  struct NodeEq {
    bool operator()(const Term *A, const Term *B) const;
  };

  const TermFactory *Base = nullptr;
  /// Base->numTerms() at overlay creation; local ids start here so every
  /// term reachable from this factory has a distinct id.
  unsigned IdOffset = 0;
  bool Frozen = false;
  std::deque<std::unique_ptr<Term>> Nodes;
  std::unordered_set<Term *, NodeHash, NodeEq> Interned;
  TermRef True = nullptr;
  TermRef False = nullptr;
};

/// Evaluates \p T on the concrete attribute tuple \p Attrs.
///
/// Guard evaluation while running a transducer on a concrete tree uses this
/// instead of the solver.  Integer mod/div follow Z3's Euclidean semantics
/// so evaluation and satisfiability agree.
Value evalTerm(TermRef T, std::span<const Value> Attrs);

/// Evaluates a Bool-sorted term to a C++ bool.
inline bool evalPredicate(TermRef T, std::span<const Value> Attrs) {
  return evalTerm(T, Attrs).getBool();
}

} // namespace fast

#endif // FAST_SMT_TERM_H
