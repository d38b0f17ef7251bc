//===- smt/SimpleSolver.h - Built-in decision procedure ---------*- C++ -*-===//
//
// Part of the fast-transducers project (see support/Hashing.h).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A built-in decision procedure for the fragment of the label theory
/// that covers the overwhelming majority of guards in practice: Boolean
/// combinations (expanded to bounded DNF) of per-attribute literals —
/// integer/rational affine bounds ax + b ~ c, congruences
/// (x + b) mod m = r, string (dis)equalities against constants, and
/// boolean attribute literals.  Anything outside the fragment
/// (multi-attribute atoms, non-linear terms, oversized DNF) answers
/// Unknown and falls through to Z3.
///
/// The paper's only requirement on the label theory is that it be a
/// decidable effective Boolean algebra; shipping an internal procedure
/// (a) removes the hard Z3 dependency for the common fragment and
/// (b) halves solver latency on guard-heavy workloads (see
/// bench/ablation_pipeline).  Solver::isSat consults it first.
///
//===----------------------------------------------------------------------===//

#ifndef FAST_SMT_SIMPLESOLVER_H
#define FAST_SMT_SIMPLESOLVER_H

#include "smt/Term.h"

#include <span>

namespace fast {

/// Three-valued satisfiability answer.
enum class SimpleResult { Sat, Unsat, Unknown };

/// Decides \p Pred within the built-in fragment; Unknown means "outside
/// the fragment", never "timed out".
SimpleResult simpleCheckSat(TermRef Pred);

/// Decides the conjunction of \p Conjuncts within the built-in fragment
/// without materializing an And term; Solver::impliesFast decides A => B
/// as the pair {A, not B} this way.  An empty span is the empty
/// conjunction (Sat).
SimpleResult simpleCheckSat(std::span<const TermRef> Conjuncts);

} // namespace fast

#endif // FAST_SMT_SIMPLESOLVER_H
