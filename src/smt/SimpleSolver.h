//===- smt/SimpleSolver.h - Built-in decision procedure ---------*- C++ -*-===//
//
// Part of the fast-transducers project (see support/Hashing.h).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A built-in decision procedure for the fragment of the label theory
/// that covers the overwhelming majority of guards in practice: Boolean
/// combinations of per-attribute literals — integer/rational affine
/// bounds ax + b ~ c, congruences (x + b) mod m = r, string
/// (dis)equalities against constants, and boolean attribute literals.
///
/// A formula is expanded to DNF and decided cube by cube.  When the DNF
/// would exceed 256 cubes, it is decided by *attribute regions* instead:
/// each attribute gets finitely many values that realise every truth
/// vector of its atoms (for an Int, the integers around each bound plus,
/// in each gap, as many consecutive integers as the lcm of its moduli;
/// for a String, every constant plus one other string), the atoms are
/// evaluated on them with evalTerm, and the product of the distinct
/// vectors is searched over the formula's And/Or/Not skeleton, so the
/// answer is exact by construction.
///
/// Unknown means the formula leaves the fragment (an atom over two
/// attributes, a non-linear term) or passes a limit of the region search
/// (atoms, moduli, combinations, int64 magnitudes); Solver::isSat then
/// asks Z3.
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
/// the fragment or past a region-search limit", never "timed out".
SimpleResult simpleCheckSat(TermRef Pred);

/// Decides the conjunction of \p Conjuncts within the built-in fragment
/// without materializing an And term; Solver::impliesFast decides A => B
/// as the pair {A, not B} this way.  An empty span is the empty
/// conjunction (Sat).
SimpleResult simpleCheckSat(std::span<const TermRef> Conjuncts);

} // namespace fast

#endif // FAST_SMT_SIMPLESOLVER_H
