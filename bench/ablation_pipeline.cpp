//===- bench/ablation_pipeline.cpp - Ablations of design choices ----------===//
//
// Measures three implementation choices DESIGN.md calls out:
//
//  (a) lookahead simplification after composition: without it, every
//      compose adds pre-image lookahead states even when they are
//      vacuous, and n-fold pipelines slow down with n;
//  (b) the solver-side satisfiability cache keyed on hash-consed term
//      identity: disabled, every guard check pays a full solver query;
//  (c) the built-in linear-fragment decision procedure consulted before
//      Z3 (smt/SimpleSolver.h): disabled, every uncached query goes to
//      the external solver.
//
// The minterm trie has its own per-workload contrast in
// bench/smt_queries.
//
//===----------------------------------------------------------------------===//

#include "apps/ArTaggers.h"
#include "apps/Deforestation.h"
#include "transducers/Ops.h"

#include <chrono>
#include <iomanip>
#include <iostream>

using namespace fast;

namespace {

double msSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - Start)
      .count();
}

void ablationLookaheadSimplification() {
  std::cout << "--- (a) lookahead simplification after composition ---\n";
  std::cout << std::left << std::setw(10) << "n" << std::setw(14)
            << "simplify" << std::right << std::setw(14) << "LA states"
            << std::setw(14) << "fusion ms" << std::setw(14) << "run ms"
            << "\n";
  for (bool Simplify : {true, false}) {
    Session S;
    SignatureRef Sig = defo::listSignature();
    TreeRef Input = defo::randomList(S, Sig, 4096, /*Seed=*/5);
    for (unsigned N : {8u, 16u, 32u, 64u}) {
      std::vector<std::shared_ptr<Sttr>> Pipeline;
      for (unsigned I = 0; I < N; ++I)
        Pipeline.push_back(defo::makeMapCaesar(S, Sig));
      auto T0 = std::chrono::steady_clock::now();
      std::shared_ptr<Sttr> Fused = Pipeline.front();
      for (size_t I = 1; I < Pipeline.size(); ++I)
        Fused = composeSttr(S.Solv, S.Outputs, *Fused, *Pipeline[I], Simplify)
                    .Composed;
      double FusionMs = msSince(T0);
      auto T1 = std::chrono::steady_clock::now();
      defo::runComposed(S, *Fused, Input);
      double RunMs = msSince(T1);
      std::cout << std::left << std::setw(10) << N << std::setw(14)
                << (Simplify ? "on" : "off") << std::right << std::setw(14)
                << Fused->lookahead().numStates() << std::setw(14)
                << std::fixed << std::setprecision(2) << FusionMs
                << std::setw(14) << RunMs << "\n";
    }
  }
}

void ablationSolverCache() {
  std::cout << "\n--- (b) satisfiability cache on hash-consed terms ---\n";
  std::cout << std::left << std::setw(10) << "cache" << std::right
            << std::setw(12) << "pairs" << std::setw(14) << "total ms"
            << std::setw(14) << "queries" << std::setw(14) << "cache hits"
            << std::setw(14) << "uncached" << "\n";
  for (bool Cache : {true, false}) {
    Session S;
    S.Solv.setCacheEnabled(Cache);
    ar::ArOptions Options;
    Options.NumTaggers = 10;
    ar::ArWorkload W = ar::generateArWorkload(S, /*Seed=*/2014, Options);
    S.Solv.resetStats();
    auto T0 = std::chrono::steady_clock::now();
    unsigned Pairs = 0;
    for (unsigned I = 0; I < W.Taggers.size(); ++I)
      for (unsigned J = I + 1; J < W.Taggers.size(); ++J) {
        ar::checkConflict(S, W, I, J);
        ++Pairs;
      }
    double TotalMs = msSince(T0);
    const Solver::Stats &St = S.Solv.stats();
    std::cout << std::left << std::setw(10) << (Cache ? "on" : "off")
              << std::right << std::setw(12) << Pairs << std::setw(14)
              << std::fixed << std::setprecision(1) << TotalMs
              << std::setw(14) << St.Queries << std::setw(14)
              << St.CacheHits << std::setw(14) << St.Queries - St.CacheHits
              << "\n";
  }
}

void ablationFastPath() {
  std::cout << "\n--- (c) built-in decision procedure before Z3 ---\n";
  std::cout << std::left << std::setw(12) << "fast path" << std::right
            << std::setw(12) << "pairs" << std::setw(14) << "total ms"
            << std::setw(14) << "nontrivial" << std::setw(16)
            << "via built-in" << std::setw(12) << "via Z3" << "\n";
  for (bool FastPath : {true, false}) {
    Session S;
    S.Solv.setFastPathEnabled(FastPath);
    ar::ArOptions Options;
    Options.NumTaggers = 10;
    ar::ArWorkload W = ar::generateArWorkload(S, /*Seed=*/2014, Options);
    S.Solv.resetStats();
    auto T0 = std::chrono::steady_clock::now();
    unsigned Pairs = 0;
    for (unsigned I = 0; I < W.Taggers.size(); ++I)
      for (unsigned J = I + 1; J < W.Taggers.size(); ++J) {
        ar::checkConflict(S, W, I, J);
        ++Pairs;
      }
    double TotalMs = msSince(T0);
    const Solver::Stats &St = S.Solv.stats();
    // Constant true/false guards short-circuit before cache and solver;
    // only the remaining nontrivial distinct predicates matter here.
    uint64_t NonTrivial = St.Queries - St.CacheHits - St.TrivialAnswers;
    std::cout << std::left << std::setw(12) << (FastPath ? "on" : "off")
              << std::right << std::setw(12) << Pairs << std::setw(14)
              << std::fixed << std::setprecision(1) << TotalMs
              << std::setw(14) << NonTrivial << std::setw(16)
              << St.FastPathAnswers << std::setw(12)
              << NonTrivial - St.FastPathAnswers << "\n";
  }
}

} // namespace

int main() {
  std::cout << "=== Ablations: composition cleanup, solver caching, and the "
               "built-in decision procedure ===\n";
  ablationLookaheadSimplification();
  ablationSolverCache();
  ablationFastPath();
  return 0;
}
