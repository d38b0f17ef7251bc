//===- bench/fig7_deforestation.cpp - Figure 7 reproduction ---------------===//
//
// Reproduces Figure 7: evaluation time of n composed map_caesar functions
// over a 4,096-element integer list, with deforestation (compose the
// transducers once, run once) and without (n passes with materialized
// intermediate lists).  The paper reports 1,313 ms vs 4,686 ms at n = 512
// on their hardware; the *shape* — Fast roughly flat in n, naive linear —
// is the reproduction target.
//
//===----------------------------------------------------------------------===//

#include "apps/Deforestation.h"
#include "BenchJson.h"

#include <chrono>
#include <iomanip>
#include <cstdlib>
#include <iostream>

using namespace fast;

namespace {

double msSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - Start)
      .count();
}

} // namespace

int main(int Argc, char **Argv) {
  size_t ListLength = Argc > 1 ? std::strtoul(Argv[1], nullptr, 10) : 4096;
  std::cout << "=== Figure 7: deforestation advantage for a list of "
            << ListLength << " integers ===\n";
  std::cout << std::left << std::setw(10) << "n" << std::right
            << std::setw(16) << "naive (ms)" << std::setw(16)
            << "fast (ms)" << std::setw(18) << "fusion (ms)" << std::setw(12)
            << "speedup" << "\n";

  Session S;
  SignatureRef Sig = defo::listSignature();
  TreeRef Input = defo::randomList(S, Sig, ListLength, /*Seed=*/2014);

  std::cout << std::fixed << std::setprecision(2);
  bench::BenchJsonWriter Json("BENCH_figs.json", "fig7");
  for (unsigned N : {16u, 32u, 64u, 128u, 256u, 512u}) {
    std::vector<std::shared_ptr<Sttr>> Pipeline;
    for (unsigned I = 0; I < N; ++I)
      Pipeline.push_back(defo::makeMapCaesar(S, Sig));
    S.stats().reset(); // Per-n engine counters (composition only).

    auto T0 = std::chrono::steady_clock::now();
    TreeRef Naive = defo::runNaive(S, Pipeline, Input);
    double NaiveMs = msSince(T0);

    auto T1 = std::chrono::steady_clock::now();
    std::shared_ptr<Sttr> Fused = defo::composePipeline(S, Pipeline);
    double FusionMs = msSince(T1);

    auto T2 = std::chrono::steady_clock::now();
    TreeRef FusedOut = defo::runComposed(S, *Fused, Input);
    double FastMs = msSince(T2);

    if (Naive != FusedOut) {
      std::cerr << "ERROR: fused and naive results differ at n=" << N << "\n";
      return 1;
    }
    std::cout << std::left << std::setw(10) << N << std::right
              << std::setw(16) << NaiveMs << std::setw(16) << FastMs
              << std::setw(18) << FusionMs << std::setw(11)
              << NaiveMs / FastMs << "x\n";
    Json.add("fig7_naive", N, NaiveMs, "{}");
    Json.add("fig7_fast", N, FastMs, "{}");
    Json.add("fig7_fusion", N, FusionMs, bench::engineJson(S));
  }
  std::cout << "\npaper at n=512: Fast 1,313 ms vs naive 4,686 ms "
               "(3.6x); expected shape: naive linear in n, Fast flat\n";
  if (Json.flush())
    std::cout << "machine-readable results merged into " << Json.path()
              << "\n";
  return 0;
}
