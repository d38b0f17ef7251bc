//===- bench/fig6_ar_conflicts.cpp - Figure 6 reproduction ----------------===//
//
// Reproduces Figure 6: the running-time histograms of the three transducer
// operations in the AR conflict analysis (composition, input restriction,
// output restriction) over all tagger pairs, plus the summary statistics
// quoted in Section 5.2 (averages, conflict count, ~200 ms per pairwise
// check).
//
// The paper uses 100 taggers (4,950 pairs).  On this single-core harness
// the default is 100 as well; pass a smaller count as argv[1] for a quick
// run, e.g. `fig6_ar_conflicts 40`.
//
//===----------------------------------------------------------------------===//

#include "apps/ArTaggers.h"
#include "BenchJson.h"

#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <vector>

using namespace fast;

namespace {

/// Histogram over the power-of-two millisecond buckets of Figure 6.
struct Histogram {
  // Bucket k holds [2^(k-1), 2^k) ms, with bucket 0 = [0, 1).
  std::vector<unsigned> Buckets = std::vector<unsigned>(18, 0);

  void add(double Ms) {
    unsigned K = 0;
    double Hi = 1.0;
    while (Ms >= Hi && K + 1 < Buckets.size()) {
      Hi *= 2;
      ++K;
    }
    ++Buckets[K];
  }
};

std::string bucketLabel(unsigned K) {
  auto Fmt = [](double V) {
    long L = static_cast<long>(V);
    std::string Text = std::to_string(L);
    // Thousands separators, as in the figure's axis labels.
    for (int I = static_cast<int>(Text.size()) - 3; I > 0; I -= 3)
      Text.insert(static_cast<size_t>(I), ",");
    return Text;
  };
  double Lo = K == 0 ? 0 : 1 << (K - 1);
  double Hi = 1 << K;
  return "[" + Fmt(Lo) + "-" + Fmt(Hi) + ")";
}

} // namespace

int main(int Argc, char **Argv) {
  unsigned NumTaggers = Argc > 1 ? std::atoi(Argv[1]) : 100;
  unsigned Seed = Argc > 2 ? std::atoi(Argv[2]) : 2014;

  std::cout << "=== Figure 6: AR conflict analysis, running times per "
               "operation ===\n";
  Session S;
  ar::ArOptions Options;
  Options.NumTaggers = NumTaggers;
  ar::ArWorkload W = ar::generateArWorkload(S, Seed, Options);

  unsigned MinStates = ~0u, MaxStates = 0;
  for (const auto &T : W.Taggers) {
    MinStates = std::min<unsigned>(MinStates, T->numStates());
    MaxStates = std::max<unsigned>(MaxStates, T->numStates());
  }
  std::cout << "taggers: " << NumTaggers << " (sizes " << MinStates << ".."
            << MaxStates << " states; paper: 1..95)\n"
            << "input-restriction language: "
            << W.Untagged.automaton().numStates()
            << " states (paper: 3); output-restriction language: "
            << W.DoubleTagged.automaton().numStates()
            << " states (paper: 5)\n";

  Histogram Compose, InputRestrict, OutputRestrict;
  double SumCompose = 0, SumInput = 0, SumOutput = 0, SumTotal = 0;
  double MaxCompose = 0, MaxInput = 0, MaxOutput = 0;
  unsigned Pairs = 0, Conflicts = 0;
  size_t MaxRestrictedStates = 0, MaxRestrictedRules = 0;

  for (unsigned I = 0; I < NumTaggers; ++I) {
    for (unsigned J = I + 1; J < NumTaggers; ++J) {
      ar::ConflictCheck C = ar::checkConflict(S, W, I, J);
      ++Pairs;
      Conflicts += C.Conflict;
      Compose.add(C.ComposeMs);
      InputRestrict.add(C.InputRestrictMs);
      OutputRestrict.add(C.OutputRestrictMs);
      SumCompose += C.ComposeMs;
      SumInput += C.InputRestrictMs;
      SumOutput += C.OutputRestrictMs;
      SumTotal += C.ComposeMs + C.InputRestrictMs + C.OutputRestrictMs +
                  C.EmptinessMs;
      MaxCompose = std::max(MaxCompose, C.ComposeMs);
      MaxInput = std::max(MaxInput, C.InputRestrictMs);
      MaxOutput = std::max(MaxOutput, C.OutputRestrictMs);
      MaxRestrictedStates =
          std::max(MaxRestrictedStates, C.RestrictedStates);
      MaxRestrictedRules = std::max(MaxRestrictedRules, C.RestrictedRules);
    }
  }

  std::cout << "\npairs analyzed: " << Pairs << " (paper: 4,950); actual "
            << "conflicts: " << Conflicts << " (paper: 222)\n\n";

  std::cout << std::left << std::setw(18) << "time interval (ms)"
            << std::right << std::setw(14) << "Composition" << std::setw(20)
            << "Input restriction" << std::setw(21) << "Output restriction"
            << "\n";
  for (unsigned K = 0; K < 18; ++K) {
    if (Compose.Buckets[K] == 0 && InputRestrict.Buckets[K] == 0 &&
        OutputRestrict.Buckets[K] == 0)
      continue;
    std::cout << std::left << std::setw(18) << bucketLabel(K) << std::right
              << std::setw(14) << Compose.Buckets[K] << std::setw(20)
              << InputRestrict.Buckets[K] << std::setw(21)
              << OutputRestrict.Buckets[K] << "\n";
  }

  std::cout << std::fixed << std::setprecision(1);
  std::cout << "\naverages (ms):  composition " << SumCompose / Pairs
            << " (paper: 15), input restriction " << SumInput / Pairs
            << " (paper: 3.5), output restriction " << SumOutput / Pairs
            << " (paper: 175)\n";
  std::cout << "maxima  (ms):   composition " << MaxCompose
            << " (paper: <250), input restriction " << MaxInput
            << " (paper: <150), output restriction " << MaxOutput
            << " (paper: <33,000)\n";
  std::cout << "average per pairwise check: " << SumTotal / Pairs
            << " ms (paper: 193 ms)\n";
  std::cout << "largest input-restricted transducer: " << MaxRestrictedStates
            << " states, " << MaxRestrictedRules
            << " rules (paper: up to 300 states / 4,000 rules)\n";

  bench::BenchJsonWriter Json("BENCH_figs.json", "fig6");
  std::string Stats = bench::engineJson(S);
  Json.add("fig6_compose_avg", NumTaggers, SumCompose / Pairs, "{}");
  Json.add("fig6_input_restrict_avg", NumTaggers, SumInput / Pairs, "{}");
  Json.add("fig6_output_restrict_avg", NumTaggers, SumOutput / Pairs, "{}");
  Json.add("fig6_pairwise_check_avg", NumTaggers, SumTotal / Pairs, Stats);
  if (Json.flush())
    std::cout << "\nmachine-readable results merged into " << Json.path()
              << "\n";
  return 0;
}
