//===- bench/smt_queries.cpp - Minterm trie solver query counts -----------===//
//
// Measures what the minterm trie buys in solver traffic: the same three
// workloads run under two configurations,
//
//   baseline   minterm trie off (pre-trie behaviour: whole-set memo plus
//              the naive enumeration loop)
//   trie       trie on: shared region verdicts, ancestor subsumption, one
//              checkSat per undecided region (the default)
//
// and reports per-configuration decision-core checks, Z3 checks, and wall
// time.  Results land in BENCH_smt.json (see BenchJson.h; source tag
// "smt").  With --smoke the benchmark shrinks the workloads, skips the
// JSON, and exits nonzero if the default configuration issues more
// decision-core checks than the baseline — the monotonicity gate wired
// into ctest as perf.smoke.
//
// Workloads:
//   fig6-ar        AR conflict analysis: all-pairs compose/restrict over
//                  generated taggers (Section 5.2); guard-sat heavy.
//   sec51-typecheck  the Figure 2 sanitizer: build, then type-check and
//                  minimize its languages; determinization-heavy.
//   random-typecheck randomized fuzz instances pushed through typeCheck
//                  and minimizeLanguage; minterm-split heavy.
//
//===----------------------------------------------------------------------===//

#include "apps/ArTaggers.h"
#include "apps/Html.h"
#include "automata/Determinize.h"
#include "testing/Instance.h"
#include "transducers/Ops.h"
#include "BenchJson.h"

#include <chrono>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

using namespace fast;

namespace {

struct Config {
  const char *Name;
  bool Trie;
};

constexpr Config Configs[] = {
    {"baseline", false},
    {"trie", true},
};

struct Measurement {
  std::string Workload;
  std::string Config;
  double WallMs = 0;
  Solver::Stats Solv;
  MintermTrie::Stats Trie;
};

double msSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - Start)
      .count();
}

/// Total Z3 interactions: sat checks plus model extractions.
uint64_t z3Total(const Solver::Stats &S) {
  return S.Z3Checks + S.Z3ModelChecks;
}

void workloadFig6Ar(Session &S, bool Smoke) {
  ar::ArOptions Options;
  Options.NumTaggers = Smoke ? 6 : 10;
  ar::ArWorkload W = ar::generateArWorkload(S, /*Seed=*/2014, Options);
  for (unsigned I = 0; I < W.Taggers.size(); ++I)
    for (unsigned J = I + 1; J < W.Taggers.size(); ++J)
      ar::checkConflict(S, W, I, J);
}

void workloadSec51Typecheck(Session &S, bool) {
  html::Sanitizer San = html::buildSanitizer(S, /*FixBug=*/true);
  // The analysis of Figure 2, re-posed explicitly: sanitized node trees
  // stay node trees, and the bad-output language is really disjoint.
  typeCheck(S.Solv, San.NodeTree, *San.Sani, San.NodeTree);
  isEmptyLanguage(S.Solv,
                  intersectLanguages(S.Solv, San.NodeTree, San.BadOutput));
  minimizeLanguage(S.Solv, San.NodeTree);
  minimizeLanguage(S.Solv, San.BadOutput);
}

void workloadRandomTypecheck(Session &S, bool Smoke) {
  unsigned Seeds = Smoke ? 2 : 6;
  for (unsigned Seed = 1; Seed <= Seeds; ++Seed) {
    fast::testing::InstanceOptions Options;
    Options.SignatureIndex = Seed % 3;
    Options.NumStates = 3 + Seed % 2;
    Options.MaxRulesPerCtor = 2 + Seed % 2;
    Options.NumSamples = 0; // Concrete samples play no role here.
    fast::testing::FuzzInstance I =
        fast::testing::makeInstance(S, Seed, Options);
    typeCheck(S.Solv, I.LangA, *I.Det1, I.LangB);
    minimizeLanguage(S.Solv, I.LangA);
    minimizeLanguage(S.Solv, unionLanguages(I.LangA, I.LangB));
  }
}

using WorkloadFn = void (*)(Session &, bool);

constexpr struct {
  const char *Name;
  WorkloadFn Run;
} Workloads[] = {
    {"fig6-ar", workloadFig6Ar},
    {"sec51-typecheck", workloadSec51Typecheck},
    {"random-typecheck", workloadRandomTypecheck},
};

Measurement measure(const char *Workload, WorkloadFn Run,
                    const Config &Cfg, bool Smoke) {
  Session S;
  S.engine().Guards.setTrieEnabled(Cfg.Trie);
  S.Solv.resetStats();
  auto T0 = std::chrono::steady_clock::now();
  Run(S, Smoke);
  Measurement M;
  M.WallMs = msSince(T0);
  M.Workload = Workload;
  M.Config = Cfg.Name;
  M.Solv = S.Solv.stats();
  M.Trie = S.engine().Guards.trie().stats();
  return M;
}

/// Solver fields come from Solver::Stats' field tables, under their
/// --metrics keys; MintermTrie::Stats has no table, so its four fields
/// are listed here.
std::string statsJson(const Measurement &M) {
  std::ostringstream Out;
  Out << "{";
  for (const obs::CounterField<Solver::Stats> &F : Solver::Stats::counters())
    Out << "\"" << F.Key << "\":" << static_cast<uint64_t>(F.value(M.Solv))
        << ",";
  Out << "\"trie_nodes_decided\":" << M.Trie.NodesDecided
      << ",\"trie_node_hits\":" << M.Trie.NodeHits
      << ",\"trie_subsumed\":" << M.Trie.SubsumptionAnswers
      << ",\"trie_split_hits\":" << M.Trie.SplitHits;
  for (const obs::HistogramField<Solver::Stats> &H :
       Solver::Stats::histograms())
    Out << ",\"" << H.Key << "_us\":" << (M.Solv.*H.Member).json();
  Out << "}";
  return Out.str();
}

} // namespace

int main(int Argc, char **Argv) {
  bool Smoke = false;
  std::string OutPath = "BENCH_smt.json";
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--smoke") == 0)
      Smoke = true;
    else if (std::strncmp(Argv[I], "--out=", 6) == 0)
      OutPath = Argv[I] + 6;
  }

  std::cout << "=== Solver traffic with and without the minterm trie"
            << (Smoke ? " (smoke)" : "") << " ===\n";
  std::cout << std::left << std::setw(18) << "workload" << std::setw(12)
            << "config" << std::right << std::setw(10) << "queries"
            << std::setw(10) << "core" << std::setw(8) << "z3"
            << std::setw(10) << "subsume" << std::setw(10) << "trie-hit"
            << std::setw(11) << "wall ms" << "\n";

  bench::BenchJsonWriter Json(OutPath, "smt");
  bool Monotone = true;
  for (const auto &W : Workloads) {
    uint64_t BaselineCore = 0, BaselineZ3 = 0;
    for (const Config &Cfg : Configs) {
      Measurement M = measure(W.Name, W.Run, Cfg, Smoke);
      std::cout << std::left << std::setw(18) << M.Workload << std::setw(12)
                << M.Config << std::right << std::setw(10)
                << M.Solv.Queries << std::setw(10) << M.Solv.CoreChecks
                << std::setw(8) << z3Total(M.Solv) << std::setw(10)
                << M.Solv.SubsumptionAnswers + M.Trie.SubsumptionAnswers
                << std::setw(10) << M.Trie.NodeHits << std::setw(11)
                << std::fixed << std::setprecision(1) << M.WallMs << "\n";
      if (!Cfg.Trie) {
        BaselineCore = M.Solv.CoreChecks;
        BaselineZ3 = z3Total(M.Solv);
      } else if (M.Solv.CoreChecks > BaselineCore ||
                 z3Total(M.Solv) > BaselineZ3) {
        Monotone = false;
        std::cout << "  ^ REGRESSION: trie issues more solver checks than "
                     "baseline on "
                  << M.Workload << "\n";
      }
      if (!Smoke)
        Json.add(std::string(W.Name) + "/" + Cfg.Name, Smoke ? 0 : 1,
                 M.WallMs, statsJson(M));
    }
  }

  if (!Smoke) {
    if (Json.flush())
      std::cout << "machine-readable results written to " << Json.path()
                << "\n";
    else
      std::cout << "warning: could not write " << OutPath << "\n";
  }
  if (!Monotone) {
    std::cout << "FAIL: the minterm trie increased solver traffic\n";
    return 1;
  }
  std::cout << "OK: trie never issues more solver checks than baseline\n";
  return 0;
}
