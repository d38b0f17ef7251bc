//===- bench/parallel_scaling.cpp - ParallelRunner scaling curves ---------===//
//
// Measures ParallelRunner on two embarrassingly parallel workloads:
//
//   fig6_pairwise       the AR conflict analysis' pairwise compose +
//                       restrict + emptiness matrix (checkAllConflicts)
//   random_typecheck    seeded fuzz instances, each type-checked through a
//                       compose(Det1, Det2) pipeline against its random
//                       input/output languages
//
// Each workload runs sequentially (the legacy single-session path) and at
// 1/2/4/8 worker threads, verifying that verdicts are identical across
// every configuration, and appends records to BENCH_parallel.json:
//
//   {"source":"parallel_scaling","name":"fig6_pairwise/j4","n":4,
//    "wall_ms":...,"engine":{"hardware_threads":N,"tasks":T,
//    "schema_version":1,"families":[...]}}
//
// where the engine object is the session's metrics snapshot without
// timing families (bench::engineJson).
// `n` is the thread count (0 = sequential path).  Speedups are whatever
// the host gives — on a single-core container every thread count
// serializes onto one CPU and the interesting number is the overhead of
// the worker-context machinery, which `--smoke` gates: the -j1 path must
// not lose to the sequential path by more than the tolerance below.
//
// Usage: parallel_scaling [--smoke] [fig6-taggers] [typecheck-instances]
//
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "apps/ArTaggers.h"
#include "testing/Instance.h"
#include "transducers/Ops.h"
#include "transducers/Parallel.h"

#include <chrono>
#include <cstdlib>
#include <functional>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

using namespace fast;
using Clock = std::chrono::steady_clock;

namespace {

double msSince(Clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - Start)
      .count();
}

/// The -j1-vs-sequential overhead gate for --smoke: worker contexts trade
/// the sequential path's cross-task guard-cache reuse for isolation, so a
/// small constant + relative allowance absorbs that and timer noise.
constexpr double SmokeRelTolerance = 1.35;
constexpr double SmokeAbsToleranceMs = 250.0;

/// Sanitizer instrumentation inflates the per-context constant costs
/// unpredictably (allocator interception dominates the fresh-context
/// path), so the wall-time gate is only enforced on uninstrumented
/// builds; the verdict cross-checks always apply — running the workloads
/// under the sanitizers is the point of those presets.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool InstrumentedBuild = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool InstrumentedBuild = true;
#else
constexpr bool InstrumentedBuild = false;
#endif
#else
constexpr bool InstrumentedBuild = false;
#endif

struct Measurement {
  double WallMs = 0;
  std::string Verdicts; // order-sensitive fingerprint, e.g. "CC.C.."
  std::string StatsJson;
};

/// One fig6 pairwise run at \p Threads (0 = sequential path) in a fresh
/// session, so no run warms another's caches.
Measurement runFig6(unsigned Taggers, unsigned Threads) {
  Session S;
  ar::ArOptions Options;
  Options.NumTaggers = Taggers;
  ar::ArWorkload W = ar::generateArWorkload(S, /*Seed=*/2014, Options);
  Clock::time_point Start = Clock::now();
  std::vector<ar::ConflictCheck> Checks = ar::checkAllConflicts(S, W, Threads);
  Measurement M;
  M.WallMs = msSince(Start);
  for (const ar::ConflictCheck &C : Checks)
    M.Verdicts += C.Conflict ? 'C' : '.';
  M.StatsJson = bench::engineJson(S);
  return M;
}

/// One random type-check sweep at \p Threads: \p Instances seeded fuzz
/// instances built sequentially pre-freeze, then each pipeline
/// compose(Det1, Det2) type-checked LangA -> LangB in its own task.
Measurement runTypecheck(unsigned Instances, unsigned Threads) {
  Session S;
  testing::InstanceOptions Options;
  Options.NumStates = 4;
  Options.NumSamples = 0;
  std::vector<testing::FuzzInstance> Pool;
  for (unsigned I = 0; I < Instances; ++I)
    Pool.push_back(testing::makeInstance(S, /*Seed=*/1000 + I, Options));

  Measurement M;
  M.Verdicts.assign(Instances, '?');
  Clock::time_point Start = Clock::now();
  auto checkOne = [](Session &In, const testing::FuzzInstance &Inst) {
    ComposeResult R =
        composeSttr(In.Solv, In.Outputs, *Inst.Det1, *Inst.Det2);
    if (!R.Composed)
      return '!';
    return typeCheck(In.Solv, Inst.LangA, *R.Composed, Inst.LangB) ? 'T'
                                                                   : 'F';
  };
  if (Threads == 0) {
    for (unsigned I = 0; I < Instances; ++I)
      M.Verdicts[I] = checkOne(S, Pool[I]);
  } else {
    ParallelRunner Runner(S, Threads);
    Runner.run(Instances, [&](size_t I, WorkerContext &Worker) {
      M.Verdicts[I] = checkOne(Worker.session(), Pool[I]);
    });
  }
  M.WallMs = msSince(Start);
  M.StatsJson = bench::engineJson(S);
  return M;
}

/// Splices bench-level fields into the engine JSON object so each record
/// is self-describing.
std::string withBenchFields(const std::string &StatsJson, unsigned Tasks) {
  std::string Extra = "\"hardware_threads\":" +
                      std::to_string(hardwareThreads()) +
                      ",\"tasks\":" + std::to_string(Tasks) + ",";
  if (StatsJson.size() >= 2 && StatsJson.front() == '{')
    return "{" + Extra + StatsJson.substr(1);
  return "{" + Extra.substr(0, Extra.size() - 1) + "}";
}

} // namespace

int main(int Argc, char **Argv) {
  bool Smoke = false;
  std::vector<unsigned> Sizes;
  for (int I = 1; I < Argc; ++I) {
    if (std::string(Argv[I]) == "--smoke")
      Smoke = true;
    else
      Sizes.push_back(static_cast<unsigned>(std::atoi(Argv[I])));
  }
  unsigned Taggers = Sizes.size() > 0 ? Sizes[0] : (Smoke ? 8 : 20);
  unsigned Instances = Sizes.size() > 1 ? Sizes[1] : (Smoke ? 12 : 48);
  const std::vector<unsigned> ThreadCounts = {0, 1, 2, 4, 8};

  std::cout << "=== parallel scaling: fig6 pairwise (" << Taggers
            << " taggers, " << Taggers * (Taggers - 1) / 2
            << " pairs) + random type-check (" << Instances
            << " pipelines); " << hardwareThreads()
            << " hardware thread(s) ===\n";

  bench::BenchJsonWriter Json("BENCH_parallel.json", "parallel_scaling");
  bool Ok = true;

  struct Workload {
    const char *Name;
    unsigned Tasks;
    std::function<Measurement(unsigned)> Run;
  };
  std::vector<Workload> Workloads = {
      {"fig6_pairwise", Taggers * (Taggers - 1) / 2,
       [&](unsigned T) { return runFig6(Taggers, T); }},
      {"random_typecheck", Instances,
       [&](unsigned T) { return runTypecheck(Instances, T); }},
  };

  for (const Workload &W : Workloads) {
    std::cout << "\n-- " << W.Name << " --\n";
    Measurement Seq;
    double J1Ms = 0;
    for (unsigned Threads : ThreadCounts) {
      Measurement M = W.Run(Threads);
      std::string Label =
          Threads == 0 ? "seq" : "j" + std::to_string(Threads);
      Json.add(std::string(W.Name) + "/" + Label, Threads, M.WallMs,
               withBenchFields(M.StatsJson, W.Tasks));
      std::cout << std::left << std::setw(6) << Label << std::right
                << std::fixed << std::setprecision(1) << std::setw(9)
                << M.WallMs << " ms";
      if (Threads == 0) {
        Seq = M;
        std::cout << "  (baseline)";
      } else {
        std::cout << "  speedup vs seq " << std::setprecision(2)
                  << Seq.WallMs / M.WallMs << "x";
        if (M.Verdicts != Seq.Verdicts) {
          std::cout << "  VERDICT MISMATCH";
          Ok = false;
        }
        if (Threads == 1)
          J1Ms = M.WallMs;
      }
      std::cout << "\n";
    }
    if (Smoke && J1Ms > Seq.WallMs * SmokeRelTolerance + SmokeAbsToleranceMs) {
      if (InstrumentedBuild) {
        std::cout << "note: -j1 (" << J1Ms << " ms) vs sequential ("
                  << Seq.WallMs
                  << " ms) over tolerance; gate not enforced under "
                     "sanitizer instrumentation\n";
      } else {
        std::cout << "FAIL: -j1 (" << J1Ms << " ms) lost to sequential ("
                  << Seq.WallMs << " ms) beyond tolerance\n";
        Ok = false;
      }
    }
  }

  if (!Json.flush()) {
    std::cerr << "parallel_scaling: cannot write " << Json.path() << "\n";
    return 1;
  }
  std::cout << "\nwrote " << Json.path() << "\n";
  if (!Ok)
    return 1;
  std::cout << (Smoke ? "smoke gate passed\n" : "");
  return 0;
}
