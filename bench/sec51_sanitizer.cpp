//===- bench/sec51_sanitizer.cpp - Section 5.1 reproduction ---------------===//
//
// Reproduces the Section 5.1 evaluation: sanitize 10 HTML pages ranging
// from 20 KB (the paper's Bing page) to 409 KB (Facebook) with (a) the
// Fast-composed sanitizer pipeline evaluated by the structural
// interpreter, (b) the same transducer lowered to the compiled VM data
// plane (src/vm), and (c) the monolithic hand-written baseline standing
// in for HTML Purifier.  The paper's claim: "for speed, the Fast-based
// sanitizer is comparable"; all three outputs are cross-checked for
// equality.
//
// Timing is min-of-N (kReps repetitions per cell) to shave scheduler and
// allocator noise.  Results also land as machine-readable records in
// BENCH_figs.json (source tag "sec51", via bench/BenchJson.h) so
// tools/bench_to_json can fold them into BENCH_history.jsonl.
//
// `sec51_sanitizer --smoke` runs a shrunk sweep as the perf.vm_smoke
// ctest gate: the composed sanitizer must be VM-eligible, issue zero
// solver queries at run time, never fall back to the interpreter, and
// reproduce the interpreter's output exactly; the session must end the
// sweep without a Z3 context, and its runners, attached one at a time,
// must have shared one pooled Vm.  On uninstrumented builds the VM must
// additionally not lose the wall-clock total to the structural
// interpreter beyond a noise tolerance.
//
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "apps/Html.h"
#include "transducers/Run.h"
#include "vm/Vm.h"

#include <chrono>
#include <cmath>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

using namespace fast;

namespace {

/// Repetitions per timed cell; the reported number is the minimum.
constexpr unsigned kReps = 5;
constexpr unsigned kSmokeReps = 3;

/// Wall-clock gate allowance for --smoke: the VM total must not exceed
/// the interpreter total by more than this factor plus a constant floor
/// that absorbs timer noise on the small smoke pages.
constexpr double SmokeRelTolerance = 1.15;
constexpr double SmokeAbsToleranceMs = 50.0;

/// Sanitizer instrumentation (ASan/TSan) perturbs wall time
/// unpredictably, so under those presets the smoke gate keeps only its
/// counter-based checks (eligibility, zero solver queries, zero
/// fallbacks, output equality) and skips the timing comparison.
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

double msSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - Start)
      .count();
}

/// Runs \p Fn \p Reps times and returns the fastest wall time in ms.
template <typename Fn> double minOfN(unsigned Reps, Fn &&Body) {
  double Best = std::numeric_limits<double>::infinity();
  for (unsigned R = 0; R < Reps; ++R) {
    auto T0 = std::chrono::steady_clock::now();
    Body();
    Best = std::min(Best, msSince(T0));
  }
  return Best;
}

/// Session-wide solver traffic, summed over every construction; the VM
/// run-time path must leave this flat.
uint64_t totalSatQueries(Session &S) {
  uint64_t N = 0;
  for (const auto &[Name, C] : S.stats().constructions())
    N += C.SatQueries;
  return N;
}

} // namespace

int main(int Argc, char **Argv) {
  bool Smoke = false;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--smoke") == 0) {
      Smoke = true;
    } else {
      std::cerr << "usage: sec51_sanitizer [--smoke]\n";
      return 2;
    }
  }
  const unsigned Reps = Smoke ? kSmokeReps : kReps;

  std::cout << "=== Section 5.1: HTML sanitizer throughput, composed "
               "pipeline (interpreter and VM) vs monolithic baseline ===\n";
  Session S;
  html::Sanitizer Sani = html::buildSanitizer(S, /*FixBug=*/true);

  // The VM program is compiled once up front (and cached on the session),
  // so the sweep below measures pure run time on every path.
  std::string WhyNot;
  std::shared_ptr<const vm::VmProgram> Program =
      vm::compiledProgram(S, *Sani.Sani, &WhyNot, "sanitizer");
  if (!Program) {
    std::cerr << "composed sanitizer is not VM-eligible: " << WhyNot << "\n";
    return 1; // Regression either way: the gate and the table need it.
  }

  // Pages log-interpolated between the paper's extremes; --smoke shrinks
  // both the page sizes and the page count to stay in tier-1 time.
  std::vector<size_t> Sizes;
  const unsigned Pages = Smoke ? 4 : 10;
  const double LoKb = Smoke ? 8.0 : 20.0;
  const double HiKb = Smoke ? 64.0 : 409.0;
  for (unsigned I = 0; I < Pages; ++I) {
    double T = Pages > 1 ? static_cast<double>(I) / (Pages - 1) : 0.0;
    Sizes.push_back(static_cast<size_t>(LoKb * 1024.0 * std::pow(HiKb / LoKb, T)));
  }

  std::cout << "(min of " << Reps << " repetitions per cell)\n";
  std::cout << std::left << std::setw(12) << "page (KB)" << std::right
            << std::setw(10) << "nodes" << std::setw(12) << "fast (ms)"
            << std::setw(10) << "vm (ms)" << std::setw(15) << "baseline (ms)"
            << std::setw(10) << "vm/base" << std::setw(9) << "equal" << "\n";
  std::cout << std::fixed << std::setprecision(2);

  bench::BenchJsonWriter Json("BENCH_figs.json", "sec51");
  double TotalFast = 0, TotalVm = 0, TotalBase = 0;
  bool AllEqual = true;
  uint64_t RunTimeSatQueries = 0;
  for (unsigned I = 0; I < Sizes.size(); ++I) {
    std::string Page = html::generatePage(Sizes[I], /*Seed=*/100 + I);
    std::string Error;
    TreeRef Doc = html::parseHtml(S, Sani.Sig, Page, Error);
    if (!Doc) {
      std::cerr << "page generation bug: " << Error << "\n";
      return 1;
    }

    // (a) Structural interpreter.  A fresh runner per repetition, so no
    // repetition warms another's membership memos.
    std::vector<TreeRef> InterpOut;
    double FastMs = minOfN(Reps, [&] {
      SttrRunner Runner(*Sani.Sani, S.Trees);
      InterpOut = Runner.run(Doc);
    });

    // (b) Compiled VM plane, symmetric: a fresh runner per repetition,
    // whose Vm comes from the session's pool with its lookahead memo
    // cleared, so no repetition warms another's verdicts; only the
    // scratch capacity and the immutable program carry over.  The
    // solver-query counter must stay flat across these runs.
    std::vector<TreeRef> VmOut;
    uint64_t SatBefore = totalSatQueries(S);
    double VmMs = minOfN(Reps, [&] {
      SttrRunner Runner(*Sani.Sani, S.Trees);
      vm::attachVm(Runner, S, *Sani.Sani, "sanitizer");
      VmOut = Runner.run(Doc);
    });
    RunTimeSatQueries += totalSatQueries(S) - SatBefore;

    // (c) Monolithic hand-written baseline.
    TreeRef BaseOut = nullptr;
    double BaseMs = minOfN(
        Reps, [&] { BaseOut = html::monolithicSanitize(S, Sani.Sig, Doc); });

    bool Equal = InterpOut.size() == 1 && VmOut.size() == 1 &&
                 InterpOut.front() == BaseOut && VmOut.front() == BaseOut;
    AllEqual &= Equal;
    TotalFast += FastMs;
    TotalVm += VmMs;
    TotalBase += BaseMs;
    Json.add("sec51_interp", Doc->size(), FastMs, "{}");
    Json.add("sec51_vm", Doc->size(), VmMs, "{}");
    Json.add("sec51_baseline", Doc->size(), BaseMs, "{}");
    std::cout << std::left << std::setw(12)
              << (std::to_string(Page.size() / 1024) + " KB") << std::right
              << std::setw(10) << Doc->size() << std::setw(12) << FastMs
              << std::setw(10) << VmMs << std::setw(15) << BaseMs
              << std::setw(10) << (BaseMs > 0 ? VmMs / BaseMs : 0.0)
              << std::setw(9) << (Equal ? "yes" : "NO") << "\n";
  }
  std::cout << "\ntotal: fast " << TotalFast << " ms, vm " << TotalVm
            << " ms, baseline " << TotalBase << " ms (vm/base "
            << TotalVm / TotalBase << ", vm/fast " << TotalVm / TotalFast
            << "); outputs " << (AllEqual ? "all equal" : "DIFFER") << "\n";
  std::cout << "paper: \"for speed, the Fast-based sanitizer is comparable "
               "to HTML Purify\";\nFast source: ~50 lines (paper: 200) vs "
               "the monolithic library's thousands\n";

  const engine::VmStats &VS = S.stats().vm();

  if (Smoke) {
    // perf.vm_smoke gate.  Counter-based checks always apply; the
    // wall-clock comparison only on uninstrumented builds.
    bool Ok = true;
    if (!AllEqual) {
      std::cerr << "smoke gate FAILED: VM/interpreter/baseline outputs "
                   "differ\n";
      Ok = false;
    }
    if (RunTimeSatQueries != 0) {
      std::cerr << "smoke gate FAILED: " << RunTimeSatQueries
                << " solver queries issued at run time (must be 0)\n";
      Ok = false;
    }
    if (VS.Runs == 0 || VS.FallbackRuns != 0) {
      std::cerr << "smoke gate FAILED: vm runs=" << VS.Runs
                << " fallbacks=" << VS.FallbackRuns
                << " (expected runs>0, fallbacks=0)\n";
      Ok = false;
    }
    if (S.Solv.hasZ3Context()) {
      std::cerr << "smoke gate FAILED: the sanitizer session built a Z3 "
                   "context (its set-up and data path must not need one)\n";
      Ok = false;
    }
    const size_t VmsBuilt = vm::programCache(S).vmsBuilt();
    if (VmsBuilt != 1) {
      std::cerr << "smoke gate FAILED: the sweep's runners built " << VmsBuilt
                << " Vms (expected 1, reused from the session's pool)\n";
      Ok = false;
    }
    if (!InstrumentedBuild &&
        TotalVm > TotalFast * SmokeRelTolerance + SmokeAbsToleranceMs) {
      std::cerr << "smoke gate FAILED: vm total " << TotalVm
                << " ms loses to interpreter total " << TotalFast
                << " ms beyond tolerance\n";
      Ok = false;
    }
    if (InstrumentedBuild)
      std::cout << "note: instrumented build; wall-clock gate not "
                   "enforced, counter checks only\n";
    if (!Ok)
      return 1;
    std::cout << "smoke gate passed (vm runs " << VS.Runs << ", fallbacks 0, "
              << "run-time solver queries 0, no Z3 context, 1 Vm)\n";
    return 0;
  }

  // Part 2: the composition claim.  "Each sanitization routine can be
  // written as a single function and all such routines can be composed,
  // preserving the property of traversing the input HTML only once."
  std::cout << "\n--- multi-stage pipeline: k separate passes vs one fused "
               "traversal ---\n";
  html::SanitizerPipeline P = html::buildSanitizerPipeline(S);
  std::cout << std::left << std::setw(12) << "page (KB)" << std::right
            << std::setw(18) << "4 passes (ms)" << std::setw(16)
            << "fused (ms)" << std::setw(12) << "speedup" << std::setw(10)
            << "equal" << "\n";
  for (size_t Size : {64u << 10, 256u << 10}) {
    std::string Page = html::generatePage(Size, /*Seed=*/77);
    std::string Error;
    TreeRef Doc = html::parseHtml(S, P.Sig, Page, Error);
    if (!Doc) {
      std::cerr << "page generation bug: " << Error << "\n";
      return 1;
    }
    TreeRef Current = Doc;
    double PassesMs = minOfN(Reps, [&] {
      Current = Doc;
      for (const auto &Stage : P.Stages) {
        SttrRunner Runner(*Stage, S.Trees);
        Current = Runner.run(Current).front();
      }
    });
    TreeRef FusedOut = nullptr;
    double FusedMs = minOfN(Reps, [&] {
      SttrRunner Fused(*P.Composed, S.Trees);
      FusedOut = Fused.run(Doc).front();
    });
    Json.add("sec51_pipeline_passes", Doc->size(), PassesMs, "{}");
    Json.add("sec51_pipeline_fused", Doc->size(), FusedMs, "{}");
    std::cout << std::left << std::setw(12)
              << (std::to_string(Page.size() / 1024) + " KB") << std::right
              << std::setw(18) << PassesMs << std::setw(16) << FusedMs
              << std::setw(11) << PassesMs / FusedMs << "x" << std::setw(9)
              << (Current == FusedOut ? "yes" : "NO") << "\n";
  }

  // The last record carries the engine stats (VM counters included), like
  // fig7 does for its fusion record.
  Json.add("sec51_vm_stats", VS.Runs, TotalVm, bench::engineJson(S));
  if (Json.flush())
    std::cout << "\nwrote BENCH_figs.json (source sec51)\n";
  return AllEqual ? 0 : 1;
}
