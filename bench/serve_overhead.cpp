//===- bench/serve_overhead.cpp - Admin server A/B overhead gate ----------===//
//
// Measures what an embedded admin server costs the session it introspects,
// on the two figure-level workloads: the Figure 6 AR pairwise conflict
// sweep and the Figure 7 deforestation pipeline, each run A/B with no
// server at all vs an idle listening SessionAdminServer.  A third leg runs
// fig7 while a scraper thread fires a 100-request /metrics burst at the
// live session — the worst realistic interference case, since every scrape
// walks all the relaxed counter cells under the stats-registry slots lock.
//
// The design claim under test: an idle server costs nothing measurable
// (its threads sleep in poll/condvar waits), and a scrape burst perturbs
// the session only at noise level (scrapes read relaxed atomics and take
// the slots lock only for map iteration, never for counter updates).
//
// Results go to BENCH_serve.json (tools/bench_to_json folds them into the
// history record).  `--smoke` gates both comparisons with the same
// min-of-reps + noise-allowance policy as perf.metrics_smoke
// (uninstrumented builds only), and always verifies the burst actually
// served valid responses.
//
// Usage: serve_overhead [--smoke] [fig6-taggers] [fig7-pipeline]
//
//===----------------------------------------------------------------------===//

#include "apps/ArTaggers.h"
#include "apps/Deforestation.h"
#include "BenchJson.h"
#include "checks/HttpClient.h"
#include "transducers/Admin.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace fast;

namespace {

/// Design target: the idle server (and a scrape burst) should cost < 0.5%
/// — the same budget as the telemetry plane itself.
constexpr double TargetRelDelta = 0.005;

/// Enforced smoke bound: target plus a wall-clock noise allowance (same
/// policy and values as perf.metrics_smoke — the workloads are sub-second
/// and scheduler noise alone can exceed the design target).
constexpr double SmokeRelTolerance = 1.10;
constexpr double SmokeAbsToleranceMs = 50.0;
constexpr unsigned SmokeReps = 5;
constexpr unsigned BurstRequests = 100;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool Instrumented = true;
#else
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool Instrumented = true;
#else
constexpr bool Instrumented = false;
#endif
#else
constexpr bool Instrumented = false;
#endif
#endif

double msSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - Start)
      .count();
}

enum class Mode { Absent, Idle, Burst };

/// Fires \p BurstRequests GET /metrics scrapes as fast as they are
/// answered, counting the ones that came back complete and valid-ish
/// (200 with a nonempty body).
void scrapeBurst(uint16_t Port, std::atomic<unsigned> &Served) {
  for (unsigned I = 0; I < BurstRequests; ++I) {
    obs::HttpResult R = obs::httpRequest(Port, "GET", "/metrics");
    if (R.Ok && R.Status == 200 && !R.Body.empty())
      Served.fetch_add(1, std::memory_order_relaxed);
  }
}

/// One Figure 6 rep: fresh session, pairwise conflict sweep.  Workload
/// generation is excluded from the timed region (identical on all sides).
double fig6Rep(unsigned Taggers, Mode M, std::atomic<unsigned> &Served) {
  Session S;
  std::unique_ptr<SessionAdminServer> Admin;
  if (M != Mode::Absent) {
    Admin = std::make_unique<SessionAdminServer>(S, "serve_overhead fig6");
    if (!Admin->start(0)) {
      std::cerr << "ERROR: admin server failed to start\n";
      std::exit(1);
    }
  }
  ar::ArOptions Options;
  Options.NumTaggers = Taggers;
  ar::ArWorkload W = ar::generateArWorkload(S, /*Seed=*/2014, Options);
  std::thread Scraper;
  if (M == Mode::Burst)
    Scraper = std::thread(scrapeBurst, Admin->port(), std::ref(Served));
  auto T0 = std::chrono::steady_clock::now();
  for (unsigned I = 0; I < Taggers; ++I)
    for (unsigned J = I + 1; J < Taggers; ++J)
      (void)ar::checkConflict(S, W, I, J);
  double Ms = msSince(T0);
  if (Scraper.joinable())
    Scraper.join();
  return Ms;
}

/// One Figure 7 rep: fresh session, compose an N-stage map_caesar
/// pipeline and run it (list length matches telemetry_overhead).
double fig7Rep(unsigned Pipeline, Mode M, std::atomic<unsigned> &Served) {
  Session S;
  std::unique_ptr<SessionAdminServer> Admin;
  if (M != Mode::Absent) {
    Admin = std::make_unique<SessionAdminServer>(S, "serve_overhead fig7");
    if (!Admin->start(0)) {
      std::cerr << "ERROR: admin server failed to start\n";
      std::exit(1);
    }
  }
  SignatureRef Sig = defo::listSignature();
  TreeRef Input = defo::randomList(S, Sig, Instrumented ? 512 : 4096,
                                   /*Seed=*/2014);
  std::vector<std::shared_ptr<Sttr>> Stages;
  for (unsigned I = 0; I < Pipeline; ++I)
    Stages.push_back(defo::makeMapCaesar(S, Sig));
  std::thread Scraper;
  if (M == Mode::Burst)
    Scraper = std::thread(scrapeBurst, Admin->port(), std::ref(Served));
  auto T0 = std::chrono::steady_clock::now();
  std::shared_ptr<Sttr> Fused = defo::composePipeline(S, Stages);
  (void)defo::runComposed(S, *Fused, Input);
  double Ms = msSince(T0);
  if (Scraper.joinable())
    Scraper.join();
  return Ms;
}

struct AB {
  double AbsentMs = 1e300;
  double IdleMs = 1e300;
  double BurstMs = 1e300; // only measured for fig7
  unsigned BurstServed = 0;
  double idleDelta() const { return IdleMs / AbsentMs - 1.0; }
  double burstDelta() const { return BurstMs / AbsentMs - 1.0; }
};

/// Min-of-reps, interleaved sides, so slow drift lands evenly.
template <typename Rep>
AB measure(unsigned Reps, bool WithBurst, Rep &&RunRep) {
  AB R;
  std::atomic<unsigned> Served{0};
  for (unsigned I = 0; I < Reps; ++I) {
    R.AbsentMs = std::min(R.AbsentMs, RunRep(Mode::Absent, Served));
    R.IdleMs = std::min(R.IdleMs, RunRep(Mode::Idle, Served));
    if (WithBurst)
      R.BurstMs = std::min(R.BurstMs, RunRep(Mode::Burst, Served));
  }
  R.BurstServed = Served.load();
  return R;
}

void report(const char *Name, const AB &R, bool WithBurst) {
  std::cout << std::left << std::setw(8) << Name << std::right << std::fixed
            << std::setprecision(2) << std::setw(14) << R.AbsentMs
            << std::setw(12) << R.IdleMs << std::setw(11)
            << R.idleDelta() * 100 << "%";
  if (WithBurst)
    std::cout << std::setw(12) << R.BurstMs << std::setw(11)
              << R.burstDelta() * 100 << "%" << std::setw(10)
              << R.BurstServed;
  std::cout << "\n";
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
  unsigned Fig6Taggers = Sizes.size() > 0 ? Sizes[0] : 8;
  unsigned Fig7Pipeline = Sizes.size() > 1 ? Sizes[1] : 64;

  std::cout << "=== Admin server overhead: absent vs idle vs scraped ===\n"
            << "fig6: " << Fig6Taggers << " taggers ("
            << Fig6Taggers * (Fig6Taggers - 1) / 2 << " pairs); fig7: "
            << Fig7Pipeline << "-stage pipeline over "
            << (Instrumented ? 512 : 4096) << " elements; "
            << BurstRequests << "-scrape burst on fig7; min of "
            << SmokeReps << " interleaved reps per side\n\n";
  std::cout << std::left << std::setw(8) << "bench" << std::right
            << std::setw(14) << "absent (ms)" << std::setw(12) << "idle (ms)"
            << std::setw(12) << "delta" << std::setw(12) << "burst (ms)"
            << std::setw(12) << "delta" << std::setw(10) << "scrapes"
            << "\n";

  std::atomic<unsigned> Unused{0};
  AB Fig6 = measure(SmokeReps, /*WithBurst=*/false,
                    [&](Mode M, std::atomic<unsigned> &Served) {
                      return fig6Rep(Fig6Taggers, M, Served);
                    });
  report("fig6", Fig6, false);
  AB Fig7 = measure(SmokeReps, /*WithBurst=*/true,
                    [&](Mode M, std::atomic<unsigned> &Served) {
                      return fig7Rep(Fig7Pipeline, M, Served);
                    });
  report("fig7", Fig7, true);
  (void)Unused;

  std::cout << "\ndesign target: idle server and scrape burst each < "
            << std::setprecision(1) << TargetRelDelta * 100
            << "% over no server (scrapes read relaxed cells; the slots "
               "lock covers map iteration only)\n";

  bench::BenchJsonWriter Json("BENCH_serve.json", "serve");
  auto Record = [&](const char *Name, long N, const AB &R, bool WithBurst) {
    Json.add(std::string(Name) + "_server_absent", N, R.AbsentMs, "{}");
    std::ostringstream Idle;
    Idle << "{\"delta_rel\":" << std::setprecision(6) << std::fixed
         << R.idleDelta() << "}";
    Json.add(std::string(Name) + "_server_idle", N, R.IdleMs, Idle.str());
    if (WithBurst) {
      std::ostringstream Burst;
      Burst << "{\"delta_rel\":" << std::setprecision(6) << std::fixed
            << R.burstDelta() << ",\"scrapes\":" << R.BurstServed << "}";
      Json.add(std::string(Name) + "_server_scraped", N, R.BurstMs,
               Burst.str());
    }
  };
  Record("fig6", Fig6Taggers, Fig6, false);
  Record("fig7", Fig7Pipeline, Fig7, true);
  if (Json.flush())
    std::cout << "machine-readable results merged into " << Json.path()
              << "\n";

  if (Smoke) {
    bool Ok = true;
    // The burst must have actually scraped the live session — every rep's
    // 100 requests answered with complete 200s (this part gates on every
    // build, instrumented or not).
    if (Fig7.BurstServed != SmokeReps * BurstRequests) {
      std::cerr << "SMOKE FAIL: burst served " << Fig7.BurstServed << " of "
                << SmokeReps * BurstRequests << " scrapes\n";
      Ok = false;
    }
    auto Gate = [&](const char *What, double BaseMs, double SideMs) {
      if (Instrumented) {
        std::cout << What
                  << ": wall-time gate skipped under sanitizer "
                     "instrumentation\n";
        return;
      }
      if (SideMs > BaseMs * SmokeRelTolerance + SmokeAbsToleranceMs) {
        std::cerr << "SMOKE FAIL: " << What << " " << SideMs
                  << " ms exceeds absent " << BaseMs << " ms * "
                  << SmokeRelTolerance << " + " << SmokeAbsToleranceMs
                  << " ms\n";
        Ok = false;
      }
    };
    Gate("fig6 idle", Fig6.AbsentMs, Fig6.IdleMs);
    Gate("fig7 idle", Fig7.AbsentMs, Fig7.IdleMs);
    Gate("fig7 scraped", Fig7.AbsentMs, Fig7.BurstMs);
    if (!Ok)
      return 1;
    std::cout << "smoke gate passed\n";
  }
  return 0;
}
