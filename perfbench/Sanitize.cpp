//===- perfbench/Sanitize.cpp - The HTML sanitizer data path --------------===//
//
// Part of the fast-transducers project (see support/Hashing.h).
//
//===----------------------------------------------------------------------===//
//
// Both sanitize workloads send pages through the calls html::
// sanitizeHtmlString makes — parseHtml, SttrRunner::runChecked with the
// compiled VM attached, renderHtml — in one long-lived Session holding the
// composed Figure 2 sanitizer.  Page sizes are log-uniform over the
// paper's 20-409 KB range, stratified so that every draw covers the range
// evenly.  Each output must be byte-equal to the rendered output of the
// hand-written monolithic sanitizer on the same document.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "apps/Html.h"
#include "vm/Vm.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <random>
#include <stdexcept>

using namespace fast;
using namespace perfbench;

namespace {

constexpr double kMinPageKb = 20, kMaxPageKb = 409;
/// sanitize_distinct: fresh pages per second of run time, in groups of
/// kDistinctStrata.  Every page is sanitized once, so this fixes the run's
/// page count (and its memory, which grows with every distinct page)
/// independently of speed.
constexpr double kDistinctPagesPerSecond = 2;
constexpr size_t kDistinctStrata = 5;
/// sanitize_repeat: the pool cycled for the whole run.  An odd count puts
/// the median inside one page's samples rather than between two pages.
constexpr size_t kRepeatPoolPages = 13;

struct Page {
  std::string Html;
  size_t TargetBytes = 0;
};

/// \p Count pages whose sizes are log-uniform over [20, 409] KB: the range
/// is cut into \p Strata equal strata of log size and page I targets the
/// midpoint of stratum I mod Strata, so every seed sees the same size mix.
/// Several pages per stratum put the latency percentiles inside a group of
/// same-size pages.  The seed picks the pages' content and the order they
/// are sent in.
std::vector<Page> makePages(unsigned Seed, size_t Count, size_t Strata) {
  std::mt19937_64 Rng(Seed * 0x9E3779B97F4A7C15ull + 51);
  const double LogLo = std::log(kMinPageKb), LogHi = std::log(kMaxPageKb);
  std::vector<Page> Pages(Count);
  for (size_t I = 0; I < Count; ++I) {
    double U = (double(I % Strata) + 0.5) / double(Strata);
    double Kb = std::exp(LogLo + U * (LogHi - LogLo));
    Pages[I].TargetBytes = static_cast<size_t>(Kb * 1024);
    Pages[I].Html =
        html::generatePage(Pages[I].TargetBytes, static_cast<unsigned>(Rng()));
  }
  std::shuffle(Pages.begin(), Pages.end(), Rng);
  return Pages;
}

/// The long-lived library state: one session, one compiled sanitizer.
struct SanitizerState {
  std::unique_ptr<Session> S;
  html::Sanitizer San;

  void build() {
    San = html::Sanitizer();
    S = std::make_unique<Session>();
    San = html::buildSanitizer(*S, /*FixBug=*/true);
    std::string WhyNot;
    if (!vm::compiledProgram(*S, *San.Sani, &WhyNot, "sanitizer"))
      throw std::runtime_error("sanitizer is not VM-eligible: " + WhyNot);
  }
};

struct PageOutcome {
  TreeRef Doc = nullptr;
  std::optional<std::string> Out;
};

/// One request: the sanitizeHtmlString path, one span per layer call.
PageOutcome sanitizePage(Session &S, const html::Sanitizer &San,
                         const std::string &Html, uint32_t Req,
                         MetricMap &Layers) {
  LayerCall Request("apps.page", Req);
  PageOutcome R;
  std::string Error;
  {
    size_t NodesBefore = trace::enabled() ? S.Trees.numNodes() : 0;
    LayerCall Call("apps.parse", Req);
    R.Doc = html::parseHtml(S, San.Sig, Html, Error);
    if (trace::enabled() && R.Doc) {
      Layers["trees.parse_nodes_new"] +=
          double(S.Trees.numNodes() - NodesBefore);
      Layers["trees.input_nodes"] += double(R.Doc->size());
    }
  }
  if (!R.Doc)
    return R;
  SttrRunner Runner(*San.Sani, S.Trees);
  {
    LayerCall Call("vm.attach", Req, &S, &Layers);
    vm::attachVm(Runner, S, *San.Sani, "sanitizer");
  }
  SttrRunResult Result;
  {
    LayerCall Call("vm.run", Req, &S, &Layers);
    Result = Runner.runChecked(R.Doc);
  }
  if (Result.Outputs.empty() || Result.Truncated)
    return R;
  LayerCall Call("apps.render", Req);
  R.Out = html::renderHtml(Result.Outputs.front());
  return R;
}

std::string reference(Session &S, const html::Sanitizer &San, TreeRef Doc) {
  return html::renderHtml(html::monolithicSanitize(S, San.Sig, Doc));
}

/// The data path must never reach the solver or the structural
/// interpreter once the sanitizer is compiled.
struct DataPathGuard {
  Session &S;
  uint64_t Queries, Fallbacks;
  explicit DataPathGuard(Session &S)
      : S(S), Queries(S.Solv.stats().Queries),
        Fallbacks(S.stats().vm().FallbackRuns) {}
  void check(RunResult &R) const {
    uint64_t Q = S.Solv.stats().Queries - Queries;
    uint64_t F = S.stats().vm().FallbackRuns - Fallbacks;
    if (Q || F) {
      R.Correct = false;
      R.Notes.push_back("data path issued " + std::to_string(Q) +
                        " solver queries and " + std::to_string(F) +
                        " interpreter fallbacks (both must be 0)");
    }
  }
};

void finishSanitize(RunResult &R, const std::vector<double> &RequestMs,
                    double Bytes) {
  addLatencyMetrics(R, RequestMs);
  // Bytes per request times requests per second of summed request time.
  R.Layers["apps.input_mb_per_s"] = Bytes / 1e6 / double(RequestMs.size()) *
                                    R.EndToEnd["requests_per_s"];
  double Input = R.Layers["trees.input_nodes"];
  R.Layers["trees.intern_hit_frac"] =
      Input > 0 ? 1.0 - R.Layers["trees.parse_nodes_new"] / Input : 0;
}

} // namespace

RunResult perfbench::runSanitizeDistinct(const Options &O) {
  RunResult R;
  size_t Groups = static_cast<size_t>(std::max(
      1.0, std::round(O.Seconds * kDistinctPagesPerSecond / kDistinctStrata)));
  std::vector<Page> Pages =
      makePages(O.Seed, Groups * kDistinctStrata, kDistinctStrata);

  SanitizerState St;
  R.EndToEnd["setup_s"] = medianSetupSeconds([&] { St.build(); });
  Session &S = *St.S;

  DataPathGuard Guard(S);
  std::vector<double> RequestMs;
  double Bytes = 0;
  TracedLoop Tracing(O.Trace);
  Clock::time_point Start = Clock::now();
  for (size_t I = 0; I < Pages.size(); ++I) {
    if (msBetween(Start, Clock::now()) >= O.Seconds * 1000)
      break;
    Clock::time_point T0 = Clock::now();
    PageOutcome Out = sanitizePage(S, St.San, Pages[I].Html, uint32_t(I),
                                   R.Layers);
    RequestMs.push_back(msBetween(T0, Clock::now()));
    Bytes += double(Pages[I].Html.size());
    ++R.Attempted;
    // Outside the timed request: the independent reference.
    if (!Out.Out || *Out.Out != reference(S, St.San, Out.Doc))
      ++R.Failed;
    speedProbe().tick();
  }
  R.EndToEnd["peak_rss_mb"] = peakRssMb();
  Guard.check(R);
  finishSanitize(R, RequestMs, Bytes);
  R.Notes.push_back(std::to_string(R.Attempted) + " of " +
                    std::to_string(Pages.size()) +
                    " distinct pages checked byte-equal against the "
                    "monolithic sanitizer");
  return R;
}

RunResult perfbench::runSanitizeRepeat(const Options &O) {
  RunResult R;
  std::vector<Page> Pages =
      makePages(O.Seed, kRepeatPoolPages, kRepeatPoolPages);

  // Set-up includes one warm-up pass over the pool: after it every input
  // and output tree is interned and the VM's lookahead memo is warm.
  SanitizerState St;
  MetricMap WarmLayers;
  R.EndToEnd["setup_s"] = medianSetupSeconds([&] {
    St.build();
    for (const Page &P : Pages)
      sanitizePage(*St.S, St.San, P.Html, 0, WarmLayers);
  });
  Session &S = *St.S;

  std::vector<std::string> References;
  for (const Page &P : Pages) {
    std::string Error;
    References.push_back(
        reference(S, St.San, html::parseHtml(S, St.San.Sig, P.Html, Error)));
  }

  DataPathGuard Guard(S);
  std::vector<double> RequestMs;
  double Bytes = 0;
  TracedLoop Tracing(O.Trace);
  Clock::time_point Start = Clock::now();
  // Whole passes over the pool only, so every page weighs the same in the
  // latency percentiles.
  for (uint32_t I = 0; I % Pages.size() != 0 ||
                       msBetween(Start, Clock::now()) < O.Seconds * 1000;
       ++I) {
    const size_t K = I % Pages.size();
    Clock::time_point T0 = Clock::now();
    PageOutcome Out = sanitizePage(S, St.San, Pages[K].Html, I, R.Layers);
    RequestMs.push_back(msBetween(T0, Clock::now()));
    Bytes += double(Pages[K].Html.size());
    ++R.Attempted;
    if (!Out.Out || *Out.Out != References[K])
      ++R.Failed;
    speedProbe().tick();
  }
  R.EndToEnd["peak_rss_mb"] = peakRssMb();
  Guard.check(R);
  finishSanitize(R, RequestMs, Bytes);
  R.Notes.push_back(std::to_string(R.Attempted) + " requests over a pool of " +
                    std::to_string(Pages.size()) +
                    " pages checked byte-equal against the monolithic "
                    "sanitizer");
  return R;
}
