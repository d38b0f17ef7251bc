//===- tests/obs/MetricsTest.cpp - Telemetry plane: metrics ---------------===//
//
// Covers MetricsSnapshot exposition (Prometheus text v0.0.4, the versioned
// JSON document, timing-family exclusion, the --stats text), the bridged
// session snapshot's subsystem coverage, its -j1 == -j4 determinism, and
// the periodic file flusher writing valid, monotone snapshots while a -j 4
// run mutates the counters it reads.
//
//===----------------------------------------------------------------------===//

#include "checks/JsonCheck.h"
#include "checks/MetricsCheck.h"
#include "engine/MetricsBridge.h"
#include "fast/Fast.h"
#include "obs/Metrics.h"
#include "transducers/Session.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

using namespace fast;
using fast::obs::LatencyHistogram;
using fast::obs::MetricFamily;
using fast::obs::MetricKind;
using fast::obs::MetricsSnapshot;
namespace mc = fast::obs::metricscheck;

namespace {

/// The whole file, or "" when it cannot be opened.
std::string slurp(const std::string &Path) {
  std::ifstream In(Path);
  std::stringstream Text;
  Text << In.rdbuf();
  return Text.str();
}

/// Figure 8's analysis plus a pass/fail assertion batch — enough work to
/// populate engine, solver, and (when eligible) VM statistics.
const char *statsProgram() {
  return "type IList[i : Int] { nil(0), cons(1) }\n"
         "trans map_caesar : IList -> IList {\n"
         "  nil() to (nil [0])\n"
         "| cons(y) to (cons [(i + 5) % 26] (map_caesar y))\n"
         "}\n"
         "trans filter_ev : IList -> IList {\n"
         "  nil() to (nil [0])\n"
         "| cons(y) where (i % 2 = 0) to (cons [i] (filter_ev y))\n"
         "| cons(y) where !(i % 2 = 0) to (filter_ev y)\n"
         "}\n"
         "def comp : IList -> IList := (compose map_caesar filter_ev)\n"
         "lang not_emp_list : IList { cons(x) }\n"
         "assert-false (is-empty (restrict-out comp not_emp_list))\n"
         "tree sample : IList := (cons [1] (cons [2] (nil [0])))\n"
         "tree mapped : IList := (apply comp sample)\n"
         "assert-true mapped in not_emp_list\n";
}

TEST(MetricsSnapshotTest, PrometheusExposition) {
  MetricsSnapshot Snap;
  Snap.addCounter("fast_runs_total", "Total runs", 3);
  Snap.addGauge("fast_active", "Active now", 1);
  LatencyHistogram H;
  H.record(0.5); // bucket 0 (< 1us)
  H.record(3);   // bucket 2 ([2,4)us)
  H.record(3.5);
  Snap.addHistogram("fast_op_us", "Op latency", H);
  // Labelled sample via the family API.
  MetricFamily &F = Snap.family("fast_steps_total", MetricKind::Counter,
                                "Steps by phase");
  F.Samples.push_back({{{"phase", "explore"}}, 7, {}});

  std::string Text = Snap.prometheus();
  EXPECT_NE(Text.find("# TYPE fast_runs_total counter\n"), std::string::npos);
  EXPECT_NE(Text.find("fast_runs_total 3\n"), std::string::npos);
  EXPECT_NE(Text.find("# TYPE fast_active gauge\n"), std::string::npos);
  EXPECT_NE(Text.find("# TYPE fast_op_us histogram\n"), std::string::npos);
  // Timing family marker (histograms default to timing).
  EXPECT_NE(Text.find("# TIMING fast_op_us\n"), std::string::npos);
  // Cumulative buckets: le="1" holds the sub-microsecond sample, le="4"
  // accumulates all three; +Inf equals _count.
  EXPECT_NE(Text.find("fast_op_us_bucket{le=\"1\"} 1\n"), std::string::npos);
  EXPECT_NE(Text.find("fast_op_us_bucket{le=\"4\"} 3\n"), std::string::npos);
  EXPECT_NE(Text.find("fast_op_us_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(Text.find("fast_op_us_count 3\n"), std::string::npos);
  EXPECT_NE(Text.find("fast_steps_total{phase=\"explore\"} 7\n"),
            std::string::npos);

  // Timing exclusion drops the histogram but keeps the logical counters —
  // this is what makes -j1 vs -j4 byte-comparison possible.
  std::string NoTiming = Snap.prometheus(/*IncludeTiming=*/false);
  EXPECT_EQ(NoTiming.find("fast_op_us"), std::string::npos);
  EXPECT_NE(NoTiming.find("fast_runs_total 3\n"), std::string::npos);
}

TEST(MetricsSnapshotTest, JsonExpositionParses) {
  MetricsSnapshot Snap;
  Snap.addCounter("fast_runs_total", "Total \"quoted\" runs", 3);
  LatencyHistogram H;
  H.record(1);
  H.record(9);
  Snap.addHistogram("fast_op_us", "Op latency", H);

  std::string Error;
  auto Doc = fast::obs::json::parse(Snap.json(), &Error);
  ASSERT_TRUE(Doc.has_value()) << Error;
  const auto *Schema = Doc->find("schema_version");
  ASSERT_NE(Schema, nullptr);
  EXPECT_EQ(Schema->Num, MetricsSnapshot::SchemaVersion);
  const auto *Families = Doc->find("families");
  ASSERT_NE(Families, nullptr);
  ASSERT_TRUE(Families->isArray());
  ASSERT_EQ(Families->Items.size(), 2u);

  const auto &Hist = Families->Items[1];
  EXPECT_EQ(Hist.find("type")->Str, "histogram");
  EXPECT_TRUE(Hist.find("timing")->B);
  const auto &Sample = Hist.find("samples")->Items[0];
  EXPECT_EQ(Sample.find("count")->Num, 2);
  // Raw per-bucket counts sum exactly to count.
  double Sum = 0;
  for (const auto &B : Sample.find("buckets")->Items)
    Sum += B.Num;
  EXPECT_EQ(Sum, 2);
}

TEST(MetricsSnapshotTest, TextPrintsOneLinePerFamily) {
  MetricsSnapshot Snap;
  Snap.addCounter("fast_runs_total", "Total runs", 3);
  MetricFamily &F = Snap.family("fast_steps_total", MetricKind::Counter,
                                "Steps by phase");
  F.Samples.push_back({{{"phase", "clean"}}, 13, {}});
  F.Samples.push_back({{{"phase", "determinize"}}, 20, {}});
  LatencyHistogram H;
  for (int I = 0; I < 5; ++I) {
    H.record(3);      // bucket [2,4)us: p50 is its midpoint 3
    H.record(100.25); // bucket [64,128)us: p95 and p99 are its midpoint 96
  }
  Snap.addHistogram("fast_op_us", "Op latency", H);

  EXPECT_EQ(Snap.text(), "fast_runs_total 3\n"
                         "fast_steps_total clean=13 determinize=20\n"
                         "fast_op_us 10/3/96/96/100.250\n");
}

TEST(StatsShimTest, SnapshotCoversAllSubsystems) {
  Session S;
  FastProgramResult R = runFastProgram(S, statsProgram());
  ASSERT_EQ(R.ErrorCount, 0u) << R.DiagText;

  MetricsSnapshot Snap;
  engine::collectSessionMetrics(S.engine(), Snap);
  EXPECT_NE(Snap.find("fast_engine_runs_total"), nullptr);
  EXPECT_NE(Snap.find("fast_solver_queries_total"), nullptr);
  EXPECT_NE(Snap.find("fast_vm_runs_total"), nullptr);
  // The Fast driver's program counters live in the stats registry.
  S.stats().program().Runs += 2;
  S.stats().program().AssertionsFailed += 1;
  MetricsSnapshot Program;
  engine::collectSessionMetrics(S.engine(), Program);
  EXPECT_EQ(Program.find("fast_program_runs_total")->Samples[0].Value, 2.0);
  EXPECT_EQ(Program.find("fast_assertions_failed_total")->Samples[0].Value,
            1.0);
  EXPECT_EQ(Program.find("fast_assertions_total")->Samples[0].Value, 0.0);

  // Engine counters carry the construction label and real work.
  const MetricFamily *Runs = Snap.find("fast_engine_runs_total");
  double Total = 0;
  for (const auto &Sample : Runs->Samples) {
    ASSERT_EQ(Sample.Labels.size(), 1u);
    EXPECT_EQ(Sample.Labels[0].first, "construction");
    Total += Sample.Value;
  }
  EXPECT_GT(Total, 0);
}

// "Parallel"-prefixed so the TSan preset's ctest filter picks these up.

TEST(ParallelMetricsTest, SnapshotsAreByteIdenticalAcrossThreadCounts) {
  // The determinism contract of the whole plane: a -j1 run and a -j4 run
  // of the same program expose byte-identical non-timing metrics.
  auto Expose = [](unsigned Threads) {
    Session S;
    FastRunOptions Opts;
    Opts.Threads = Threads;
    FastProgramResult R = runFastProgram(S, statsProgram(), Opts);
    EXPECT_EQ(R.ErrorCount, 0u) << R.DiagText;
    MetricsSnapshot Snap;
    engine::collectSessionMetrics(S.engine(), Snap);
    return std::pair{Snap.prometheus(/*IncludeTiming=*/false),
                     Snap.json(/*IncludeTiming=*/false)};
  };
  auto [Prom1, Json1] = Expose(1);
  auto [Prom4, Json4] = Expose(4);
  EXPECT_EQ(Prom1, Prom4);
  EXPECT_EQ(Json1, Json4);
}

TEST(ParallelMetricsTest, PeriodicFlushesStayValidAndMonotoneDuringARun) {
  // The flusher thread collects the session metrics every millisecond
  // while a 4-thread run creates construction slots and merges worker
  // counters.  Every file a concurrent reader opens must be one complete
  // snapshot (tmp + rename), and consecutive reads must never show a
  // non-timing counter going backwards.
  const std::string Path = testing::TempDir() + "/parallel_flush.prom";
  const std::string Tmp = Path + ".tmp";
  std::remove(Path.c_str());
  std::remove(Tmp.c_str());

  Session S;
  engine::MetricsFileFlusher Flusher;
  Flusher.start(S.engine(), Path, /*IntervalMs=*/1);
  ASSERT_TRUE(Flusher.running());

  std::atomic<bool> Done{false};
  std::string Failure;
  size_t Reads = 0;
  std::thread Reader([&] {
    mc::Document Prev;
    while (!Done.load() && Failure.empty()) {
      mc::Document Doc;
      std::string Error;
      size_t Counters = 0, Histograms = 0, Compared = 0;
      // The bridge emits this family last, so a read without its sample
      // saw a missing or truncated file.
      const char *Last = "fast_program_runs_total";
      const std::string Read = "read " + std::to_string(Reads);
      if (!mc::loadText(slurp(Path), /*Json=*/false, Doc, Error) ||
          !mc::validate(Doc, Error, Counters, Histograms))
        Failure = Read + " invalid: " + Error;
      else if (!Doc.Families.count(Last) ||
               Doc.Families[Last].Scalars.empty())
        Failure = Read + " is truncated";
      else if (Reads && !mc::checkMonotone(Prev, Doc, Error, Compared))
        Failure = Read + " regressed: " + Error;
      Prev = std::move(Doc);
      ++Reads;
    }
  });

  FastRunOptions Opts;
  Opts.Threads = 4;
  FastProgramResult R = runFastProgram(S, statsProgram(), Opts);
  Done.store(true);
  Reader.join();
  Flusher.stop();

  EXPECT_EQ(R.ErrorCount, 0u) << R.DiagText;
  EXPECT_TRUE(Failure.empty()) << Failure;
  EXPECT_GT(Reads, 0u);
  EXPECT_GT(Flusher.flushCount(), 1u);
  EXPECT_FALSE(std::filesystem::exists(Tmp)) << Tmp << " left behind";

  // stop()'s final flush leaves the settled session's snapshot on disk.
  MetricsSnapshot Final;
  engine::collectSessionMetrics(S.engine(), Final);
  EXPECT_EQ(slurp(Path), Final.prometheus());
}

} // namespace
