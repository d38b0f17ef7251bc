//===- tests/obs/MetricsTest.cpp - Telemetry plane: metrics ---------------===//
//
// Covers MetricsSnapshot exposition (the versioned JSON document with
// timing-family exclusion, and the --stats text), the bridged session
// snapshot's subsystem coverage, the exit-time metrics file writer, and
// the snapshot's -j1 == -j4 determinism.
//
//===----------------------------------------------------------------------===//

#include "checks/JsonCheck.h"
#include "engine/MetricsBridge.h"
#include "fast/Fast.h"
#include "obs/Metrics.h"
#include "transducers/Session.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

using namespace fast;
using fast::obs::LatencyHistogram;
using fast::obs::MetricFamily;
using fast::obs::MetricKind;
using fast::obs::MetricSample;
using fast::obs::MetricsSnapshot;

namespace {

/// The whole file, or "" when it cannot be opened.
std::string slurp(const std::string &Path) {
  std::ifstream In(Path);
  std::stringstream Text;
  Text << In.rdbuf();
  return Text.str();
}

/// Appends \p Sample to the family \p Name, creating it on first use; as in
/// every production family, a histogram is timing and a counter is not.
void add(MetricsSnapshot &Snap, MetricKind Kind, const char *Name,
         const char *Help, MetricSample Sample) {
  Snap.family(Name, Kind, Help, Kind == MetricKind::Histogram)
      .Samples.push_back(std::move(Sample));
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

TEST(MetricsSnapshotTest, JsonExpositionParses) {
  MetricsSnapshot Snap;
  add(Snap, MetricKind::Counter, "fast_runs_total", "Total \"quoted\" runs",
      {{}, 3, {}});
  LatencyHistogram H;
  H.record(1);
  H.record(9);
  add(Snap, MetricKind::Histogram, "fast_op_us", "Op latency", {{}, 0, H});
  add(Snap, MetricKind::Counter, "fast_steps_total", "Steps by phase",
      {{{"phase", "explore"}}, 7, {}});

  std::string Error;
  auto Doc = fast::obs::json::parse(Snap.json(), &Error);
  ASSERT_TRUE(Doc.has_value()) << Error;
  const auto *Schema = Doc->find("schema_version");
  ASSERT_NE(Schema, nullptr);
  EXPECT_EQ(Schema->Num, MetricsSnapshot::SchemaVersion);
  const auto *Families = Doc->find("families");
  ASSERT_NE(Families, nullptr);
  ASSERT_TRUE(Families->isArray());
  ASSERT_EQ(Families->Items.size(), 3u);

  const auto &Runs = Families->Items[0];
  EXPECT_EQ(Runs.find("type")->Str, "counter");
  EXPECT_EQ(Runs.find("help")->Str, "Total \"quoted\" runs");
  EXPECT_FALSE(Runs.find("timing")->B);
  EXPECT_EQ(Runs.find("samples")->Items[0].find("value")->Num, 3);

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

  // A labelled sample keeps its label pairs.
  const auto &Steps = Families->Items[2].find("samples")->Items[0];
  EXPECT_EQ(Steps.find("labels")->find("phase")->Str, "explore");
  EXPECT_EQ(Steps.find("value")->Num, 7);

  // Timing exclusion drops the histogram but keeps the logical counters —
  // this is what makes -j1 vs -j4 byte-comparison possible.
  std::string NoTiming = Snap.json(/*IncludeTiming=*/false);
  EXPECT_EQ(NoTiming.find("fast_op_us"), std::string::npos);
  auto Kept = fast::obs::json::parse(NoTiming, &Error);
  ASSERT_TRUE(Kept.has_value()) << Error;
  const auto &KeptFamilies = Kept->find("families")->Items;
  ASSERT_EQ(KeptFamilies.size(), 2u);
  EXPECT_EQ(KeptFamilies[0].find("name")->Str, "fast_runs_total");
  EXPECT_EQ(KeptFamilies[1].find("name")->Str, "fast_steps_total");
}

TEST(MetricsSnapshotTest, TextPrintsOneLinePerFamily) {
  MetricsSnapshot Snap;
  add(Snap, MetricKind::Counter, "fast_runs_total", "Total runs", {{}, 3, {}});
  add(Snap, MetricKind::Counter, "fast_steps_total", "Steps by phase",
      {{{"phase", "clean"}}, 13, {}});
  add(Snap, MetricKind::Counter, "fast_steps_total", "Steps by phase",
      {{{"phase", "determinize"}}, 20, {}});
  LatencyHistogram H;
  for (int I = 0; I < 5; ++I) {
    H.record(3);      // bucket [2,4)us: p50 is its midpoint 3
    H.record(100.25); // bucket [64,128)us: p95 and p99 are its midpoint 96
  }
  add(Snap, MetricKind::Histogram, "fast_op_us", "Op latency", {{}, 0, H});

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

TEST(StatsShimTest, WriteMetricsFileLeavesTheJsonDocument) {
  Session S;
  FastProgramResult R = runFastProgram(S, statsProgram());
  ASSERT_EQ(R.ErrorCount, 0u) << R.DiagText;

  // The extension is no format switch: the file is the JSON document.
  const std::string Path = testing::TempDir() + "/write_metrics.prom";
  std::remove(Path.c_str());
  ASSERT_TRUE(engine::writeMetricsFile(S.engine(), Path));
  MetricsSnapshot Snap;
  engine::collectSessionMetrics(S.engine(), Snap);
  EXPECT_EQ(slurp(Path), Snap.json());
  EXPECT_FALSE(std::filesystem::exists(Path + ".tmp")) << "tmp left behind";

  EXPECT_FALSE(engine::writeMetricsFile(
      S.engine(), testing::TempDir() + "/no_such_dir/metrics.json"));
}

// "Parallel"-prefixed so the TSan preset's ctest filter picks it up.

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
    return Snap.json(/*IncludeTiming=*/false);
  };
  EXPECT_EQ(Expose(1), Expose(4));
}

} // namespace
