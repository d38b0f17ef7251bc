//===- tests/obs/TracerTest.cpp - Observability layer tests ---------------===//
//
// Unit tests for the tracing/profiling layer: the latency histogram's
// bucketing and percentiles, the slow-query log's worst-K admission, the
// two file sinks' output formats (validated with the same JSON parser
// trace_check uses), span balancing on close, and the attribution of
// counter deltas to the innermost construction span.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "checks/JsonCheck.h"
#include "engine/Stats.h"
#include "obs/Histogram.h"
#include "obs/SlowQueryLog.h"
#include "obs/TraceSink.h"
#include "obs/Tracer.h"

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace fast;
using namespace fast::obs;

namespace {

std::string slurp(const std::string &Path) {
  std::ifstream File(Path);
  std::stringstream Buffer;
  Buffer << File.rdbuf();
  return Buffer.str();
}

std::string tempPath(const char *Name) {
  return ::testing::TempDir() + Name;
}

TEST(HistogramTest, BucketsAndPercentiles) {
  LatencyHistogram H;
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.percentileUs(50), 0);

  // 90 fast samples and 10 slow ones: p50 sits in the fast bucket, p95
  // and p99 in the slow one, and max is exact.
  for (int I = 0; I < 90; ++I)
    H.record(3.0);
  for (int I = 0; I < 10; ++I)
    H.record(1000.0);
  EXPECT_EQ(H.count(), 100u);
  EXPECT_DOUBLE_EQ(H.maxUs(), 1000.0);
  EXPECT_GE(H.percentileUs(50), 2.0);
  EXPECT_LT(H.percentileUs(50), 8.0);
  EXPECT_GE(H.percentileUs(95), 512.0);
  EXPECT_LE(H.percentileUs(95), 1000.0);
  EXPECT_LE(H.percentileUs(99), H.maxUs());
  EXPECT_GE(H.percentileUs(99), H.percentileUs(50));

  // The JSON rendering parses and carries every field.
  auto Parsed = json::parse(H.json());
  ASSERT_TRUE(Parsed.has_value());
  ASSERT_TRUE(Parsed->isObject());
  for (const char *Key : {"count", "mean_us", "p50_us", "p95_us", "p99_us",
                          "max_us"}) {
    const json::Value *V = Parsed->find(Key);
    ASSERT_NE(V, nullptr) << Key;
    EXPECT_TRUE(V->isNumber()) << Key;
  }
  EXPECT_EQ(Parsed->find("count")->Num, 100.0);
}

TEST(HistogramTest, MergeAndSubMicrosecond) {
  LatencyHistogram A, B;
  A.record(0.2); // Sub-microsecond bucket.
  B.record(100.0);
  A.merge(B);
  EXPECT_EQ(A.count(), 2u);
  EXPECT_DOUBLE_EQ(A.percentileUs(25), 0.5);
  EXPECT_DOUBLE_EQ(A.maxUs(), 100.0);
}

TEST(SlowQueryLogTest, KeepsWorstK) {
  SlowQueryLog Log(3);
  int Prints = 0;
  auto Record = [&](double Us) {
    Log.record(Us, "isSat", "det", [&] {
      ++Prints;
      return "q" + std::to_string(static_cast<int>(Us));
    });
  };
  for (double Us : {10.0, 50.0, 20.0, 5.0, 90.0, 1.0})
    Record(Us);

  auto Sorted = Log.sorted();
  ASSERT_EQ(Sorted.size(), 3u);
  EXPECT_DOUBLE_EQ(Sorted[0].Us, 90.0);
  EXPECT_DOUBLE_EQ(Sorted[1].Us, 50.0);
  EXPECT_DOUBLE_EQ(Sorted[2].Us, 20.0);
  EXPECT_EQ(Sorted[0].Query, "q90");
  EXPECT_EQ(Sorted[0].Construction, "det");

  // 5.0 and 1.0 never qualified once the log was full of slower entries,
  // so their print callbacks must not have run.
  EXPECT_EQ(Prints, 4);
  EXPECT_FALSE(Log.qualifies(2.0));
  EXPECT_TRUE(Log.qualifies(25.0));

  std::string Report = Log.report();
  EXPECT_NE(Report.find("q90"), std::string::npos);
  EXPECT_NE(Report.find("det"), std::string::npos);
}

TEST(SlowQueryLogTest, ZeroCapacityAdmitsNothing) {
  SlowQueryLog Log(0);
  int Prints = 0;
  Log.record(1e9, "isSat", "", [&] {
    ++Prints;
    return "never";
  });
  EXPECT_TRUE(Log.empty());
  EXPECT_EQ(Prints, 0);
  EXPECT_EQ(Log.report(), "");
}

/// In-memory sink capturing deep copies of every event.
struct CaptureSink : TraceSink {
  struct Captured {
    char Phase;
    std::string Name;
    std::string Category;
    double TsUs;
    std::vector<TraceAttr> Attrs;
  };
  std::vector<Captured> &Events;
  explicit CaptureSink(std::vector<Captured> &Events) : Events(Events) {}
  void event(const TraceEvent &E) override {
    Events.push_back({E.Phase,
                      std::string(E.Name),
                      std::string(E.Category),
                      E.TsUs,
                      {E.Attrs.begin(), E.Attrs.end()}});
  }
};

const TraceAttr *findAttr(const std::vector<TraceAttr> &Attrs,
                          std::string_view Key) {
  for (const TraceAttr &A : Attrs)
    if (A.Key == Key)
      return &A;
  return nullptr;
}

TEST(TracerTest, InactiveByDefaultAndSpanApiIsNoop) {
  Tracer T;
  EXPECT_FALSE(T.active());
  T.beginSpan("x", "test");
  EXPECT_EQ(T.openSpans(), 0u);
  T.endSpan();
  T.instant("y", "test");
}

TEST(TracerTest, ChromeSinkWritesValidBalancedJson) {
  Tracer T;
  const std::string Path = tempPath("tracer_chrome.json");
  ASSERT_TRUE(T.openTrace(Path));
  EXPECT_TRUE(T.active());

  T.beginSpan("outer", "test");
  T.beginSpan("inner", "test");
  const TraceAttr InnerAttrs[] = {attr("items", uint64_t(7)),
                                  attr("label", "a\"b")};
  T.endSpan(InnerAttrs);
  double Start = T.nowUs();
  T.complete("leaf", "solver", Start);
  T.instant("beat", "progress");
  T.endSpan();
  T.closeTrace();
  EXPECT_FALSE(T.active());

  auto Parsed = json::parse(slurp(Path));
  ASSERT_TRUE(Parsed.has_value());
  ASSERT_TRUE(Parsed->isArray());
  ASSERT_EQ(Parsed->Items.size(), 6u);

  // B/E balance with matching names, in file order.
  std::vector<std::string> Stack;
  double LastTs = -1;
  for (const json::Value &E : Parsed->Items) {
    ASSERT_TRUE(E.isObject());
    const json::Value *Ph = E.find("ph");
    const json::Value *Name = E.find("name");
    const json::Value *Ts = E.find("ts");
    ASSERT_NE(Ph, nullptr);
    ASSERT_NE(Name, nullptr);
    ASSERT_NE(Ts, nullptr);
    EXPECT_GE(Ts->Num, LastTs);
    LastTs = Ts->Num;
    if (Ph->Str == "B") {
      Stack.push_back(Name->Str);
    } else if (Ph->Str == "E") {
      ASSERT_FALSE(Stack.empty());
      EXPECT_EQ(Stack.back(), Name->Str);
      Stack.pop_back();
    }
  }
  EXPECT_TRUE(Stack.empty());

  // The inner end event carries its attributes, with the quote escaped
  // and round-tripped by the parser.
  const json::Value &InnerEnd = Parsed->Items[2];
  EXPECT_EQ(InnerEnd.find("ph")->Str, "E");
  const json::Value *Args = InnerEnd.find("args");
  ASSERT_NE(Args, nullptr);
  EXPECT_EQ(Args->find("items")->Num, 7.0);
  EXPECT_EQ(Args->find("label")->Str, "a\"b");

  // The leaf 'X' event has a duration.
  const json::Value &Leaf = Parsed->Items[3];
  EXPECT_EQ(Leaf.find("ph")->Str, "X");
  ASSERT_NE(Leaf.find("dur"), nullptr);
  EXPECT_GE(Leaf.find("dur")->Num, 0.0);
}

TEST(TracerTest, CloseBalancesOpenSpans) {
  Tracer T;
  const std::string Path = tempPath("tracer_unbalanced.json");
  ASSERT_TRUE(T.openTrace(Path));
  T.beginSpan("left", "test");
  T.beginSpan("open", "test");
  T.closeTrace(); // Must end both spans before closing the array.

  auto Parsed = json::parse(slurp(Path));
  ASSERT_TRUE(Parsed.has_value());
  ASSERT_TRUE(Parsed->isArray());
  int Depth = 0;
  for (const json::Value &E : Parsed->Items) {
    const std::string &Ph = E.find("ph")->Str;
    if (Ph == "B")
      ++Depth;
    else if (Ph == "E")
      --Depth;
    EXPECT_GE(Depth, 0);
  }
  EXPECT_EQ(Depth, 0);
}

TEST(TracerTest, JsonlStreamsAndFlushesPerEvent) {
  Tracer T;
  const std::string Path = tempPath("tracer_stream.jsonl");
  ASSERT_TRUE(T.openTrace(Path));
  T.instant("first", "test");

  // Flushed per event: the line is on disk before the trace is closed,
  // which is what makes crash repro traces usable.
  std::string Early = slurp(Path);
  ASSERT_NE(Early.find("\"first\""), std::string::npos);
  auto FirstLine = json::parse(Early.substr(0, Early.find('\n')));
  ASSERT_TRUE(FirstLine.has_value());
  EXPECT_EQ(FirstLine->find("name")->Str, "first");

  T.beginSpan("span", "test");
  T.endSpan();
  T.closeTrace();

  // Every line is one standalone JSON object.
  std::istringstream Lines(slurp(Path));
  std::string Line;
  size_t Count = 0;
  while (std::getline(Lines, Line)) {
    if (Line.empty())
      continue;
    auto Parsed = json::parse(Line);
    ASSERT_TRUE(Parsed.has_value()) << Line;
    EXPECT_TRUE(Parsed->isObject());
    ++Count;
  }
  EXPECT_EQ(Count, 3u);
}

TEST(TracerTest, NestedConstructionsAttributeToInnermostSpan) {
  Tracer T;
  std::vector<CaptureSink::Captured> Events;
  T.setSink(std::make_unique<CaptureSink>(Events));

  engine::StatsRegistry Registry;
  Registry.setTracer(&T);
  {
    engine::ConstructionScope Outer(Registry, "outer");
    Registry.current()->StatesExplored += 2;
    {
      engine::ConstructionScope Inner(Registry, "inner");
      EXPECT_EQ(T.currentConstruction().view(), "inner");
      // Counters recorded while "inner" is innermost land on its span.
      Registry.current()->StatesExplored += 5;
      Registry.current()->RulesEmitted += 3;
    }
    EXPECT_EQ(T.currentConstruction().view(), "outer");
    Registry.current()->StatesExplored += 1;
  }
  EXPECT_EQ(T.currentConstruction().view(), "");
  T.setSink(nullptr);

  ASSERT_EQ(Events.size(), 4u); // B outer, B inner, E inner, E outer.
  EXPECT_EQ(Events[0].Phase, 'B');
  EXPECT_EQ(Events[0].Name, "outer");
  EXPECT_EQ(Events[0].Category, "construction");
  EXPECT_EQ(Events[1].Name, "inner");
  EXPECT_EQ(Events[2].Phase, 'E');
  EXPECT_EQ(Events[2].Name, "inner");
  EXPECT_EQ(Events[3].Name, "outer");

  const TraceAttr *InnerDelta = findAttr(Events[2].Attrs, "states_explored");
  ASSERT_NE(InnerDelta, nullptr);
  EXPECT_EQ(InnerDelta->Bits, 5u);
  EXPECT_EQ(findAttr(Events[2].Attrs, "rules_emitted")->Bits, 3u);

  // The outer span's delta covers only its own counters (2 + 1), not the
  // nested construction's.
  const TraceAttr *OuterDelta = findAttr(Events[3].Attrs, "states_explored");
  ASSERT_NE(OuterDelta, nullptr);
  EXPECT_EQ(OuterDelta->Bits, 3u);
}

TEST(JsonCheckTest, ParsesAndRejects) {
  auto Good = json::parse(
      R"({"a": [1, 2.5, -3], "b": {"c": "x\ny"}, "d": true, "e": null})");
  ASSERT_TRUE(Good.has_value());
  EXPECT_EQ(Good->find("a")->Items.size(), 3u);
  EXPECT_DOUBLE_EQ(Good->find("a")->Items[1].Num, 2.5);
  EXPECT_EQ(Good->find("b")->find("c")->Str, "x\ny");
  EXPECT_TRUE(Good->find("d")->B);

  std::string Error;
  EXPECT_FALSE(json::parse("{\"a\": }", &Error).has_value());
  EXPECT_FALSE(Error.empty());
  EXPECT_FALSE(json::parse("[1, 2", nullptr).has_value());
  EXPECT_FALSE(json::parse("{} trailing", nullptr).has_value());
}

} // namespace
