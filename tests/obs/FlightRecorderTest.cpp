//===- tests/obs/FlightRecorderTest.cpp - Always-on incident ring ---------===//
//
// Covers the flight-recorder ring as a consumer of the Tracer's one event
// stream: ring semantics (wrap, eviction accounting, capacity rounding,
// disarmed no-ops), the Chrome-trace dump (metadata record, dump-once
// incident freezing, the payload each hook's event keeps), and the
// parallel contract: worker events replayed at the join point reach the
// ring in task-index order on lane 2 + task, so the ring is the tail of
// what the sink saw and digests identically at any thread count.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "checks/JsonCheck.h"
#include "fast/Fast.h"
#include "obs/Report.h"
#include "obs/Tracer.h"
#include "transducers/Parallel.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

using namespace fast;
using namespace fast::test;
using fast::obs::FlightRecorder;
using fast::obs::Tracer;
namespace json = fast::obs::json;

namespace {

/// Parses a dump, asserting it is a JSON array with the metadata record
/// first.
json::Value parseDump(const std::string &Text) {
  std::string Error;
  auto Doc = json::parse(Text, &Error);
  EXPECT_TRUE(Doc.has_value()) << Error;
  if (!Doc || !Doc->isArray() || Doc->Items.empty())
    return json::Value();
  EXPECT_EQ(Doc->Items[0].find("name")->Str, "flight_recorder");
  return *Doc;
}

json::Value dumpOf(const FlightRecorder &FR) {
  std::ostringstream Out;
  FR.dumpTo(Out, "test");
  return parseDump(Out.str());
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path);
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

TEST(FlightRecorderTest, DisarmedRecordingIsANoop) {
  Tracer T;
  EXPECT_FALSE(T.active());
  T.instant("tick", "test");
  const FlightRecorder &FR = T.recorder();
  EXPECT_FALSE(FR.armed());
  EXPECT_EQ(FR.recordedCount(), 0u);
  EXPECT_EQ(FR.size(), 0u);
  // Dumping while disarmed writes nothing.
  EXPECT_FALSE(T.recorder().dumpIncident("nothing happened"));
  EXPECT_FALSE(T.recorder().dumpFinal());
  // Arming alone makes the tracer active.
  T.armRecorder("", 8);
  EXPECT_TRUE(T.active());
}

TEST(FlightRecorderTest, RingWrapsAndCountsEvictions) {
  Tracer T;
  T.armRecorder("", /*Capacity=*/8);
  const FlightRecorder &FR = T.recorder();
  EXPECT_EQ(FR.capacity(), 8u);
  for (uint64_t I = 0; I < 20; ++I) {
    const obs::TraceAttr Attrs[] = {obs::attr("i", I)};
    T.instant("tick", "test", Attrs);
  }
  EXPECT_EQ(FR.recordedCount(), 20u);
  EXPECT_EQ(FR.size(), 8u);
  EXPECT_EQ(FR.droppedCount(), 12u);

  // The ring holds the *last* 8 events: the dump carries args 12..19.
  json::Value Doc = dumpOf(FR);
  ASSERT_EQ(Doc.Items.size(), 9u); // metadata + 8 events
  EXPECT_EQ(Doc.Items[0].find("args")->find("dropped")->Num, 12);
  EXPECT_EQ(Doc.Items[1].find("args")->find("i")->Num, 12);
  EXPECT_EQ(Doc.Items[8].find("args")->find("i")->Num, 19);
}

TEST(FlightRecorderTest, CapacityRoundsUpToPowerOfTwo) {
  Tracer T;
  T.armRecorder("", /*Capacity=*/100);
  EXPECT_EQ(T.recorder().capacity(), 128u);
  // The default budget: 64K events, 4 MiB of 64-byte slots.
  Tracer D;
  D.armRecorder("", FlightRecorder::DefaultCapacity);
  EXPECT_EQ(D.recorder().capacity(), size_t(1) << 16);
  EXPECT_EQ(D.recorder().capacity() * sizeof(FlightRecorder::Slot),
            size_t(4) << 20);
}

TEST(FlightRecorderTest, DumpCarriesMetadataRecordFirst) {
  Tracer T;
  T.armRecorder("", 16);
  T.beginSpan("compose", "construction");
  const obs::TraceAttr Attrs[] = {obs::attr("states_explored", uint64_t(5)),
                                  obs::attr("rules_emitted", uint64_t(9)),
                                  obs::attr("sat_queries", uint64_t(1))};
  T.endSpan(Attrs);

  json::Value Doc = dumpOf(T.recorder());
  ASSERT_EQ(Doc.Items.size(), 3u);
  const json::Value *Args = Doc.Items[0].find("args");
  EXPECT_TRUE(Args->find("flight_recorder")->B);
  EXPECT_EQ(Args->find("schema_version")->Num, FlightRecorder::SchemaVersion);
  EXPECT_EQ(Args->find("reason")->Str, "test");
  EXPECT_EQ(Args->find("events")->Num, 2);
  EXPECT_EQ(Args->find("dropped")->Num, 0);

  // The span end renders as an 'E' with its first two counter deltas.
  const json::Value &End = Doc.Items[2];
  EXPECT_EQ(End.find("ph")->Str, "E");
  EXPECT_EQ(End.find("name")->Str, "compose");
  EXPECT_EQ(End.find("cat")->Str, "construction");
  EXPECT_EQ(End.find("args")->find("states_explored")->Num, 5);
  EXPECT_EQ(End.find("args")->find("rules_emitted")->Num, 9);
  EXPECT_EQ(End.find("args")->find("sat_queries"), nullptr);
}

TEST(FlightRecorderTest, FirstIncidentFreezesTheRecorder) {
  std::string Path = testing::TempDir() + "/fr_incident.json";
  std::remove(Path.c_str());
  Tracer T;
  T.armRecorder(Path, 16);
  T.instant("before", "test");
  ASSERT_TRUE(T.recorder().dumpIncident("first incident"));
  EXPECT_TRUE(T.recorder().dumped());
  // Later incidents and the exit dump must not overwrite the evidence.
  T.instant("after", "test");
  EXPECT_FALSE(T.recorder().dumpIncident("second incident"));
  EXPECT_FALSE(T.recorder().dumpFinal());

  std::string Text = slurp(Path);
  EXPECT_NE(Text.find("first incident"), std::string::npos);
  EXPECT_NE(Text.find("before"), std::string::npos);
  EXPECT_EQ(Text.find("after"), std::string::npos);
}

TEST(FlightRecorderTest, StructureDigestIgnoresTimestampsAndArgs) {
  auto Record = [](uint64_t ArgSalt) {
    Tracer T;
    T.armRecorder("", 16);
    const obs::TraceAttr Attrs[] = {obs::attr("salt", ArgSalt)};
    T.beginSpan("a", "test");
    T.instant("b", "test", Attrs);
    T.endSpan(Attrs);
    return T.recorder().structureDigest();
  };
  // Same (lane, phase, name) sequence at different times with different
  // args: identical digest.
  EXPECT_EQ(Record(1), Record(99));

  Tracer Other;
  Other.armRecorder("", 16);
  Other.instant("a", "test");
  EXPECT_NE(Record(1), Other.recorder().structureDigest());
}

TEST(FlightRecorderTest, DumpKeepsThePayloadOfEveryEventKind) {
  // Each hook site emits once; the ring keeps the numbers a dump needs
  // from every kind of event the engine produces.
  Session S;
  S.tracer().armRecorder("", 1u << 12);
  S.tracer().ProgressIntervalMs = 0; // a heartbeat every step
  FastProgramResult R = runFastProgram(
      S, "type IList[i : Int] { nil(0), cons(1) }\n"
         "trans map_caesar : IList -> IList {\n"
         "  nil() to (nil [0])\n"
         "| cons(y) to (cons [(i + 5) % 26] (map_caesar y))\n"
         "}\n"
         "lang not_emp_list : IList { cons(x) }\n"
         "tree sample : IList := (cons [1] (cons [2] (nil [0])))\n"
         "tree mapped : IList := (apply map_caesar sample)\n"
         "assert-true mapped in not_emp_list\n");
  ASSERT_EQ(R.ErrorCount, 0u) << R.DiagText;
  // A cubic constraint goes past the built-in fragment to Z3.
  TermRef Rv = S.Terms.attr(0, Sort::Real, "r");
  EXPECT_TRUE(S.Solv.isSat(S.Terms.mkEq(S.Terms.mkMul(S.Terms.mkMul(Rv, Rv), Rv),
                                        S.Terms.realConst(Rational(8)))));
  // A state budget trip ends in the exploration.stopped instant.
  S.engine().Limits.MaxStates = 1;
  try {
    runFastProgram(S, "type BT[i : Int] { L(0), N(2) }\n"
                      "lang pos : BT { L() where (i > 0) "
                      "| N(x, y) given (pos x) (pos y) }\n"
                      "assert-false (is-empty (complement pos))\n");
  } catch (const std::exception &) {
    // The budget error itself is not under test here.
  }

  json::Value Doc = dumpOf(S.tracer().recorder());
  auto Has = [&](const char *Ph, const char *Name, const char *Key1,
                 const char *Key2) {
    for (size_t I = 1; I < Doc.Items.size(); ++I) {
      const json::Value &E = Doc.Items[I];
      if (E.find("ph")->Str != Ph || E.find("name")->Str != Name)
        continue;
      const json::Value *Args = E.find("args");
      if (Args->find(Key1) && (!Key2 || Args->find(Key2)))
        return true;
    }
    return false;
  };
  auto HasCategory = [&](const char *Ph, const char *Cat, const char *Key1,
                         const char *Key2) {
    for (size_t I = 1; I < Doc.Items.size(); ++I) {
      const json::Value &E = Doc.Items[I];
      if (E.find("ph")->Str == Ph && E.find("cat")->Str == Cat &&
          E.find("args")->find(Key1) && E.find("args")->find(Key2))
        return true;
    }
    return false;
  };
  EXPECT_TRUE(HasCategory("E", "construction", "states_explored",
                          "rules_emitted"));
  EXPECT_TRUE(Has("E", "explore.batch", "steps", "frontier"));
  EXPECT_TRUE(Has("i", "progress", "states_explored", "frontier"));
  EXPECT_TRUE(Has("i", "exploration.stopped", "states_explored", "frontier"));
  EXPECT_TRUE(Has("X", "isSat", "term", nullptr));
  EXPECT_TRUE(Has("X", "vm.run", "instructions", nullptr));
  for (size_t I = 1; I < Doc.Items.size(); ++I) {
    if (Doc.Items[I].find("ph")->Str == "X") {
      EXPECT_NE(Doc.Items[I].find("dur"), nullptr);
    }
  }
}

// "Parallel"-prefixed so the TSan preset's ctest filter picks these up.

constexpr obs::Literal TaskNames[] = {"task.0", "task.1", "task.2",
                                      "task.3", "task.4", "task.5",
                                      "task.6", "task.7", "task.8",
                                      "task.9", "task.10", "task.11"};

/// Runs \p Tasks controlled event sequences through a ParallelRunner at
/// \p Threads and returns the base ring's structure digest.
std::string mergedDigest(unsigned Threads, size_t Tasks) {
  Session S;
  S.tracer().armRecorder("", 1u << 10);
  ParallelRunner Runner(S, Threads);
  Runner.run(Tasks, [&](size_t Task, WorkerContext &Worker) {
    Tracer &T = Worker.session().tracer();
    // Workers buffer for replay; they never own a ring.
    EXPECT_TRUE(T.active());
    EXPECT_EQ(T.recorder().capacity(), 0u);
    for (size_t I = 0; I <= Task % 3; ++I)
      T.instant(TaskNames[Task], "test");
  });
  return S.tracer().recorder().structureDigest();
}

TEST(ParallelFlightRecorderTest, MergedRingIsScheduleIndependent) {
  std::string J1 = mergedDigest(1, 12);
  EXPECT_EQ(J1, mergedDigest(4, 12));
  EXPECT_EQ(J1, mergedDigest(3, 12));
  // And the digest is sensitive to the task set actually recorded.
  EXPECT_NE(J1, mergedDigest(4, 11));
}

TEST(ParallelFlightRecorderTest, ReplayedWorkerEventsKeepNamesAndLanes) {
  Session S;
  S.tracer().armRecorder("", 16);
  ParallelRunner Runner(S, 2);
  Runner.run(2, [&](size_t Task, WorkerContext &Worker) {
    Tracer &T = Worker.session().tracer();
    T.instant(Task == 0 ? obs::Literal("beta") : obs::Literal("alpha"),
              "test");
  });
  json::Value Doc = dumpOf(S.tracer().recorder());
  ASSERT_EQ(Doc.Items.size(), 3u);
  EXPECT_EQ(Doc.Items[1].find("name")->Str, "beta");
  EXPECT_EQ(Doc.Items[1].find("tid")->Num, 2);
  EXPECT_EQ(Doc.Items[2].find("name")->Str, "alpha");
  EXPECT_EQ(Doc.Items[2].find("tid")->Num, 3);
}

TEST(ParallelFlightRecorderTest, FailedTaskRingIsDiscarded) {
  Session S;
  S.tracer().armRecorder("", 1u << 10);
  ParallelRunner Runner(S, 2);
  try {
    Runner.run(4, [&](size_t Task, WorkerContext &Worker) {
      Worker.session().tracer().instant(TaskNames[Task], "test");
      if (Task == 2)
        throw std::runtime_error("task 2 exploded");
    });
    FAIL() << "expected the task exception to propagate";
  } catch (const std::runtime_error &E) {
    EXPECT_STREQ(E.what(), "task 2 exploded");
  }
  // Exactly the three surviving tasks' events, in task-index order.
  const FlightRecorder &FR = S.tracer().recorder();
  EXPECT_EQ(FR.size(), 3u);
  std::ostringstream Out;
  FR.dumpTo(Out, "after failure");
  EXPECT_EQ(Out.str().find("task.2"), std::string::npos);
  EXPECT_NE(Out.str().find("task.3"), std::string::npos);
}

TEST(ParallelFlightRecorderTest, UnarmedBaseLeavesWorkersUnarmed) {
  Session S;
  ASSERT_FALSE(S.tracer().active());
  ParallelRunner Runner(S, 2);
  Runner.run(4, [&](size_t, WorkerContext &Worker) {
    EXPECT_FALSE(Worker.session().tracer().active());
    EXPECT_EQ(Worker.session().tracer().recorder().capacity(), 0u);
  });
}

TEST(ParallelFlightRecorderTest, RingHoldsTheTailOfTheSinkStream) {
  // The one-stream invariant: with a sink and the ring attached, the ring
  // dump is exactly the last N events the sink saw — same name, phase,
  // timestamp and lane — including worker events replayed at the join.
  Session S;
  auto Memory = std::make_unique<obs::MemoryTraceSink>();
  std::shared_ptr<std::vector<std::string>> Seen = Memory->storage();
  S.tracer().setSink(std::move(Memory));
  S.tracer().armRecorder("", 64);
  FastRunOptions Opts;
  Opts.Threads = 4;
  FastProgramResult R = runFastProgram(
      S,
      "type IList[i : Int] { nil(0), cons(1) }\n"
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
      "assert-false (is-empty (restrict-out map_caesar not_emp_list))\n"
      "assert-false (is-empty (restrict-out filter_ev not_emp_list))\n"
      "assert-true (is-empty (restrict-out comp (complement not_emp_list)))\n",
      Opts);
  ASSERT_EQ(R.ErrorCount, 0u) << R.DiagText;

  json::Value Doc = dumpOf(S.tracer().recorder());
  const size_t N = Doc.Items.size() - 1;
  ASSERT_EQ(N, 64u) << "the run should wrap the ring";
  ASSERT_GE(Seen->size(), N);
  bool SawWorkerLane = false;
  for (size_t I = 0; I < N; ++I) {
    const json::Value &Ring = Doc.Items[1 + I];
    auto Sunk = json::parse((*Seen)[Seen->size() - N + I]);
    ASSERT_TRUE(Sunk.has_value());
    EXPECT_EQ(Ring.find("name")->Str, Sunk->find("name")->Str) << I;
    EXPECT_EQ(Ring.find("ph")->Str, Sunk->find("ph")->Str) << I;
    EXPECT_EQ(Ring.find("ts")->Num, Sunk->find("ts")->Num) << I;
    EXPECT_EQ(Ring.find("tid")->Num, Sunk->find("tid")->Num) << I;
    SawWorkerLane |= Ring.find("tid")->Num >= 2;
  }
  EXPECT_TRUE(SawWorkerLane);
}

} // namespace
