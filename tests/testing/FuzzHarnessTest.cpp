//===- tests/testing/FuzzHarnessTest.cpp - The harness tests itself -------===//
//
// The differential harness is only trustworthy if it (a) passes on the
// fixed codebase, (b) demonstrably fails when a known bug class is
// re-introduced, and (c) is deterministic enough that a reported seed
// replays.  OracleOptions::IgnoreTruncation re-creates the historical
// silent-truncation bug — treating capped output sets as complete — so the
// bug-detection test needs no code change to run.
//
//===----------------------------------------------------------------------===//

#include "checks/JsonCheck.h"
#include "testing/Fuzzer.h"

#include "transducers/Sttr.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace fast;
using namespace fast::testing;

namespace {

TEST(FuzzHarnessTest, RegistryIsPopulatedAndNamed) {
  const std::vector<Oracle> &Registry = allOracles();
  ASSERT_GE(Registry.size(), 8u);
  for (const Oracle &O : Registry) {
    EXPECT_FALSE(O.Name.empty());
    EXPECT_FALSE(O.Law.empty());
    EXPECT_TRUE(O.Check != nullptr);
    EXPECT_EQ(findOracle(O.Name), &O);
  }
  EXPECT_EQ(findOracle("no-such-oracle"), nullptr);
}

TEST(FuzzHarnessTest, InstancesAreDeterministic) {
  InstanceOptions Opts;
  Session S1, S2;
  FuzzInstance A = makeInstance(S1, 7, Opts);
  FuzzInstance B = makeInstance(S2, 7, Opts);
  // Sessions differ, so compare by rendering, not identity.
  EXPECT_EQ(describeInstance(A), describeInstance(B));
  FuzzInstance C = makeInstance(S2, 8, Opts);
  EXPECT_NE(describeInstance(A), describeInstance(C));
}

TEST(FuzzHarnessTest, InstanceShapesAreAsAdvertised) {
  Session S;
  FuzzInstance I = makeInstance(S, 3, InstanceOptions{});
  EXPECT_TRUE(I.Det1->isDeterministic(S.Solv));
  EXPECT_TRUE(I.Det1->isLinear());
  EXPECT_TRUE(I.Det2->isDeterministic(S.Solv));
  EXPECT_FALSE(I.Dup->isLinear());
  EXPECT_EQ(I.Samples.size(), InstanceOptions{}.NumSamples);
}

TEST(FuzzHarnessTest, CleanCodePassesSeededRounds) {
  FuzzConfig Config;
  Config.Rounds = 15;
  Config.Seed = 1001;
  Config.Shrink = false;
  FuzzReport Report = runFuzz(Config);
  EXPECT_EQ(Report.RoundsRun, 15u);
  EXPECT_GT(Report.ChecksRun, Report.RoundsRun);
  EXPECT_TRUE(Report.ok()) << Report.Failures.front().OracleName << ": "
                           << Report.Failures.front().Message;
}

TEST(FuzzHarnessTest, ReintroducedTruncationBugIsCaughtAndShrunk) {
  // Re-create the pre-fix behaviour: a tiny output bound plus oracles that
  // compare capped sets as if complete.  The composition laws must fail,
  // and the shrinker must produce a smaller still-failing configuration.
  FuzzConfig Config;
  Config.Rounds = 10;
  Config.Seed = 1;
  Config.Run.MaxOutputs = 2;
  Config.Run.IgnoreTruncation = true;
  Config.StopOnFailure = true;
  namespace fs = std::filesystem;
  fs::path Dir = fs::temp_directory_path() / "fastfuzz-harness-test";
  fs::remove_all(Dir);
  Config.ReproDir = Dir.string();

  FuzzReport Report = runFuzz(Config);
  ASSERT_FALSE(Report.ok())
      << "truncation-blind comparison of capped output sets must fail";
  const FuzzFailure &F = Report.Failures.front();
  EXPECT_FALSE(F.Message.empty());

  // The shrinker ran and its minimum is no larger than the original in
  // any dimension, smaller in at least one.
  EXPECT_GT(F.ShrinkSteps, 0u);
  EXPECT_LE(F.MinimizedOptions.NumStates, F.Options.NumStates);
  EXPECT_LE(F.MinimizedOptions.TreeDepth, F.Options.TreeDepth);
  EXPECT_LE(F.MinimizedOptions.NumSamples, F.Options.NumSamples);
  unsigned Before = F.Options.NumStates + F.Options.MaxRulesPerCtor +
                    F.Options.TreeDepth + F.Options.NumSamples;
  unsigned After = F.MinimizedOptions.NumStates +
                   F.MinimizedOptions.MaxRulesPerCtor +
                   F.MinimizedOptions.TreeDepth +
                   F.MinimizedOptions.NumSamples;
  EXPECT_LT(After, Before);
  EXPECT_FALSE(F.MinimizedMessage.empty());
  EXPECT_FALSE(F.MinimizedDescription.empty());

  // The repro directory is self-contained: instance dump, failure record,
  // replay command, DOT renderings, and the execution trace of the
  // failing oracle's re-run.
  ASSERT_FALSE(F.ReproPath.empty());
  for (const char *Name :
       {"instance.txt", "failure.txt", "command.txt", "det1.dot", "dup.dot",
        "lang-a.dot", "lang-b.dot", "nondet.dot", "trace.jsonl"}) {
    fs::path File = fs::path(F.ReproPath) / Name;
    EXPECT_TRUE(fs::exists(File)) << File.string();
    EXPECT_GT(fs::file_size(File), 0u) << File.string();
  }

  // Every trace line is one standalone JSON event object.
  {
    std::ifstream Trace(fs::path(F.ReproPath) / "trace.jsonl");
    std::string Line;
    size_t TraceEvents = 0;
    while (std::getline(Trace, Line)) {
      if (Line.empty())
        continue;
      auto Event = obs::json::parse(Line);
      ASSERT_TRUE(Event.has_value()) << Line;
      EXPECT_TRUE(Event->isObject());
      EXPECT_NE(Event->find("ph"), nullptr);
      ++TraceEvents;
    }
    EXPECT_GT(TraceEvents, 0u);
  }
  std::ifstream Cmd(fs::path(F.ReproPath) / "command.txt");
  std::stringstream CmdText;
  CmdText << Cmd.rdbuf();
  EXPECT_NE(CmdText.str().find("--seed=" + std::to_string(F.Seed)),
            std::string::npos);
  EXPECT_NE(CmdText.str().find("--ignore-truncation"), std::string::npos);
  fs::remove_all(Dir);

  // With the truncation flag honoured (the fixed behaviour), the same
  // seeds pass: the flag is what separates "wrong answer" from "known
  // lower bound".
  Config.Run.IgnoreTruncation = false;
  Config.ReproDir.clear();
  FuzzReport Fixed = runFuzz(Config);
  EXPECT_TRUE(Fixed.ok()) << Fixed.Failures.front().Message;
}

TEST(FuzzHarnessTest, ShrinkerRejectsNonReproducingFailure) {
  // Shrinking a configuration that does not fail reports that instead of
  // inventing a minimum.
  const Oracle *O = findOracle("complement");
  ASSERT_NE(O, nullptr);
  ShrinkResult R = shrinkFailure(*O, 1, InstanceOptions{}, OracleOptions{});
  EXPECT_EQ(R.StepsTaken, 0u);
  EXPECT_NE(R.Message.find("did not reproduce"), std::string::npos);
}

TEST(FuzzHarnessTest, ExplorationBudgetSkipsInsteadOfHanging) {
  // An absurdly tight budget must turn decision-procedure laws into skips,
  // never failures.
  FuzzConfig Config;
  Config.Rounds = 2;
  Config.Seed = 1001;
  Config.Shrink = false;
  Config.Run.MaxExplorationStates = 1;
  FuzzReport Report = runFuzz(Config);
  EXPECT_TRUE(Report.ok());
  EXPECT_GT(Report.ChecksSkipped, 0u);
}

} // namespace
