//===- testing/Shrink.cpp - Greedy failure minimization -------------------===//

#include "testing/Shrink.h"

#include <algorithm>

using namespace fast;
using namespace fast::testing;

namespace {

/// One oracle evaluation on a freshly regenerated instance, with the
/// failure captured as strings (the session dies with this scope).
struct Attempt {
  bool Failed = false;
  std::string Message;
  std::string Counterexample;
  std::string Description;
};

Attempt tryOptions(const Oracle &O, unsigned Seed, const InstanceOptions &Opts,
                   const OracleOptions &Run) {
  Session S;
  FuzzInstance I = makeInstance(S, Seed, Opts);
  OracleRun R = runOracle(O, S, I, Run);
  Attempt A;
  // A budget-exhausted candidate is not a failure: the reduction is simply
  // rejected and shrinking continues elsewhere.
  A.Failed = !R.Skipped && R.Result.has_value();
  if (A.Failed) {
    A.Message = R.Result->Message;
    if (R.Result->Counterexample)
      A.Counterexample = R.Result->Counterexample->str();
    A.Description = describeInstance(I);
  }
  return A;
}

Value defaultValue(Sort S) {
  switch (S) {
  case Sort::Bool:
    return Value::boolean(false);
  case Sort::Int:
    return Value::integer(0);
  case Sort::Real:
    return Value::real(Rational(0));
  case Sort::String:
    return Value::string("");
  }
  return Value();
}

} // namespace

ShrinkResult fast::testing::shrinkFailure(const Oracle &O, unsigned Seed,
                                          const InstanceOptions &Options,
                                          const OracleOptions &Run) {
  ShrinkResult Result;
  Result.Options = Options;

  Attempt Current = tryOptions(O, Seed, Options, Run);
  if (!Current.Failed) {
    Result.Message = "failure did not reproduce during shrinking";
    return Result;
  }

  // Phase 1: reduce the instance options one dimension at a time, halving
  // first and decrementing second, until no reduction keeps the failure.
  bool Progress = true;
  while (Progress) {
    Progress = false;
    auto TryReduce = [&](auto Get, auto Set, unsigned Floor) {
      unsigned V = Get(Result.Options);
      for (unsigned Candidate : {V / 2, V - 1}) {
        if (Candidate < Floor || Candidate >= V)
          continue;
        InstanceOptions Reduced = Result.Options;
        Set(Reduced, Candidate);
        Attempt A = tryOptions(O, Seed, Reduced, Run);
        if (!A.Failed)
          continue;
        Result.Options = Reduced;
        Current = std::move(A);
        ++Result.StepsTaken;
        Progress = true;
        break;
      }
    };
    TryReduce([](const InstanceOptions &V) { return V.NumStates; },
              [](InstanceOptions &V, unsigned N) { V.NumStates = N; }, 1);
    TryReduce([](const InstanceOptions &V) { return V.MaxRulesPerCtor; },
              [](InstanceOptions &V, unsigned N) { V.MaxRulesPerCtor = N; },
              1);
    TryReduce([](const InstanceOptions &V) { return V.TreeDepth; },
              [](InstanceOptions &V, unsigned N) { V.TreeDepth = N; }, 1);
    TryReduce([](const InstanceOptions &V) { return V.NumSamples; },
              [](InstanceOptions &V, unsigned N) { V.NumSamples = N; }, 1);
    if (Result.Options.ConstraintProbability > 0) {
      InstanceOptions Reduced = Result.Options;
      Reduced.ConstraintProbability = 0;
      Attempt A = tryOptions(O, Seed, Reduced, Run);
      if (A.Failed) {
        Result.Options = Reduced;
        Current = std::move(A);
        ++Result.StepsTaken;
        Progress = true;
      }
    }
  }

  Result.Message = Current.Message;
  Result.Counterexample = Current.Counterexample;
  Result.Description = Current.Description;
  if (Current.Counterexample.empty())
    return Result; // Purely symbolic law; nothing structural to minimize.

  // Phase 2: minimize the counterexample tree inside one session, with the
  // sample set replaced wholesale by the single candidate.
  Session S;
  FuzzInstance I = makeInstance(S, Seed, Result.Options);
  OracleRun R = runOracle(O, S, I, Run);
  if (R.Skipped || !R.Result || !R.Result->Counterexample)
    return Result; // Drifted (e.g. failure needed several samples); keep
                   // the phase-1 result.
  TreeRef Best = R.Result->Counterexample;

  // First confirm the failure survives with only the counterexample
  // sampled; if not, the law genuinely needs the larger sample set.
  auto FailsOn = [&](TreeRef Candidate) -> OracleResult {
    I.Samples = {Candidate};
    OracleRun CandidateRun = runOracle(O, S, I, Run);
    if (CandidateRun.Skipped)
      return std::nullopt;
    return CandidateRun.Result;
  };
  if (OracleResult Single = FailsOn(Best)) {
    Current.Message = Single->Message;
    bool Progress2 = true;
    while (Progress2) {
      Progress2 = false;
      std::vector<TreeRef> Candidates;
      for (TreeRef Child : Best->children())
        Candidates.push_back(Child);
      const TreeSignature &Sig = Best->signature();
      std::vector<Value> Defaults;
      for (unsigned A = 0; A < Sig.numAttrs(); ++A)
        Defaults.push_back(defaultValue(Sig.attrSpec(A).TheSort));
      TreeRef Defaulted =
          S.Trees.make(I.Sig, Best->ctorId(), Defaults, Best->children());
      if (Defaulted != Best)
        Candidates.push_back(Defaulted);
      for (TreeRef Candidate : Candidates) {
        OracleResult CR = FailsOn(Candidate);
        if (!CR)
          continue;
        Best = Candidate;
        Current.Message = CR->Message;
        ++Result.StepsTaken;
        Progress2 = true;
        break;
      }
    }
    Result.Message = Current.Message;
    Result.Counterexample = Best->str();
    I.Samples = {Best};
    Result.Description = describeInstance(I);
  }
  return Result;
}
