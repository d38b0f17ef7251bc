//===- transducers/Run.cpp - Applying an STTR to a tree -------------------===//

#include "transducers/Run.h"

#include <algorithm>
#include <cassert>

using namespace fast;

namespace {

/// Sorts by node identity and removes duplicates, giving the output set a
/// deterministic order.
void dedupOutputs(std::vector<TreeRef> &Outputs) {
  std::sort(Outputs.begin(), Outputs.end());
  Outputs.erase(std::unique(Outputs.begin(), Outputs.end()), Outputs.end());
}

} // namespace

SttrRunResult SttrRunner::runFromChecked(unsigned State, TreeRef Input) {
  if (Hook) {
    if (std::optional<SttrRunResult> R = Hook->tryRun(State, Input)) {
      Truncated |= R->Truncated;
      return std::move(*R);
    }
  }
  const Entry &E = computeFrom(State, Input);
  return {E.Outputs, E.Truncated};
}

const SttrRunner::Entry &SttrRunner::computeFrom(unsigned State,
                                                 TreeRef Input) {
  auto Key = std::make_pair(State, Input);
  auto It = Memo.find(Key);
  if (It != Memo.end())
    return It->second;
  // Trees are acyclic so recursion cannot revisit (State, Input), but rule
  // iteration below re-enters computeFrom; the memo slot is only filled
  // once the entry is complete.
  Entry Result;
  for (unsigned Index : T.rulesFrom(State, Input->ctorId())) {
    const SttrRule &R = T.rule(Index);
    if (!evalPredicate(R.Guard, Input->attrs()))
      continue;
    bool LookaheadOk = true;
    for (unsigned I = 0; I < R.Lookahead.size() && LookaheadOk; ++I)
      LookaheadOk = Lookahead.acceptsAll(R.Lookahead[I], Input->child(I));
    if (!LookaheadOk)
      continue;
    Entry RuleOutputs = instantiate(R.Out, Input);
    Result.Truncated |= RuleOutputs.Truncated;
    Result.Outputs.insert(Result.Outputs.end(), RuleOutputs.Outputs.begin(),
                          RuleOutputs.Outputs.end());
    if (Result.Outputs.size() > MaxOutputs) {
      Result.Truncated = true;
      Result.Outputs.resize(MaxOutputs);
      break;
    }
  }
  dedupOutputs(Result.Outputs);
  Truncated |= Result.Truncated;
  return Memo.emplace(Key, std::move(Result)).first->second;
}

SttrRunner::Entry SttrRunner::instantiate(OutputRef Out, TreeRef Input) {
  if (Out->isState()) {
    const Entry &E = computeFrom(Out->state(), Input->child(Out->childIndex()));
    return E;
  }

  // Constructor: evaluate the label expressions once, then take the
  // cartesian product of the children's output sets.
  const SignatureRef &Sig = T.signature();
  std::vector<Value> Attrs;
  Attrs.reserve(Out->labelExprs().size());
  for (TermRef Expr : Out->labelExprs())
    Attrs.push_back(evalTerm(Expr, Input->attrs()));

  Entry Result;
  std::vector<std::vector<TreeRef>> ChildSets;
  ChildSets.reserve(Out->children().size());
  for (OutputRef Child : Out->children()) {
    Entry ChildResult = instantiate(Child, Input);
    Result.Truncated |= ChildResult.Truncated;
    if (ChildResult.Outputs.empty())
      return {{}, Result.Truncated}; // One child failed; the whole
                                     // constructor produces nothing.
    ChildSets.push_back(std::move(ChildResult.Outputs));
  }

  std::vector<size_t> Pick(ChildSets.size(), 0);
  std::vector<TreeRef> Children(ChildSets.size());
  while (true) {
    for (size_t I = 0; I < ChildSets.size(); ++I)
      Children[I] = ChildSets[I][Pick[I]];
    Result.Outputs.push_back(Trees.make(Sig, Out->ctorId(), Attrs, Children));
    if (Result.Outputs.size() > MaxOutputs) {
      Result.Truncated = true;
      Result.Outputs.resize(MaxOutputs);
      break;
    }
    // Advance the odometer.
    size_t I = 0;
    for (; I < ChildSets.size(); ++I) {
      if (++Pick[I] < ChildSets[I].size())
        break;
      Pick[I] = 0;
    }
    if (I == ChildSets.size())
      break;
  }
  return Result;
}

std::vector<TreeRef> fast::runSttr(const Sttr &T, TreeFactory &Trees,
                                   TreeRef Input) {
  SttrRunner Runner(T, Trees);
  return Runner.run(Input);
}

SttrRunResult fast::runSttrChecked(const Sttr &T, TreeFactory &Trees,
                                   TreeRef Input) {
  SttrRunner Runner(T, Trees);
  return Runner.runChecked(Input);
}
