//===- trees/RandomTrees.cpp - Seeded random tree generation --------------===//

#include "trees/RandomTrees.h"

#include <cassert>

using namespace fast;

Value RandomTreeGen::randomValue(Sort S) {
  switch (S) {
  case Sort::Bool:
    return Value::boolean(std::uniform_int_distribution<int>(0, 1)(Rng) != 0);
  case Sort::Int:
    return Value::integer(std::uniform_int_distribution<int64_t>(
        Options.IntMin, Options.IntMax)(Rng));
  case Sort::Real: {
    int64_t Num = std::uniform_int_distribution<int64_t>(Options.IntMin * 4,
                                                         Options.IntMax * 4)(Rng);
    int64_t Den = std::uniform_int_distribution<int64_t>(1, 4)(Rng);
    return Value::real(Rational(Num, Den));
  }
  case Sort::String: {
    assert(!Options.StringPool.empty() && "empty string pool");
    size_t Index = std::uniform_int_distribution<size_t>(
        0, Options.StringPool.size() - 1)(Rng);
    return Value::string(Options.StringPool[Index]);
  }
  }
  assert(false && "unhandled sort");
  return Value();
}

TreeRef RandomTreeGen::generate() { return generateAtDepth(Options.MaxDepth); }

TreeRef RandomTreeGen::generateAtDepth(unsigned Remaining) {
  // Collect candidate constructors: at the depth limit only leaves qualify.
  std::vector<unsigned> Candidates;
  for (unsigned Id = 0; Id < Sig->numConstructors(); ++Id)
    if (Remaining > 1 || Sig->rank(Id) == 0)
      Candidates.push_back(Id);
  assert(!Candidates.empty() && "signature has no rank-0 constructor");
  unsigned CtorId = Candidates[std::uniform_int_distribution<size_t>(
      0, Candidates.size() - 1)(Rng)];

  std::vector<Value> Attrs;
  Attrs.reserve(Sig->numAttrs());
  for (unsigned I = 0; I < Sig->numAttrs(); ++I)
    Attrs.push_back(randomValue(Sig->attrSpec(I).TheSort));

  std::vector<TreeRef> Children;
  Children.reserve(Sig->rank(CtorId));
  for (unsigned I = 0; I < Sig->rank(CtorId); ++I)
    Children.push_back(generateAtDepth(Remaining - 1));
  return Factory.make(Sig, CtorId, Attrs, Children);
}
