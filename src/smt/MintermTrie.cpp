//===- smt/MintermTrie.cpp - Shared minterm region trie -------------------===//

#include "smt/MintermTrie.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <unordered_map>

using namespace fast;

/// One region of the generated Boolean algebra, identified by its root
/// path of literals.
struct MintermTrie::RegionNode {
  /// -1 undecided, 0 unsat, 1 sat.  Never reset once decided.
  int Verdict = -1;
  /// The region as a conjunction term, built lazily the first time an
  /// enumeration emits this node as a leaf.
  TermRef Region = nullptr;
  /// Children keyed by the guard refined next; [0] positive, [1] negative.
  std::unordered_map<TermRef, std::array<std::unique_ptr<RegionNode>, 2>>
      Children;
};

/// Split-index node: a trie over canonical guard sequences whose terminal
/// nodes own the assembled enumeration for that exact set.
struct MintermTrie::SeqNode {
  std::unordered_map<TermRef, std::unique_ptr<SeqNode>> Next;
  std::unique_ptr<MintermSplit> Split;
};

MintermTrie::MintermTrie(Solver &Solv)
    : Solv(Solv), Root(std::make_unique<RegionNode>()),
      SeqRoot(std::make_unique<SeqNode>()) {
  Root->Verdict = 1; // The empty region is the whole label space.
}

MintermTrie::~MintermTrie() = default;

const MintermSplit &MintermTrie::minterms(std::span<const TermRef> Guards,
                                          bool ViaTrie) {
  assert(std::is_sorted(Guards.begin(), Guards.end(),
                        [](TermRef A, TermRef B) {
                          return A->id() < B->id();
                        }) &&
         std::adjacent_find(Guards.begin(), Guards.end()) == Guards.end() &&
         "guard set must be canonical (sorted by id, deduplicated)");
  SeqNode *N = SeqRoot.get();
  for (TermRef G : Guards) {
    std::unique_ptr<SeqNode> &Child = N->Next[G];
    if (!Child)
      Child = std::make_unique<SeqNode>();
    N = Child.get();
  }
  if (N->Split) {
    ++Counters.SplitHits;
    return *N->Split;
  }

  auto Split = std::make_unique<MintermSplit>();
  Split->Guards.assign(Guards.begin(), Guards.end());
  if (ViaTrie)
    enumerate(Split->Guards, Split->Regions);
  else
    Split->Regions = computeMinterms(Solv, Split->Guards);
  ++Counters.SplitsComputed;
  Counters.RegionsEmitted += Split->Regions.size();
  N->Split = std::move(Split);
  return *N->Split;
}

void MintermTrie::enumerate(std::span<const TermRef> Guards,
                            std::vector<Minterm> &Out) {
  std::vector<TermRef> Lits;
  std::vector<bool> Pols;
  Lits.reserve(Guards.size());
  Pols.reserve(Guards.size());
  descend(*Root, Guards, 0, Lits, Pols, Out);
}

void MintermTrie::descend(RegionNode &Node, std::span<const TermRef> Guards,
                          size_t Depth, std::vector<TermRef> &Lits,
                          std::vector<bool> &Pols, std::vector<Minterm> &Out) {
  TermFactory &F = Solv.factory();
  if (Depth == Guards.size()) {
    if (!Node.Region)
      Node.Region = F.mkAnd(Lits);
    Out.push_back({Node.Region, Pols});
    return;
  }
  TermRef G = Guards[Depth];
  auto &Branches = Node.Children[G];
  // Positive branch first: matches the region order of the reference
  // computeMinterms loop, so differential checks compare sequences.
  for (int Branch = 0; Branch < 2; ++Branch) {
    bool Positive = Branch == 0;
    TermRef Lit = Positive ? G : F.mkNot(G);
    std::unique_ptr<RegionNode> &ChildPtr = Branches[Branch];
    if (!ChildPtr)
      ChildPtr = std::make_unique<RegionNode>();
    RegionNode &Child = *ChildPtr;
    Lits.push_back(Lit);
    if (Child.Verdict < 0) {
      Child.Verdict = decideVerdict(Lits);
      ++Counters.NodesDecided;
    } else {
      ++Counters.NodeHits;
    }
    if (Child.Verdict == 1) {
      Pols.push_back(Positive);
      descend(Child, Guards, Depth + 1, Lits, Pols, Out);
      Pols.pop_back();
    }
    Lits.pop_back();
  }
}

int MintermTrie::decideVerdict(std::span<const TermRef> PathLits) {
  TermRef Lit = PathLits.back();
  TermRef NotLit = Solv.factory().mkNot(Lit);
  // Subsumption against the ancestor literals: when a single ancestor
  // refutes or implies the new literal, the verdict needs no checkSat at
  // all — in particular no Z3 call when the whole region conjunction is
  // outside the built-in fragment but the deciding pair is not.  The
  // parent region is known satisfiable (descent only enters sat nodes),
  // so a redundant literal leaves the region equal to its parent.
  for (TermRef A : PathLits.first(PathLits.size() - 1)) {
    if (Solv.impliesFast(A, NotLit) == Trilean::True) {
      ++Counters.SubsumptionAnswers;
      return 0;
    }
    if (Solv.impliesFast(A, Lit) == Trilean::True) {
      ++Counters.SubsumptionAnswers;
      return 1;
    }
  }
  return Solv.checkSat(PathLits) ? 1 : 0;
}
