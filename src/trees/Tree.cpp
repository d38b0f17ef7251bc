//===- trees/Tree.cpp - Hash-consed attributed trees ----------------------===//

#include "trees/Tree.h"

#include "support/Freeze.h"
#include "support/Hashing.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <new>

using namespace fast;

// Nodes are laid out back to back in a chunk: header, Values, TreeRefs.
static_assert(sizeof(TreeNode) % alignof(Value) == 0 &&
                  sizeof(Value) % alignof(TreeRef) == 0,
              "inline attributes and children must stay aligned");
static_assert(sizeof(Value) % alignof(TreeNode) == 0 &&
                  sizeof(TreeRef) % alignof(TreeNode) == 0,
              "the next node in a chunk must stay aligned");

namespace {
/// Arena chunks start small (most factories hold a handful of trees) and
/// double up to one huge page (see support/TableMemory.h); a node larger
/// than that gets a chunk of its own.
constexpr size_t kFirstChunkBytes = size_t(4) << 10;
constexpr size_t kMaxChunkBytes = kHugePageBytes;
} // namespace

TreeNode::TreeNode(const TreeSignature *Sig, unsigned CtorId, std::size_t Hash,
                   std::span<const Value> Attrs,
                   std::span<const TreeRef> Children)
    : Sig(Sig), Hash(Hash), Size(1), CtorId(CtorId), Depth(1),
      NumAttrs(static_cast<unsigned>(Attrs.size())),
      Rank(static_cast<unsigned>(Children.size())) {
  std::uninitialized_copy(Attrs.begin(), Attrs.end(), attrData());
  std::uninitialized_copy(Children.begin(), Children.end(), childData());
  for (TreeRef Child : Children) {
    Size += Child->size();
    Depth = std::max(Depth, Child->depth() + 1);
  }
}

TreeNode::~TreeNode() { std::destroy_n(attrData(), NumAttrs); }

std::string TreeNode::str() const {
  std::string Result = ctorName();
  Result += '[';
  for (unsigned I = 0; I < NumAttrs; ++I) {
    if (I != 0)
      Result += ", ";
    Result += attr(I).str();
  }
  Result += ']';
  if (Rank != 0) {
    Result += '(';
    for (unsigned I = 0; I < Rank; ++I) {
      if (I != 0)
        Result += ", ";
      Result += child(I)->str();
    }
    Result += ')';
  }
  return Result;
}

TreeFactory::TreeFactory(const TreeFactory *Base) : Base(Base) {
  assert(Base->frozen() && "overlay requires a frozen base factory");
}

bool TreeFactory::matches(const TreeNode &N, const Key &K) {
  return N.Sig == K.Sig && N.CtorId == K.CtorId &&
         std::ranges::equal(N.attrs(), K.Attrs) &&
         std::ranges::equal(N.children(), K.Children);
}

size_t TreeFactory::probe(const Key &K) const {
  assert(!Slots.empty() && "probing an empty table");
  const size_t Mask = Slots.size() - 1;
  size_t I = home(K.Hash);
  while (Slots[I].Node &&
         !(Slots[I].Hash == K.Hash && matches(*Slots[I].Node, K)))
    I = (I + 1) & Mask;
  return I;
}

const TreeNode *TreeFactory::find(const Key &K) const {
  if (Base)
    if (const TreeNode *Hit = Base->find(K))
      return Hit;
  return Slots.empty() ? nullptr : Slots[probe(K)].Node;
}

TreeRef TreeFactory::make(const SignatureRef &Sig, unsigned CtorId,
                          std::span<const Value> Attrs,
                          std::span<const TreeRef> Children) {
  assert(Sig && CtorId < Sig->numConstructors() && "bad constructor id");
  assert(Children.size() == Sig->rank(CtorId) && "wrong number of children");
  assert(Attrs.size() == Sig->numAttrs() && "wrong number of attributes");
  for (unsigned I = 0; I < Attrs.size(); ++I) {
    assert(Attrs[I].sort() == Sig->attrSpec(I).TheSort &&
           "attribute value has wrong sort");
    (void)I;
  }
  for ([[maybe_unused]] TreeRef Child : Children)
    assert(&Child->signature() == Sig.get() &&
           "child belongs to a different signature");

  std::size_t Seed = CtorId;
  for (const Value &V : Attrs)
    hashCombine(Seed, V.hash());
  for (TreeRef Child : Children)
    hashCombine(Seed, Child->hash());
  const Key K{Sig.get(), CtorId, Attrs, Children, Seed};

  // The base chain is frozen, so probing it is a lock-free read shared by
  // every overlay; only local misses write to this factory.
  if (Base)
    if (const TreeNode *Hit = Base->find(K))
      return Hit;
  size_t I = 0;
  if (!Slots.empty()) {
    I = probe(K);
    if (Slots[I].Node)
      return Slots[I].Node;
  }
  if (Frozen)
    throw FrozenFactoryError("TreeFactory");
  // Keeping the signature alive matters only for nodes this factory owns;
  // base hits are kept alive by the base's own table.
  LiveSignatures.insert(Sig);
  if ((Count + 1) * 4 > Slots.size() * 3) { // Load factor at most 3/4.
    grow();
    I = probe(K);
  }
  Slots[I] = {K.Hash, allocateNode(K)};
  ++Count;
  return Slots[I].Node;
}

void TreeFactory::grow() {
  const size_t Size = Slots.empty() ? 64 : Slots.size() * 2;
  SlotTable Grown(Size);
  Shift = 64 - static_cast<unsigned>(std::countr_zero(Size));
  for (const Slot &S : Slots) {
    if (!S.Node)
      continue;
    size_t I = home(S.Hash);
    while (Grown[I].Node)
      I = (I + 1) & (Size - 1);
    Grown[I] = S;
  }
  Slots.swap(Grown);
}

TreeNode *TreeFactory::allocateNode(const Key &K) {
  const size_t Bytes = TreeNode::footprint(K.Attrs.size(), K.Children.size());
  if (Chunks.empty() || Chunks.back().Capacity - Chunks.back().Used < Bytes) {
    size_t Capacity =
        Chunks.empty() ? kFirstChunkBytes
                       : std::min(Chunks.back().Capacity * 2, kMaxChunkBytes);
    Capacity = std::max(Capacity, Bytes);
    Chunks.push_back({allocateTableBlock(Capacity), 0, Capacity});
  }
  Chunk &C = Chunks.back();
  auto *N = new (C.Bytes.get() + C.Used)
      TreeNode(K.Sig, K.CtorId, K.Hash, K.Attrs, K.Children);
  C.Used += Bytes; // Only a fully built node joins the chunk.
  return N;
}

void TreeFactory::releaseNodes() {
  // Walking the chunks in allocation order touches memory sequentially,
  // unlike the table.
  for (Chunk &C : Chunks)
    for (size_t Off = 0; Off < C.Used;) {
      auto *N =
          std::launder(reinterpret_cast<TreeNode *>(C.Bytes.get() + Off));
      Off += TreeNode::footprint(N->NumAttrs, N->Rank);
      N->~TreeNode();
    }
  Chunks.clear();
  Slots = {};
  Shift = 64;
  Count = 0;
  LiveSignatures.clear();
}
