//===- trees/Tree.h - Hash-consed attributed trees --------------*- C++ -*-===//
//
// Part of the fast-transducers project (see support/Hashing.h).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Concrete trees over a TreeSignature.  Nodes are immutable and interned
/// by a TreeFactory, so structurally equal trees are pointer-equal and
/// subtree sharing is free — the deforestation benchmark evaluates long
/// list pipelines whose intermediate results share almost all structure.
///
/// Each interned node is one bump allocation in its factory's chunked
/// arena: a fixed header followed inline by its attribute Values and then
/// its child TreeRefs.  Nodes never move, and the factory finds them
/// through one open-addressing table of {hash, node} slots that is probed
/// before anything is allocated, so re-interning an existing tree costs a
/// hash and a lookup.  The table and the arena chunks are table memory
/// (support/TableMemory.h): once they reach a huge page, they are mapped
/// on huge pages where the system offers them.
///
//===----------------------------------------------------------------------===//

#ifndef FAST_TREES_TREE_H
#define FAST_TREES_TREE_H

#include "support/TableMemory.h"
#include "trees/Signature.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <unordered_set>
#include <vector>

namespace fast {

class TreeNode;
using TreeRef = const TreeNode *;

/// One immutable tree node: a constructor, its attribute tuple, and its
/// children (exactly rank(ctor) of them), stored inline behind the header.
class TreeNode {
public:
  TreeNode(const TreeNode &) = delete;
  TreeNode &operator=(const TreeNode &) = delete;

  const TreeSignature &signature() const { return *Sig; }
  unsigned ctorId() const { return CtorId; }
  const std::string &ctorName() const { return Sig->ctorName(CtorId); }
  unsigned rank() const { return Rank; }

  std::span<const Value> attrs() const { return {attrData(), NumAttrs}; }
  const Value &attr(unsigned I) const {
    assert(I < NumAttrs && "attribute index out of range");
    return attrData()[I];
  }

  std::span<const TreeRef> children() const { return {childData(), Rank}; }
  TreeRef child(unsigned I) const {
    assert(I < Rank && "child index out of range");
    return childData()[I];
  }

  /// Total number of nodes in this tree.
  size_t size() const { return Size; }
  /// Height (a leaf has depth 1).
  unsigned depth() const { return Depth; }

  std::size_t hash() const { return Hash; }

  /// Renders in Fast witness syntax, e.g. `node["div"](nil[""], ...)`.
  std::string str() const;

private:
  friend class TreeFactory;
  TreeNode(const TreeSignature *Sig, unsigned CtorId, std::size_t Hash,
           std::span<const Value> Attrs, std::span<const TreeRef> Children);
  ~TreeNode();

  /// Arena bytes of a node with \p NumAttrs attributes and \p Rank children.
  static size_t footprint(size_t NumAttrs, size_t Rank) {
    return sizeof(TreeNode) + NumAttrs * sizeof(Value) +
           Rank * sizeof(TreeRef);
  }

  Value *attrData() { return reinterpret_cast<Value *>(this + 1); }
  const Value *attrData() const {
    return reinterpret_cast<const Value *>(this + 1);
  }
  TreeRef *childData() {
    return reinterpret_cast<TreeRef *>(attrData() + NumAttrs);
  }
  const TreeRef *childData() const {
    return reinterpret_cast<const TreeRef *>(attrData() + NumAttrs);
  }

  const TreeSignature *Sig;
  std::size_t Hash;
  size_t Size;
  unsigned CtorId;
  unsigned Depth;
  unsigned NumAttrs;
  unsigned Rank;
};

/// Interns TreeNodes and keeps their signatures alive.
///
/// Like TermFactory, a TreeFactory can be frozen into an immutable shared
/// artifact: interning an existing tree is then a lock-free read of the
/// intern table, interning a new one throws FrozenFactoryError before
/// anything is written, and per-thread overlay factories resolve base
/// structures to the base pointers while interning new nodes locally
/// (pointer identity stays structural across the union).
class TreeFactory {
public:
  TreeFactory() = default;
  /// Overlay over frozen \p Base, which must outlive this factory.
  explicit TreeFactory(const TreeFactory *Base);
  TreeFactory(const TreeFactory &) = delete;
  TreeFactory &operator=(const TreeFactory &) = delete;
  ~TreeFactory() { releaseNodes(); }

  /// Makes the factory immutable (one-way); see TermFactory::freeze().
  void freeze() { Frozen = true; }
  bool frozen() const { return Frozen; }
  const TreeFactory *base() const { return Base; }

  /// Creates (or reuses) the tree `ctor[attrs](children)`.  Children must
  /// already belong to this factory and use the same signature object.
  /// Both spans are only read; a hit allocates nothing, a miss copies them
  /// into the arena.
  TreeRef make(const SignatureRef &Sig, unsigned CtorId,
               std::span<const Value> Attrs,
               std::span<const TreeRef> Children);

  /// Braced-list convenience: `make(Sig, N, {Value::integer(1)}, {L, R})`.
  TreeRef make(const SignatureRef &Sig, unsigned CtorId,
               std::initializer_list<Value> Attrs,
               std::initializer_list<TreeRef> Children = {}) {
    return make(Sig, CtorId, std::span(Attrs), std::span(Children));
  }

  /// Convenience for rank-0 constructors.
  TreeRef makeLeaf(const SignatureRef &Sig, unsigned CtorId,
                   std::initializer_list<Value> Attrs) {
    return make(Sig, CtorId, Attrs);
  }

  /// Distinct interned trees, including the frozen base's for an overlay.
  size_t numNodes() const { return (Base ? Base->numNodes() : 0) + Count; }

  /// Discards every locally interned tree; see TermFactory::resetOverlay.
  /// TreeRefs not resolving into the base dangle afterwards.
  void resetOverlay() {
    assert(Base && !Frozen && "resetOverlay requires an unfrozen overlay");
    releaseNodes();
  }

private:
  /// A node-to-be, described by the caller's spans.
  struct Key {
    const TreeSignature *Sig;
    unsigned CtorId;
    std::span<const Value> Attrs;
    std::span<const TreeRef> Children;
    std::size_t Hash;
  };
  /// An intern-table entry; a null Node marks an empty slot.
  struct Slot {
    std::size_t Hash = 0;
    TreeNode *Node = nullptr;
  };
  using SlotTable = std::vector<Slot, TableAllocator<Slot>>;
  struct Chunk {
    TableBlock Bytes;
    size_t Used = 0;
    size_t Capacity = 0;
  };

  static bool matches(const TreeNode &N, const Key &K);
  /// First slot to probe for \p Hash (Fibonacci hashing of all its bits).
  size_t home(std::size_t Hash) const {
    return static_cast<size_t>((uint64_t(Hash) * 0x9E3779B97F4A7C15ull) >>
                               Shift);
  }
  /// Index of \p K's slot in the (non-empty) local table, or of the empty
  /// slot where it would go.
  size_t probe(const Key &K) const;
  /// Read-only lookup in the base chain, then in this factory's table.
  const TreeNode *find(const Key &K) const;
  /// Doubles the table (or creates it), rehashing from the stored hashes.
  void grow();
  /// Copies \p K into the arena.
  TreeNode *allocateNode(const Key &K);
  /// Destroys every local node, frees the arena and empties the table.
  void releaseNodes();

  const TreeFactory *Base = nullptr;
  bool Frozen = false;
  SlotTable Slots;     ///< Power-of-two size, or empty.
  unsigned Shift = 64; ///< 64 - log2(Slots.size()).
  size_t Count = 0;
  std::vector<Chunk> Chunks;
  std::unordered_set<SignatureRef> LiveSignatures;
};

} // namespace fast

#endif // FAST_TREES_TREE_H
