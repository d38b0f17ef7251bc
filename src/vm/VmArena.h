//===- vm/VmArena.h - Bump-pointer output arena for the VM ------*- C++ -*-===//
//
// Part of the fast-transducers project (see support/Hashing.h).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The VM's run-time value representation and its output arena.
///
/// While a compiled program runs, output trees are bump-allocated here as
/// flat records instead of going through the interning TreeFactory: one
/// arena node is three vector appends, no hashing, no heap node.  The
/// arena is reset once per run (capacity retained), and a single intern
/// pass at run exit materializes the surviving root as a normal TreeRef —
/// so arena node ids are meaningful only within one run, and nothing
/// outside the Vm may retain them.
///
/// An arena id can also name an already interned tree: a *ref* node holds
/// a TreeRef, and the intern pass maps it to that tree without calling
/// TreeFactory::make.  The chain loop uses refs to share the unchanged
/// tail of an input character chain with its output (DESIGN.md §7).
///
/// VmValue is the unboxed counterpart of smt::Value: strings are borrowed
/// pointers into storage that outlives the run (the program's constant
/// pool or the input tree's attribute tuples — the label theory has no
/// string-producing operators, so evaluation never creates a string).
///
//===----------------------------------------------------------------------===//

#ifndef FAST_VM_VMARENA_H
#define FAST_VM_VMARENA_H

#include "smt/Value.h"
#include "trees/Tree.h"

#include <cassert>
#include <cstdint>
#include <vector>

namespace fast::vm {

/// An unboxed concrete value on the VM's evaluation stack.
struct VmValue {
  Sort S = Sort::Int;
  bool B = false;
  int64_t I = 0;
  Rational R;
  const std::string *Str = nullptr;

  static VmValue boolean(bool V) {
    VmValue X;
    X.S = Sort::Bool;
    X.B = V;
    return X;
  }
  static VmValue integer(int64_t V) {
    VmValue X;
    X.S = Sort::Int;
    X.I = V;
    return X;
  }
  static VmValue real(Rational V) {
    VmValue X;
    X.S = Sort::Real;
    X.R = V;
    return X;
  }
  static VmValue string(const std::string *V) {
    VmValue X;
    X.S = Sort::String;
    X.Str = V;
    return X;
  }

  /// Borrows from \p V, which must outlive this value.
  static VmValue borrow(const Value &V) {
    switch (V.sort()) {
    case Sort::Bool:
      return boolean(V.getBool());
    case Sort::Int:
      return integer(V.getInt());
    case Sort::Real:
      return real(V.getReal());
    case Sort::String:
      return string(&V.getString());
    }
    return VmValue();
  }

  /// Boxes back into an owning Value (copies borrowed strings).
  Value box() const {
    switch (S) {
    case Sort::Bool:
      return Value::boolean(B);
    case Sort::Int:
      return Value::integer(I);
    case Sort::Real:
      return Value::real(R);
    case Sort::String:
      return Value::string(*Str);
    }
    return Value();
  }

  /// Matches Value::operator== (variant equality: differing sorts are
  /// unequal, Int(1) != Real(1)).
  friend bool operator==(const VmValue &A, const VmValue &B) {
    if (A.S != B.S)
      return false;
    switch (A.S) {
    case Sort::Bool:
      return A.B == B.B;
    case Sort::Int:
      return A.I == B.I;
    case Sort::Real:
      return A.R == B.R;
    case Sort::String:
      return *A.Str == *B.Str;
    }
    return false;
  }

  /// Numeric view for Lt/Le, matching Value::asRational.
  Rational asRational() const {
    return S == Sort::Int ? Rational(I) : R;
  }
};

/// Bump-pointer storage for the output tree under construction.  Node
/// records index into shared attribute/child pools; ids are dense and
/// run-local.
class VmArena {
public:
  /// Ctor of a ref node, whose AttrOff indexes the ref pool.
  static constexpr uint32_t kRefCtor = UINT32_MAX;

  struct Node {
    uint32_t Ctor;
    uint32_t AttrOff;
    uint32_t ChildOff;
    uint16_t Rank;
    uint16_t NumAttrs;
  };

  /// Appends a node with the given attributes and children (arena ids).
  uint32_t addNode(uint32_t Ctor, uint16_t Rank, uint16_t NumAttrs,
                   const VmValue *Attrs, const uint32_t *Kids) {
    Node N;
    N.Ctor = Ctor;
    N.Rank = Rank;
    N.NumAttrs = NumAttrs;
    N.AttrOff = static_cast<uint32_t>(AttrPool.size());
    N.ChildOff = static_cast<uint32_t>(ChildPool.size());
    AttrPool.insert(AttrPool.end(), Attrs, Attrs + NumAttrs);
    ChildPool.insert(ChildPool.end(), Kids, Kids + Rank);
    Nodes.push_back(N);
    return static_cast<uint32_t>(Nodes.size() - 1);
  }

  /// Appends a node whose attributes/children are the top \p NumAttrs /
  /// \p Rank entries of the given stacks (deepest first); pops both.
  uint32_t addNode(uint32_t Ctor, uint16_t Rank, uint16_t NumAttrs,
                   std::vector<VmValue> &ValStack,
                   std::vector<uint32_t> &NodeStack) {
    assert(ValStack.size() >= NumAttrs && NodeStack.size() >= Rank);
    uint32_t Id = addNode(Ctor, Rank, NumAttrs,
                          ValStack.data() + (ValStack.size() - NumAttrs),
                          NodeStack.data() + (NodeStack.size() - Rank));
    ValStack.resize(ValStack.size() - NumAttrs);
    NodeStack.resize(NodeStack.size() - Rank);
    return Id;
  }

  /// Appends a ref node standing for the interned tree \p T.
  uint32_t addRef(TreeRef T) {
    Nodes.push_back({kRefCtor, static_cast<uint32_t>(Refs.size()), 0, 0, 0});
    Refs.push_back(T);
    return static_cast<uint32_t>(Nodes.size() - 1);
  }

  const Node &node(uint32_t Id) const { return Nodes[Id]; }
  const VmValue *attrs(const Node &N) const { return AttrPool.data() + N.AttrOff; }
  const uint32_t *children(const Node &N) const {
    return ChildPool.data() + N.ChildOff;
  }
  /// The tree a ref node names, or null for an ordinary node.
  TreeRef ref(const Node &N) const {
    return N.Ctor == kRefCtor ? Refs[N.AttrOff] : nullptr;
  }
  size_t numNodes() const { return Nodes.size(); }

  /// Clears the run's nodes; capacity is retained so steady-state runs
  /// allocate nothing.
  void reset() {
    Nodes.clear();
    AttrPool.clear();
    ChildPool.clear();
    Refs.clear();
  }

private:
  std::vector<Node> Nodes;
  std::vector<VmValue> AttrPool;
  std::vector<uint32_t> ChildPool;
  std::vector<TreeRef> Refs;
};

} // namespace fast::vm

#endif // FAST_VM_VMARENA_H
