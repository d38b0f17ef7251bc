//===- vm/VmCompile.h - Lowering STTRs to register-machine code -*- C++ -*-===//
//
// Part of the fast-transducers project (see support/Hashing.h).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compiled program format of the evaluation data plane and the
/// compiler that lowers a checked STTR into it (DESIGN.md §7).
///
/// A program has four planes:
///   - dispatch: a dense (state, ctor) entry table into per-group guard
///     *decision DAGs*.  Each interior DAG node tests one concrete guard
///     (a compiled expression over the input node's attribute tuple); the
///     guards of a group are canonicalized and ordered by the session
///     minterm trie (sorted by term id), and the DAG's leaves are the
///     satisfiable minterm regions collapsed by identical enabled-rule
///     sets — so every input takes at most |distinct guards| cheap tests
///     and no solver runs at evaluation time.
///   - bodies: rule output transformers flattened into stack opcodes
///     (label expressions inline, EvalChild for state applications,
///     MakeNode for constructors), deduplicated by output identity.
///   - lookahead: the transducer's lookahead STA compiled into the same
///     code stream; membership is evaluated concretely and memoized per
///     (lookahead state, node), still solver-free.
///   - constants: the literal pool referenced by PushConst.
///   - chains: 256-entry byte tables for the *chain states* of a program
///     over a one-String-attribute signature (HtmlE's character chains).
///     A transduction chain state maps each one-byte label to the fixed
///     prefix its rule wraps around the recursive call (or to fail), and
///     a lookahead chain state to accept/reject; the Vm runs them as
///     loops (DESIGN.md §7).  Every table entry is the guard DAG's
///     verdict on that byte, evaluated once here, so tables are exact.
///
/// Eligibility (checked at compile time; the solver is consulted here and
/// never at run time): every guard and label expression must be concretely
/// evaluable against the attribute schema, and within every satisfiable
/// guard region of a (state, ctor) group the enabled rules must either
/// agree on one output transformer, or — the compiled-lookahead extension
/// — the whole transducer must be deterministic, in which case the rules'
/// lookahead languages are pairwise separated and at most one candidate
/// filter can pass on any input.  Both cases make a run produce at most
/// one output, so the single-output arena machine is exact (truncation
/// provably never fires).  Anything else is rejected with a reason and
/// falls back to the structural interpreter.
///
//===----------------------------------------------------------------------===//

#ifndef FAST_VM_VMCOMPILE_H
#define FAST_VM_VMCOMPILE_H

#include "transducers/Session.h"
#include "transducers/Sttr.h"

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace fast::vm {

/// Opcodes of the flat register machine.  Expression opcodes operate on
/// the value stack; body opcodes additionally touch the node stack and
/// the arena.  A code chunk ends with EndExpr (guard/lookahead chunks,
/// net one Bool) or Return (body chunks, net one node).
enum class Op : uint8_t {
  PushConst,   ///< push Consts[A]
  PushAttr,    ///< push input node attribute A
  PushTrue,    ///< push Bool true (And/Or epilogues)
  PushFalse,   ///< push Bool false
  Not,         ///< pop b, push !b
  Jump,        ///< pc := A
  JumpIfFalse, ///< pop b; if !b pc := A   (And short-circuit, Ite)
  JumpIfTrue,  ///< pop b; if b pc := A    (Or short-circuit)
  Eq,          ///< pop b, a; push a == b (variant equality)
  Lt,          ///< pop b, a; push a < b  (rational promotion)
  Le,          ///< pop b, a; push a <= b
  AddInt,      ///< pop B ints, push wrapping sum
  AddReal,     ///< pop B rationals, push exact sum
  MulInt,      ///< pop B ints, push wrapping product
  MulReal,     ///< pop B rationals, push exact product
  NegInt,      ///< pop int, push -int
  NegReal,     ///< pop rational, push -rational
  Mod,         ///< pop b, a; push Euclidean a mod b
  Div,         ///< pop b, a; push Euclidean a div b
  EndExpr,     ///< terminate an expression chunk, yielding top-of-stack
  EvalChild,   ///< run state A on input child B; fail aborts the body
  MakeNode,    ///< arena node: ctor A, rank B, signature-many attrs
  Return,      ///< terminate a body chunk, yielding top node
};

/// Number of distinct opcodes (dispatch-table size).
inline constexpr unsigned NumOps = static_cast<unsigned>(Op::Return) + 1;

const char *opName(Op O);

/// One fixed-width instruction.
struct Instr {
  Op Opcode;
  uint16_t B = 0;
  uint32_t A = 0;
};

/// Branch targets of the decision DAG and entry-table slots share one
/// encoding: >= 0 indexes a DAG node, kFailRef means "no rule applies",
/// and anything <= -2 encodes a leaf.
using DagRef = int32_t;
inline constexpr DagRef kFailRef = -1;
inline constexpr DagRef leafRef(uint32_t Leaf) {
  return -static_cast<int32_t>(Leaf) - 2;
}
inline constexpr bool isLeafRef(DagRef R) { return R <= -2; }
inline constexpr uint32_t leafIndex(DagRef R) {
  return static_cast<uint32_t>(-R - 2);
}

/// One interior decision node: evaluate the guard chunk at Expr and
/// branch.
struct DagNode {
  uint32_t Expr;
  DagRef IfTrue;
  DagRef IfFalse;
};

/// One enabled rule at a DAG leaf: its flattened body plus the rule's
/// per-child lookahead filter.  LaFirst < 0 means no lookahead; otherwise
/// LaFirst indexes rank-many consecutive LaChildSets entries.
struct Candidate {
  uint32_t Body;
  int32_t LaFirst = -1;
  /// Source rule index (diagnostics/disassembly only).
  uint32_t Rule = 0;
  /// Rank of the group's constructor = length of the LaFirst block.
  uint16_t Rank = 0;
};

/// A DAG leaf: candidates tried in rule order; when several are enabled
/// they share one body (the eligibility invariant), so lookahead only
/// decides *whether* the body runs.
struct Leaf {
  uint32_t FirstCand;
  uint32_t NumCands;
};

/// One compiled lookahead-STA rule: a guard chunk plus rank-many
/// LaChildSets entries starting at SetsFirst.
struct LaRule {
  uint32_t Guard;
  uint32_t SetsFirst;
};

/// Slice of LaRules for one (lookahead state, ctor).
struct LaEntry {
  uint32_t First = 0;
  uint32_t Count = 0;
};

/// Chain-table entries: fail, identity (`u[label](·)`: the output node
/// is the input node), or an index into VmProgram::ChainPrefixes.
inline constexpr int32_t kChainFail = -1;
inline constexpr int32_t kChainIdentity = -2;
/// A prefix label read from the input node rather than the constant pool.
inline constexpr int32_t kInputLabel = -1;

/// The output prefix of one chain rule: Count labels in ChainLabels from
/// First, outermost first, each a constant id or kInputLabel.  Zero labels
/// drop the character.
struct ChainPrefix {
  uint32_t First = 0;
  uint32_t Count = 0;
};

/// Transduction state State on unary constructor Ctor as a byte table:
/// every (State, Ctor) rule has no lookahead and outputs State(x1) inside
/// a fixed prefix of Ctor nodes.
struct ChainTable {
  uint32_t State = 0;
  uint32_t Ctor = 0;
  /// Per byte of a one-byte label: kChainFail, kChainIdentity or a prefix.
  std::array<int32_t, 256> Steps{};
};

/// Lookahead state State on unary constructor Ctor: every (State, Ctor)
/// rule constrains x1 by exactly {State}, so a chain is accepted iff each
/// of its bytes is and so is the node after it.
struct LaChainTable {
  uint32_t State = 0;
  uint32_t Ctor = 0;
  std::array<bool, 256> Accepts{};
};

/// An immutable compiled program.  Shareable across threads (the Vm keeps
/// all mutable state); keeps the source transducer's lookahead STA alive
/// so the program never outlives the structures its key hashed.
struct VmProgram {
  std::string Name;
  SignatureRef Sig;
  std::shared_ptr<const Sta> LookaheadKeepAlive;
  uint32_t NumStates = 0;
  uint32_t NumCtors = 0;
  uint32_t NumLaStates = 0;
  uint32_t StartState = 0;
  /// Structural identity of the source STTR (program-cache key).
  uint64_t SourceKey = 0;

  /// NumStates x NumCtors dispatch table of DagRefs.
  std::vector<DagRef> Entry;
  std::vector<DagNode> Dag;
  std::vector<Leaf> Leaves;
  std::vector<Candidate> Cands;
  /// Per-(candidate|la-rule) child filters: lookahead-set pool id, or -1
  /// for the empty (always-accepting) conjunction.
  std::vector<int32_t> LaChildSets;
  /// Deduplicated lookahead-state conjunctions.
  std::vector<std::vector<uint32_t>> LaSetPool;
  /// NumLaStates x NumCtors slices into LaRules.
  std::vector<LaEntry> LaEntries;
  std::vector<LaRule> LaRules;

  std::vector<Instr> Code;
  std::vector<Value> Consts;

  std::vector<ChainTable> Chains;
  std::vector<ChainPrefix> ChainPrefixes;
  std::vector<int32_t> ChainLabels;
  std::vector<LaChainTable> LaChains;
  /// NumStates x NumCtors (resp. NumLaStates x NumCtors) indices into
  /// Chains (resp. LaChains), -1 where the pair is no chain state; empty
  /// when the program has none.
  std::vector<int32_t> ChainOf;
  std::vector<int32_t> LaChainOf;

  DagRef entry(uint32_t State, uint32_t Ctor) const {
    return Entry[State * NumCtors + Ctor];
  }
  const LaEntry &laEntry(uint32_t LaState, uint32_t Ctor) const {
    return LaEntries[LaState * NumCtors + Ctor];
  }
  const ChainTable *chain(uint32_t State, uint32_t Ctor) const {
    if (ChainOf.empty())
      return nullptr;
    int32_t I = ChainOf[State * NumCtors + Ctor];
    return I < 0 ? nullptr : &Chains[I];
  }
  const LaChainTable *laChain(uint32_t LaState, uint32_t Ctor) const {
    if (LaChainOf.empty())
      return nullptr;
    int32_t I = LaChainOf[LaState * NumCtors + Ctor];
    return I < 0 ? nullptr : &LaChains[I];
  }

  /// Parseable listing consumed by tools/vm_check and `fastc --emit=vm`.
  std::string disassemble() const;
};

/// Structural identity of \p T within its session: a hash over state
/// counts, rule tuples (guards/outputs by interned pointer — stable and
/// unique for the session's lifetime), and the lookahead STA.  Two
/// structurally identical transducers built in one session collide on
/// purpose: they compile to the same program.
uint64_t sttrIdentityKey(const Sttr &T);

/// Lowers \p T into a program, or returns null and sets *WhyNot when the
/// transducer is ineligible.  Solver work (minterm splits of each rule
/// group) happens here, through the session's GuardCache; the returned
/// program never consults the solver again.  Records vm.compile stats and
/// a `vm.compile` trace span on the session engine.
std::shared_ptr<const VmProgram> compileSttr(Session &S, const Sttr &T,
                                             std::string *WhyNot = nullptr,
                                             std::string Name = "");

} // namespace fast::vm

#endif // FAST_VM_VMCOMPILE_H
