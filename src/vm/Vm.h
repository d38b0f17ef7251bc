//===- vm/Vm.h - The compiled-program interpreter ---------------*- C++ -*-===//
//
// Part of the fast-transducers project (see support/Hashing.h).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The evaluation-side of the compiled data plane: a Vm executes one
/// immutable VmProgram over concrete input trees, a ProgramCache memoizes
/// compilations per session, and attachVm/runSttrChecked wire the whole
/// plane into SttrRunner as a transparent fast path.
///
/// Threading model (mirrors the frozen-tier split of DESIGN.md §6):
/// VmPrograms are immutable and freely shared — a program compiled
/// against a base session before freeze() may be executed by any number
/// of worker Vms concurrently.  A Vm is scratch state (stacks, memo
/// tables, output arena) for one thread at a time.  attachVm checks one
/// out of the session's ProgramCache, keyed by program and TreeFactory,
/// and the runner's death returns it, so a session that serves many
/// requests allocates that scratch once, not once per request.
///
/// Run lifecycle: reset arena + run memo, evaluate (bump-allocating
/// output nodes), intern the surviving root into the TreeFactory, return.
/// Arena ids never escape a run.  An arena id may name an interned tree
/// (a ref node, VmArena.h): a chain state's output shares the unchanged
/// tail of its input chain, which intern-on-exit returns as is.
/// Lookahead verdicts are (node, state) facts independent of the arena,
/// so their memo persists across the runs of one runner, like
/// StaMembership inside one SttrRunner.  It is keyed by node address, and
/// TreeFactory::resetOverlay recycles addresses, so checkout clears it:
/// no verdict outlives the runner that computed it.
///
/// Chain states (VmCompile.h) run as loops over their byte tables, so a
/// character chain of any length costs no recursion; only the chain's head
/// is memoized.
///
//===----------------------------------------------------------------------===//

#ifndef FAST_VM_VM_H
#define FAST_VM_VM_H

#include "engine/Stats.h"
#include "support/TableMemory.h"
#include "transducers/Run.h"
#include "vm/VmArena.h"
#include "vm/VmCompile.h"

#include <mutex>
#include <unordered_map>

namespace fast::vm {

/// Open-addressed (state, node) -> int32 memo; nullptr node marks an
/// empty slot (TreeRefs are never null).  The slots are table memory
/// (support/TableMemory.h), since every probe lands at random.
///
/// The live table is the first Size slots.  Slots past it are capacity kept
/// from a larger run of the same Vm, and always empty, so reset() clears
/// only what the last sizing used and a pooled Vm that once ran a huge
/// input pays nothing for it on a small one.
class VmMemo {
public:
  bool lookup(uint32_t State, TreeRef Node, int32_t &Val) const {
    if (Size == 0)
      return false;
    size_t I = probe(State, Node);
    while (Slots[I].Node) {
      if (Slots[I].Node == Node && Slots[I].State == State) {
        Val = Slots[I].Val;
        return true;
      }
      I = (I + 1) & (Size - 1);
    }
    return false;
  }

  void insert(uint32_t State, TreeRef Node, int32_t Val) {
    if (Size == 0)
      resize(64);
    else if ((Count + 1) * 10 >= Size * 7)
      resize(Size * 2);
    size_t I = probe(State, Node);
    while (Slots[I].Node) {
      if (Slots[I].Node == Node && Slots[I].State == State) {
        Slots[I].Val = Val;
        return;
      }
      I = (I + 1) & (Size - 1);
    }
    Slots[I] = {Node, State, Val};
    ++Count;
  }

  /// Empties the table, then presizes it for about \p N insertions.  Costs
  /// the slots the previous sizing used, not the capacity.
  void reset(size_t N) {
    if (Count != 0)
      std::fill(Slots.begin(), Slots.begin() + Size, Slot{});
    Size = 0;
    Count = 0;
    reserve(N);
  }

  /// Presizes for about \p N insertions (never shrinks), avoiding the
  /// grow-rehash cascade on a cold table.  Callers bound N themselves.
  void reserve(size_t N) {
    size_t Want = 64;
    while (Want * 7 < N * 10) // Same 0.7 load factor insert() keeps.
      Want *= 2;
    if (Want > Size)
      resize(Want);
  }

  size_t size() const { return Count; }

private:
  struct Slot {
    TreeRef Node = nullptr;
    uint32_t State = 0;
    int32_t Val = 0;
  };
  using Table = std::vector<Slot, TableAllocator<Slot>>;

  size_t probe(uint32_t State, TreeRef Node) const {
    size_t H = reinterpret_cast<uintptr_t>(Node) >> 4;
    H = (H ^ (H >> 29) ^ State) * 0x9E3779B97F4A7C15ull;
    return (H ^ (H >> 32)) & (Size - 1);
  }

  /// Rehashes the live entries into a table of \p NewSize slots (a power
  /// of two above Size), in place when the capacity allows.
  void resize(size_t NewSize) {
    Table Old;
    if (NewSize > Slots.size()) {
      Old.swap(Slots);
      Slots.resize(NewSize);
    } else if (Count != 0) {
      Old.assign(Slots.begin(), Slots.begin() + Size);
      std::fill(Slots.begin(), Slots.begin() + Size, Slot{});
    }
    Size = NewSize;
    Count = 0;
    for (const Slot &S : Old)
      if (S.Node)
        insert(S.State, S.Node, S.Val);
  }

  Table Slots;
  size_t Size = 0; ///< Live slots: zero or a power of two.
  size_t Count = 0;
};

/// Executes one program, interning its outputs into one TreeFactory.
/// Scratch state for one thread at a time; runners take theirs from the
/// session's pool (ProgramCache::checkoutVm), and the program is shared.
class Vm {
public:
  Vm(std::shared_ptr<const VmProgram> Program, TreeFactory &Trees);

  const VmProgram &program() const { return *P; }
  TreeFactory &trees() const { return Trees; }

  /// Forgets every lookahead verdict, keeping the memo's capacity.  Costs
  /// the part of the memo the last runs used.
  void resetLookahead() { LaMemo.reset(0); }

  /// One transduction: T_State(Input).  At most one output by the
  /// eligibility invariant, and never truncated.  \p Input must be
  /// interned in this Vm's TreeFactory or a base it overlays: a chain's
  /// output shares the input's unchanged tail by pointer.
  SttrRunResult run(uint32_t State, TreeRef Input);

  /// Per-Vm cumulative counters, mirrored into the session VmStats by the
  /// fast-path hook.
  struct Counters {
    uint64_t Instructions = 0;
    uint64_t MemoHits = 0;
    uint64_t LookaheadChecks = 0;
    uint64_t ArenaNodes = 0;
    uint64_t InternedNodes = 0;
  };
  const Counters &counters() const { return C; }

private:
  static constexpr int32_t kFailResult = -1;

  /// Transduction state State on Node -> arena id or kFailResult.
  int32_t evalState(uint32_t State, TreeRef Node);
  /// The dispatch DAG and the chosen rule's body, for evalState.
  int32_t evalRules(uint32_t State, TreeRef Node);
  /// A chain state on the chain headed by \p Head: walks it by table, runs
  /// the node after it through evalState, and builds the output from the
  /// back, sharing the longest unchanged tail with the input.
  int32_t evalChain(const ChainTable &Chain, TreeRef Head);
  /// Whether arena node \p Id stands for the interned tree \p Tree (a ref
  /// to it, or an equal leaf).
  bool isTree(uint32_t Id, TreeRef Tree) const;
  /// Lookahead membership Node in L(LaState), memoized across runs.
  bool evalLa(uint32_t LaState, TreeRef Node);
  bool evalLaChain(const LaChainTable &Chain, TreeRef Node);
  bool evalLaRules(uint32_t LaState, TreeRef Node);
  bool laPasses(const Candidate &Cand, TreeRef Node);
  /// Executes one code chunk: EndExpr chunks yield 0/1, body chunks an
  /// arena id or kFailResult.
  int32_t exec(uint32_t Pc, TreeRef Node);
  bool execBool(uint32_t Pc, TreeRef Node) { return exec(Pc, Node) != 0; }
  /// Interns the output tree rooted at arena node \p Root.
  TreeRef intern(uint32_t Root);

  std::shared_ptr<const VmProgram> P;
  TreeFactory &Trees;
  VmArena Arena;
  VmMemo RunMemo; ///< (state, node) -> arena id; reset per run.
  VmMemo LaMemo;  ///< (la state, node) -> bool; reset per checkout.
  std::vector<VmValue> ValStack;
  std::vector<uint32_t> NodeStack;
  std::vector<VmValue> ConstVals; ///< Unboxed view of P->Consts.
  /// evalChain's walked nodes and table steps; nested chains stack up.
  std::vector<std::pair<TreeRef, int32_t>> Walk;
  /// intern() scratch, reused across runs: arena id -> interned tree, the
  /// ids the root reaches, and the key under construction.
  std::vector<TreeRef> InternMemo;
  std::vector<uint8_t> Reached;
  std::vector<TreeRef> ChildBuf;
  std::vector<Value> AttrBuf;
  Counters C;
};

/// Per-session memo of compilations, positive and negative, keyed by
/// structural transducer identity (vm::sttrIdentityKey), and the pool of
/// idle Vms that run them.  Thread-safe; lives on Session::VmCache.
class ProgramCache {
public:
  /// Returns the cached program (or null for a cached ineligibility —
  /// *Known distinguishes the two null cases).
  std::shared_ptr<const VmProgram> lookup(uint64_t Key, bool *Known,
                                          std::string *WhyNot = nullptr);
  void insert(uint64_t Key, std::shared_ptr<const VmProgram> Program);
  void insertIneligible(uint64_t Key, std::string WhyNot);
  size_t size();

  /// A Vm running \p Program and interning into \p Trees: an idle pooled
  /// one with its lookahead memo cleared, or a new one.  Only an exact
  /// (program, factory) match is reused, so an overlay's runner never gets
  /// a Vm bound to the frozen base (whose interning would throw).
  std::unique_ptr<Vm> checkoutVm(std::shared_ptr<const VmProgram> Program,
                                 TreeFactory &Trees);
  /// Returns \p Machine to the idle pool.  The pool never holds more Vms
  /// per (program, factory) than runners of it were attached at once.
  void checkinVm(std::unique_ptr<Vm> Machine);
  /// Vms checkoutVm has built, idle or checked out.
  size_t vmsBuilt();

private:
  std::mutex M;
  std::unordered_map<uint64_t, std::shared_ptr<const VmProgram>> Programs;
  std::unordered_map<uint64_t, std::string> Ineligible;
  std::vector<std::unique_ptr<Vm>> IdleVms;
  size_t VmsBuilt = 0;
};

/// The session's program cache, created on first use.
ProgramCache &programCache(Session &S);

/// Cache-aware compilation: looks up \p T by structural identity, compiles
/// on a miss, and memoizes both outcomes.  Null means ineligible (reason
/// in *WhyNot).
std::shared_ptr<const VmProgram> compiledProgram(Session &S, const Sttr &T,
                                                 std::string *WhyNot = nullptr,
                                                 std::string Name = "");

/// Installs the compiled fast path on \p R when \p T is eligible; returns
/// false (leaving R untouched) otherwise.  The runner then evaluates on
/// bytecode with a `vm.run` span/stats trail, falling back transparently
/// for states outside the program.  Its Vm comes from \p S's pool and goes
/// back when the runner (its last copy) dies.
bool attachVm(SttrRunner &R, Session &S, const Sttr &T, std::string Name = "");

/// Drop-in replacement for fast::runSttrChecked that routes through the
/// compiled plane when possible and counts interpreter fallbacks.
SttrRunResult runSttrChecked(Session &S, const Sttr &T, TreeRef Input,
                             std::string Name = "");

} // namespace fast::vm

#endif // FAST_VM_VM_H
