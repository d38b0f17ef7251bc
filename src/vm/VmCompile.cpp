//===- vm/VmCompile.cpp - Lowering STTRs to register-machine code ---------===//

#include "vm/VmCompile.h"

#include "engine/Engine.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <optional>
#include <span>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

using namespace fast;
using namespace fast::vm;

const char *fast::vm::opName(Op O) {
  switch (O) {
  case Op::PushConst:
    return "push_const";
  case Op::PushAttr:
    return "push_attr";
  case Op::PushTrue:
    return "push_true";
  case Op::PushFalse:
    return "push_false";
  case Op::Not:
    return "not";
  case Op::Jump:
    return "jump";
  case Op::JumpIfFalse:
    return "jump_if_false";
  case Op::JumpIfTrue:
    return "jump_if_true";
  case Op::Eq:
    return "eq";
  case Op::Lt:
    return "lt";
  case Op::Le:
    return "le";
  case Op::AddInt:
    return "add_int";
  case Op::AddReal:
    return "add_real";
  case Op::MulInt:
    return "mul_int";
  case Op::MulReal:
    return "mul_real";
  case Op::NegInt:
    return "neg_int";
  case Op::NegReal:
    return "neg_real";
  case Op::Mod:
    return "mod";
  case Op::Div:
    return "div";
  case Op::EndExpr:
    return "end_expr";
  case Op::EvalChild:
    return "eval_child";
  case Op::MakeNode:
    return "make_node";
  case Op::Return:
    return "return";
  }
  return "?";
}

uint64_t fast::vm::sttrIdentityKey(const Sttr &T) {
  std::size_t Seed = 0x5eedull;
  hashCombineValue(Seed, T.numStates());
  hashCombineValue(Seed, T.startState());
  hashCombineValue(Seed, T.signature().get());
  for (const SttrRule &R : T.rules()) {
    hashCombineValue(Seed, R.State);
    hashCombineValue(Seed, R.CtorId);
    hashCombineValue(Seed, R.Guard);
    hashCombineValue(Seed, R.Out);
    for (const StateSet &S : R.Lookahead) {
      hashCombineValue(Seed, S.size());
      for (unsigned Q : S)
        hashCombineValue(Seed, Q);
    }
  }
  const Sta &La = T.lookahead();
  hashCombineValue(Seed, La.numStates());
  for (const StaRule &R : La.rules()) {
    hashCombineValue(Seed, R.State);
    hashCombineValue(Seed, R.CtorId);
    hashCombineValue(Seed, R.Guard);
    for (const StateSet &S : R.Lookahead) {
      hashCombineValue(Seed, S.size());
      for (unsigned Q : S)
        hashCombineValue(Seed, Q);
    }
  }
  return static_cast<uint64_t>(Seed);
}

namespace {

/// Internal control flow of the compiler: thrown on the first
/// ineligibility, caught by compileSttr.
struct CompileError {
  std::string Why;
};

[[noreturn]] void ineligible(std::string Why) { throw CompileError{std::move(Why)}; }

/// Guard groups larger than this would make the minterm enumeration (and
/// hence compile time) exponential; such transducers stay on the
/// structural interpreter.
constexpr size_t MaxGroupGuards = 10;

class Compiler {
public:
  Compiler(Session &S, const Sttr &T, std::string Name)
      : Sess(S), T(T), Sig(T.signature()), GC(S.engine().Guards) {
    P = std::make_shared<VmProgram>();
    P->Name = std::move(Name);
    P->Sig = Sig;
    P->NumStates = T.numStates();
    P->NumCtors = Sig->numConstructors();
    P->NumLaStates = T.lookahead().numStates();
    P->StartState = T.startState();
    P->SourceKey = sttrIdentityKey(T);
  }

  std::shared_ptr<const VmProgram> compile() {
    if (Sig->numAttrs() > 0xFFFF)
      ineligible("attribute tuple too wide for MakeNode");
    compileLookahead();
    P->Entry.assign(size_t(P->NumStates) * P->NumCtors, kFailRef);
    for (uint32_t State = 0; State < P->NumStates; ++State)
      for (uint32_t Ctor = 0; Ctor < P->NumCtors; ++Ctor)
        P->Entry[State * P->NumCtors + Ctor] = compileGroup(State, Ctor);
    compileChains();
    // Keep the lookahead STA alive as long as the program (guards and
    // outputs live in the session factories and never die; the STA is
    // the one piece owned by the source transducer).
    P->LookaheadKeepAlive = const_cast<Sttr &>(T).lookaheadPtr();
    return P;
  }

private:
  //===--------------------------------------------------------------------===//
  // Code emission
  //===--------------------------------------------------------------------===//

  uint32_t emit(Op O, uint32_t A = 0, uint16_t B = 0) {
    P->Code.push_back({O, B, A});
    return static_cast<uint32_t>(P->Code.size() - 1);
  }
  void patch(uint32_t At, uint32_t Target) { P->Code[At].A = Target; }
  uint32_t here() const { return static_cast<uint32_t>(P->Code.size()); }

  uint32_t constId(TermRef T) {
    auto [It, New] = ConstMemo.try_emplace(T, 0);
    if (New) {
      It->second = static_cast<uint32_t>(P->Consts.size());
      P->Consts.push_back(T->constValue());
    }
    return It->second;
  }

  /// Validates that \p E only reads attributes the schema has; every
  /// TermKind is concretely evaluable, so this is the whole
  /// "concrete-testable" check for expressions.
  void checkExpr(TermRef E) {
    if (!CheckedExprs.insert(E).second)
      return;
    if (E->kind() == TermKind::Attr && E->attrIndex() >= Sig->numAttrs())
      ineligible("expression reads attribute " +
                 std::to_string(E->attrIndex()) + " outside the schema");
    for (TermRef Op : E->operands())
      checkExpr(Op);
  }

  /// Appends the expression inline (net effect: push one value), with
  /// And/Or/Ite compiled to short-circuit branches in evalTerm's
  /// evaluation order.
  void emitExpr(TermRef E) {
    switch (E->kind()) {
    case TermKind::ConstValue:
      emit(Op::PushConst, constId(E));
      return;
    case TermKind::Attr:
      emit(Op::PushAttr, E->attrIndex());
      return;
    case TermKind::Not:
      emitExpr(E->operand(0));
      emit(Op::Not);
      return;
    case TermKind::And:
    case TermKind::Or: {
      const bool IsAnd = E->kind() == TermKind::And;
      std::vector<uint32_t> Shorts;
      for (TermRef Op : E->operands()) {
        emitExpr(Op);
        Shorts.push_back(emit(IsAnd ? Op::JumpIfFalse : Op::JumpIfTrue));
      }
      emit(IsAnd ? Op::PushTrue : Op::PushFalse);
      uint32_t End = emit(Op::Jump);
      uint32_t ShortTarget = here();
      emit(IsAnd ? Op::PushFalse : Op::PushTrue);
      for (uint32_t J : Shorts)
        patch(J, ShortTarget);
      patch(End, here());
      return;
    }
    case TermKind::Ite: {
      emitExpr(E->operand(0));
      uint32_t ToElse = emit(Op::JumpIfFalse);
      emitExpr(E->operand(1));
      uint32_t ToEnd = emit(Op::Jump);
      patch(ToElse, here());
      emitExpr(E->operand(2));
      patch(ToEnd, here());
      return;
    }
    case TermKind::Eq:
      emitExpr(E->operand(0));
      emitExpr(E->operand(1));
      emit(Op::Eq);
      return;
    case TermKind::Lt:
    case TermKind::Le:
      emitExpr(E->operand(0));
      emitExpr(E->operand(1));
      emit(E->kind() == TermKind::Lt ? Op::Lt : Op::Le);
      return;
    case TermKind::Add:
    case TermKind::Mul: {
      if (E->numOperands() > 0xFFFF)
        ineligible("arithmetic operand list too long");
      for (TermRef Op : E->operands())
        emitExpr(Op);
      const bool IsInt = E->sort() == Sort::Int;
      const bool IsAdd = E->kind() == TermKind::Add;
      emit(IsAdd ? (IsInt ? Op::AddInt : Op::AddReal)
                 : (IsInt ? Op::MulInt : Op::MulReal),
           0, static_cast<uint16_t>(E->numOperands()));
      return;
    }
    case TermKind::Neg:
      emitExpr(E->operand(0));
      emit(E->sort() == Sort::Int ? Op::NegInt : Op::NegReal);
      return;
    case TermKind::Mod:
    case TermKind::Div:
      emitExpr(E->operand(0));
      emitExpr(E->operand(1));
      emit(E->kind() == TermKind::Mod ? Op::Mod : Op::Div);
      return;
    }
    ineligible("unhandled term kind");
  }

  /// A standalone EndExpr-terminated chunk for \p E, deduplicated by term
  /// identity (guards recur across rules and DAG nodes).
  uint32_t chunk(TermRef E) {
    auto [It, New] = ChunkMemo.try_emplace(E, 0);
    if (New) {
      checkExpr(E);
      It->second = here();
      emitExpr(E);
      emit(Op::EndExpr);
    }
    return It->second;
  }

  //===--------------------------------------------------------------------===//
  // Bodies
  //===--------------------------------------------------------------------===//

  /// Largest input-child index the transformer applies a state to, plus
  /// one (0 when it reads no child).
  uint32_t childSpan(OutputRef Out) {
    auto [It, New] = SpanMemo.try_emplace(Out, 0);
    if (!New)
      return It->second;
    uint32_t Span = 0;
    if (Out->isState())
      Span = Out->childIndex() + 1;
    else
      for (OutputRef C : Out->children())
        Span = std::max(Span, childSpan(C));
    It->second = Span;
    return Span;
  }

  void emitBody(OutputRef Out) {
    if (Out->isState()) {
      if (Out->state() >= P->NumStates)
        ineligible("output applies an unknown state");
      if (Out->childIndex() > 0xFFFF)
        ineligible("output child index too large");
      emit(Op::EvalChild, Out->state(),
           static_cast<uint16_t>(Out->childIndex()));
      return;
    }
    if (Out->ctorId() >= P->NumCtors)
      ineligible("output uses an unknown constructor");
    const uint32_t Rank = Sig->rank(Out->ctorId());
    if (Out->labelExprs().size() != Sig->numAttrs() ||
        Out->children().size() != Rank)
      ineligible("output constructor arity mismatch");
    for (TermRef E : Out->labelExprs()) {
      checkExpr(E);
      emitExpr(E);
    }
    for (OutputRef C : Out->children())
      emitBody(C);
    emit(Op::MakeNode, Out->ctorId(), static_cast<uint16_t>(Rank));
  }

  /// A Return-terminated body chunk, deduplicated by output identity (the
  /// eligibility rule makes same-region rules share outputs, and
  /// composition reuses fragments heavily).
  uint32_t body(OutputRef Out) {
    auto [It, New] = BodyMemo.try_emplace(Out, 0);
    if (New) {
      It->second = here();
      emitBody(Out);
      emit(Op::Return);
    }
    return It->second;
  }

  //===--------------------------------------------------------------------===//
  // Lookahead
  //===--------------------------------------------------------------------===//

  int32_t laSetId(const StateSet &Set) {
    if (Set.empty())
      return -1;
    for (unsigned Q : Set)
      if (Q >= P->NumLaStates)
        ineligible("lookahead references an unknown STA state");
    std::vector<uint32_t> Key(Set.begin(), Set.end());
    auto [It, New] = LaSetMemo.try_emplace(Key, 0);
    if (New) {
      It->second = static_cast<int32_t>(P->LaSetPool.size());
      P->LaSetPool.push_back(std::move(Key));
    }
    return It->second;
  }

  /// Per-child filter block: rank-many LaChildSets entries, or -1 when
  /// every conjunction is empty.
  int32_t laFilter(const std::vector<StateSet> &Lookahead) {
    bool AllEmpty = true;
    for (const StateSet &S : Lookahead)
      AllEmpty &= S.empty();
    if (AllEmpty)
      return -1;
    int32_t First = static_cast<int32_t>(P->LaChildSets.size());
    for (const StateSet &S : Lookahead)
      P->LaChildSets.push_back(laSetId(S));
    return First;
  }

  void compileLookahead() {
    const Sta &La = T.lookahead();
    P->LaEntries.assign(size_t(P->NumLaStates) * P->NumCtors, LaEntry{});
    for (uint32_t State = 0; State < P->NumLaStates; ++State) {
      for (uint32_t Ctor = 0; Ctor < P->NumCtors; ++Ctor) {
        LaEntry &E = P->LaEntries[State * P->NumCtors + Ctor];
        E.First = static_cast<uint32_t>(P->LaRules.size());
        for (unsigned Index : La.rulesFrom(State, Ctor)) {
          const StaRule &R = La.rule(Index);
          if (R.Lookahead.size() != Sig->rank(Ctor))
            ineligible("lookahead rule arity mismatch");
          LaRule Compiled;
          Compiled.Guard = chunk(R.Guard);
          Compiled.SetsFirst = static_cast<uint32_t>(P->LaChildSets.size());
          for (const StateSet &S : R.Lookahead)
            P->LaChildSets.push_back(laSetId(S));
          P->LaRules.push_back(Compiled);
        }
        E.Count = static_cast<uint32_t>(P->LaRules.size()) - E.First;
      }
    }
  }

  //===--------------------------------------------------------------------===//
  // Guard decision DAGs
  //===--------------------------------------------------------------------===//

  /// Key of a leaf: the candidate list as (body, lookahead) pairs.
  using LeafKey = std::vector<std::pair<uint32_t, int32_t>>;

  DagRef internLeaf(const std::vector<Candidate> &Cands) {
    if (Cands.empty())
      return kFailRef;
    LeafKey Key;
    Key.reserve(Cands.size());
    for (const Candidate &C : Cands)
      Key.emplace_back(C.Body, C.LaFirst);
    auto [It, New] = LeafMemo.try_emplace(Key, 0);
    if (New) {
      It->second = static_cast<uint32_t>(P->Leaves.size());
      Leaf L;
      L.FirstCand = static_cast<uint32_t>(P->Cands.size());
      L.NumCands = static_cast<uint32_t>(Cands.size());
      P->Cands.insert(P->Cands.end(), Cands.begin(), Cands.end());
      P->Leaves.push_back(L);
    }
    return leafRef(It->second);
  }

  DagRef compileGroup(uint32_t State, uint32_t Ctor) {
    const std::vector<unsigned> &Rules = T.rulesFrom(State, Ctor);
    if (Rules.empty())
      return kFailRef;
    const uint32_t Rank = Sig->rank(Ctor);

    // Distinct guards of the group, counted before any solver work so
    // wide nondeterministic groups bail out cheaply.
    std::vector<TermRef> Guards;
    Guards.reserve(Rules.size());
    std::unordered_set<TermRef> Distinct;
    for (unsigned Index : Rules) {
      TermRef G = T.rule(Index).Guard;
      checkExpr(G);
      Guards.push_back(G);
      Distinct.insert(G);
    }
    if (Distinct.size() > MaxGroupGuards)
      ineligible("state " + T.stateName(State) + "/" + Sig->ctorName(Ctor) +
                 ": " + std::to_string(Distinct.size()) +
                 " distinct guards (decision DAG bound is " +
                 std::to_string(MaxGroupGuards) + ")");

    // Canonical split through the session minterm trie: Split.Guards is
    // the deduplicated set sorted by term id — the DAG's test order.
    const MintermSplit &Split = GC.minterms(Guards);
    std::vector<uint32_t> GuardIdx(Rules.size());
    for (size_t R = 0; R < Rules.size(); ++R) {
      auto It = std::find(Split.Guards.begin(), Split.Guards.end(), Guards[R]);
      assert(It != Split.Guards.end() && "guard lost by canonicalization");
      GuardIdx[R] = static_cast<uint32_t>(It - Split.Guards.begin());
    }

    const size_t NumRegions = Split.Regions.size();
    if (NumRegions == 0)
      return kFailRef; // Every guard is unsatisfiable.

    // Enabled rules per region, checked for the single-output invariant
    // (or, failing that, whole-transducer determinism) and lowered to
    // candidates.
    std::vector<std::vector<Candidate>> RegionCands(NumRegions);
    for (size_t Region = 0; Region < NumRegions; ++Region) {
      const Minterm &M = Split.Regions[Region];
      OutputRef SharedOut = nullptr;
      for (size_t R = 0; R < Rules.size(); ++R) {
        if (!M.Polarity[GuardIdx[R]])
          continue;
        const SttrRule &Rule = T.rule(Rules[R]);
        if (SharedOut && Rule.Out != SharedOut)
          requireDeterministic(State, Ctor);
        SharedOut = Rule.Out;
        if (childSpan(Rule.Out) > Rank)
          ineligible("output reads a child beyond the constructor rank");
        if (Rule.Lookahead.size() != Rank)
          ineligible("rule lookahead arity mismatch");
        Candidate C;
        C.Body = body(Rule.Out);
        C.LaFirst = laFilter(Rule.Lookahead);
        C.Rule = Rules[R];
        C.Rank = static_cast<uint16_t>(Rank);
        // Identical (body, lookahead) pairs are genuine duplicates.
        bool Dup = false;
        for (const Candidate &Prev : RegionCands[Region])
          Dup |= Prev.Body == C.Body && Prev.LaFirst == C.LaFirst;
        if (!Dup)
          RegionCands[Region].push_back(C);
      }
    }

    // Decision DAG over alive-region sets.  Every concrete input lies in
    // exactly one region (its full minterm is satisfied by the input
    // itself), and each test keeps the input's region alive, so skipping
    // guards all alive regions agree on is sound.  Child refs are built
    // before their parent node is appended, so DagNode targets always
    // index strictly below the node itself (the validator's acyclicity
    // invariant).
    std::map<std::vector<uint32_t>, DagRef> NodeMemo;
    std::vector<uint32_t> All(NumRegions);
    for (uint32_t I = 0; I < NumRegions; ++I)
      All[I] = I;

    auto Build = [&](auto &&Self, const std::vector<uint32_t> &Alive) -> DagRef {
      auto Found = NodeMemo.find(Alive);
      if (Found != NodeMemo.end())
        return Found->second;
      // Collapse when every alive region enables the same candidates.
      bool AllSame = true;
      for (size_t I = 1; I < Alive.size() && AllSame; ++I) {
        const std::vector<Candidate> &A = RegionCands[Alive[0]];
        const std::vector<Candidate> &B = RegionCands[Alive[I]];
        AllSame = A.size() == B.size();
        for (size_t J = 0; AllSame && J < A.size(); ++J)
          AllSame = A[J].Body == B[J].Body && A[J].LaFirst == B[J].LaFirst;
      }
      DagRef Ref;
      if (AllSame) {
        Ref = internLeaf(RegionCands[Alive[0]]);
      } else {
        // First guard (in canonical trie order) the alive regions
        // disagree on; guaranteed to exist when candidate lists differ.
        uint32_t Test = 0;
        bool FoundTest = false;
        for (uint32_t G = 0; G < Split.Guards.size() && !FoundTest; ++G) {
          bool First = Split.Regions[Alive[0]].Polarity[G];
          for (uint32_t R : Alive)
            if (Split.Regions[R].Polarity[G] != First) {
              Test = G;
              FoundTest = true;
              break;
            }
        }
        assert(FoundTest && "regions differ but agree on every guard");
        std::vector<uint32_t> Pos, Neg;
        for (uint32_t R : Alive)
          (Split.Regions[R].Polarity[Test] ? Pos : Neg).push_back(R);
        DagRef IfTrue = Self(Self, Pos);
        DagRef IfFalse = Self(Self, Neg);
        DagNode N;
        N.Expr = chunk(Split.Guards[Test]);
        N.IfTrue = IfTrue;
        N.IfFalse = IfFalse;
        P->Dag.push_back(N);
        DagGuards.push_back(Split.Guards[Test]);
        Ref = static_cast<DagRef>(P->Dag.size() - 1);
      }
      NodeMemo.emplace(Alive, Ref);
      return Ref;
    };
    return Build(Build, All);
  }

  //===--------------------------------------------------------------------===//
  // Chain tables
  //===--------------------------------------------------------------------===//

  /// Whether evaluating \p E may divide by zero.  A table evaluates its
  /// guards on every byte, including bytes no input ever carries, so such
  /// guards keep their state off the chain path.
  bool mayTrap(TermRef E) {
    auto [It, New] = TrapMemo.try_emplace(E, false);
    if (!New)
      return It->second;
    bool Trap = E->kind() == TermKind::Mod || E->kind() == TermKind::Div;
    for (TermRef Op : E->operands())
      Trap = Trap || mayTrap(Op);
    TrapMemo[E] = Trap;
    return Trap;
  }

  static Value byteLabel(unsigned B) {
    return Value::string(std::string(1, static_cast<char>(B)));
  }

  /// Chain states exist only over one String attribute (HtmlE's tag), so
  /// that a node is its constructor, its label and its child.
  void compileChains() {
    if (Sig->numAttrs() != 1 || Sig->attrSpec(0).TheSort != Sort::String)
      return;
    for (uint32_t Ctor = 0; Ctor < P->NumCtors; ++Ctor) {
      if (Sig->rank(Ctor) != 1)
        continue;
      for (uint32_t State = 0; State < P->NumStates; ++State)
        compileChain(State, Ctor);
      for (uint32_t State = 0; State < P->NumLaStates; ++State)
        compileLaChain(State, Ctor);
    }
  }

  /// The labels of the Ctor nodes \p Out wraps around State(x1), outermost
  /// first, or nullopt when Out has another shape.
  std::optional<std::vector<int32_t>> chainPrefix(OutputRef Out,
                                                  uint32_t State,
                                                  uint32_t Ctor) {
    std::vector<int32_t> Labels;
    for (; !Out->isState(); Out = Out->children()[0]) {
      if (Out->ctorId() != Ctor)
        return std::nullopt;
      TermRef L = Out->labelExprs()[0];
      if (L->kind() == TermKind::Attr)
        Labels.push_back(kInputLabel);
      else if (L->kind() == TermKind::ConstValue && L->sort() == Sort::String)
        Labels.push_back(static_cast<int32_t>(constId(L)));
      else
        return std::nullopt;
    }
    if (Out->state() != State || Out->childIndex() != 0)
      return std::nullopt;
    return Labels;
  }

  /// The rule whose body the compiled (State, Ctor) dispatch runs on a
  /// node labelled \p Label, or -1 when it fails.
  int32_t dispatchedRule(DagRef Ref, std::span<const Value> Label) {
    while (Ref >= 0)
      Ref = evalPredicate(DagGuards[Ref], Label) ? P->Dag[Ref].IfTrue
                                                 : P->Dag[Ref].IfFalse;
    if (Ref == kFailRef)
      return -1;
    const Candidate &First = P->Cands[P->Leaves[leafIndex(Ref)].FirstCand];
    assert(First.LaFirst < 0 && "chain rules carry no lookahead");
    return static_cast<int32_t>(First.Rule);
  }

  void compileChain(uint32_t State, uint32_t Ctor) {
    const std::vector<unsigned> &Rules = T.rulesFrom(State, Ctor);
    if (Rules.empty())
      return;
    std::unordered_map<unsigned, std::vector<int32_t>> Prefixes;
    for (unsigned Index : Rules) {
      const SttrRule &R = T.rule(Index);
      if (!R.Lookahead[0].empty() || mayTrap(R.Guard))
        return;
      std::optional<std::vector<int32_t>> Labels =
          chainPrefix(R.Out, State, Ctor);
      if (!Labels)
        return;
      Prefixes.emplace(Index, std::move(*Labels));
    }
    ChainTable Tab;
    Tab.State = State;
    Tab.Ctor = Ctor;
    for (unsigned B = 0; B < 256; ++B) {
      const Value Label[] = {byteLabel(B)};
      int32_t Rule = dispatchedRule(P->entry(State, Ctor), Label);
      if (Rule < 0) {
        Tab.Steps[B] = kChainFail;
        continue;
      }
      const std::vector<int32_t> &Labels = Prefixes.at(Rule);
      if (Labels.size() == 1 &&
          (Labels[0] == kInputLabel || P->Consts[Labels[0]] == Label[0])) {
        Tab.Steps[B] = kChainIdentity;
        continue;
      }
      auto [It, New] = PrefixMemo.try_emplace(
          Labels, static_cast<int32_t>(P->ChainPrefixes.size()));
      if (New) {
        P->ChainPrefixes.push_back(
            {static_cast<uint32_t>(P->ChainLabels.size()),
             static_cast<uint32_t>(Labels.size())});
        P->ChainLabels.insert(P->ChainLabels.end(), Labels.begin(),
                              Labels.end());
      }
      Tab.Steps[B] = It->second;
    }
    if (P->ChainOf.empty())
      P->ChainOf.assign(size_t(P->NumStates) * P->NumCtors, -1);
    P->ChainOf[State * P->NumCtors + Ctor] =
        static_cast<int32_t>(P->Chains.size());
    P->Chains.push_back(Tab);
  }

  void compileLaChain(uint32_t State, uint32_t Ctor) {
    const Sta &La = T.lookahead();
    const std::vector<unsigned> &Rules = La.rulesFrom(State, Ctor);
    if (Rules.empty())
      return;
    for (unsigned Index : Rules) {
      const StaRule &R = La.rule(Index);
      if (R.Lookahead[0] != StateSet{State} || mayTrap(R.Guard))
        return;
    }
    LaChainTable Tab;
    Tab.State = State;
    Tab.Ctor = Ctor;
    for (unsigned B = 0; B < 256; ++B) {
      const Value Label[] = {byteLabel(B)};
      for (unsigned Index : Rules)
        Tab.Accepts[B] |= evalPredicate(La.rule(Index).Guard, Label);
    }
    if (P->LaChainOf.empty())
      P->LaChainOf.assign(size_t(P->NumLaStates) * P->NumCtors, -1);
    P->LaChainOf[State * P->NumCtors + Ctor] =
        static_cast<int32_t>(P->LaChains.size());
    P->LaChains.push_back(Tab);
  }

  /// A region whose enabled rules have distinct outputs stays eligible
  /// only when the whole transducer is deterministic: then the rules'
  /// lookahead languages are pairwise separated on some child, at most
  /// one candidate's filter can pass at run time, and "first passing
  /// candidate wins" is exact.  One solver-backed check per compilation,
  /// memoized — and the only solver use beyond the minterm splits.
  void requireDeterministic(uint32_t State, uint32_t Ctor) {
    if (!Deterministic)
      Deterministic = T.isDeterministic(Sess.Solv);
    if (!*Deterministic)
      ineligible("state " + T.stateName(State) + "/" + Sig->ctorName(Ctor) +
                 ": overlapping guards with distinct outputs "
                 "(nondeterministic)");
  }

  Session &Sess;
  const Sttr &T;
  SignatureRef Sig;
  engine::GuardCache &GC;
  std::shared_ptr<VmProgram> P;
  std::optional<bool> Deterministic;

  std::unordered_map<TermRef, uint32_t> ConstMemo;
  std::unordered_map<TermRef, uint32_t> ChunkMemo;
  std::unordered_set<TermRef> CheckedExprs;
  std::unordered_map<OutputRef, uint32_t> BodyMemo;
  std::unordered_map<OutputRef, uint32_t> SpanMemo;
  std::map<std::vector<uint32_t>, int32_t> LaSetMemo;
  std::map<LeafKey, uint32_t> LeafMemo;
  /// The guard each P->Dag node tests, by index.
  std::vector<TermRef> DagGuards;
  std::unordered_map<TermRef, bool> TrapMemo;
  std::map<std::vector<int32_t>, int32_t> PrefixMemo;
};

} // namespace

std::shared_ptr<const VmProgram>
fast::vm::compileSttr(Session &S, const Sttr &T, std::string *WhyNot,
                      std::string Name) {
  engine::VmStats &VS = S.stats().vm();
  engine::ConstructionScope Scope(S.stats(), "vm.compile");
  auto Start = std::chrono::steady_clock::now();
  try {
    Compiler C(S, T, std::move(Name));
    std::shared_ptr<const VmProgram> P = C.compile();
    ++VS.ProgramsCompiled;
    VS.CompileUs.record(std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - Start)
                            .count());
    return P;
  } catch (const CompileError &E) {
    ++VS.Ineligible;
    if (WhyNot)
      *WhyNot = E.Why;
    return nullptr;
  }
}

//===----------------------------------------------------------------------===//
// Disassembly
//===----------------------------------------------------------------------===//

namespace {

void printRef(std::ostream &Out, DagRef R) {
  if (R == kFailRef)
    Out << "fail";
  else if (isLeafRef(R))
    Out << "leaf " << leafIndex(R);
  else
    Out << "dag " << R;
}

} // namespace

std::string VmProgram::disassemble() const {
  std::ostringstream Out;
  Out << "vm program \"" << Name << "\"\n";
  Out << "signature \"" << Sig->typeName() << "\" attrs " << Sig->numAttrs()
      << " ctors " << NumCtors << "\n";
  for (uint32_t C = 0; C < NumCtors; ++C)
    Out << "ctor " << C << " \"" << Sig->ctorName(C) << "\" rank "
        << Sig->rank(C) << "\n";
  Out << "states " << NumStates << " start " << StartState << " la-states "
      << NumLaStates << " dag " << Dag.size() << " leaves " << Leaves.size()
      << " cands " << Cands.size() << " code " << Code.size() << " consts "
      << Consts.size() << " la-sets " << LaSetPool.size() << " la-rules "
      << LaRules.size() << " chains " << Chains.size() << " chain-prefixes "
      << ChainPrefixes.size() << " la-chains " << LaChains.size() << "\n";
  for (size_t I = 0; I < Consts.size(); ++I)
    Out << "const " << I << " " << Consts[I].str() << "\n";
  for (size_t I = 0; I < LaSetPool.size(); ++I) {
    Out << "la-set " << I << " {";
    for (uint32_t Q : LaSetPool[I])
      Out << " " << Q;
    Out << " }\n";
  }
  for (uint32_t State = 0; State < NumStates; ++State)
    for (uint32_t Ctor = 0; Ctor < NumCtors; ++Ctor) {
      Out << "entry " << State << " " << Ctor << " ";
      printRef(Out, entry(State, Ctor));
      Out << "\n";
    }
  for (size_t I = 0; I < Dag.size(); ++I) {
    Out << "dag " << I << ": expr @" << Dag[I].Expr << " ? ";
    printRef(Out, Dag[I].IfTrue);
    Out << " : ";
    printRef(Out, Dag[I].IfFalse);
    Out << "\n";
  }
  auto PrintLaBlock = [&](int32_t First, size_t Rank) {
    if (First < 0) {
      Out << "none";
      return;
    }
    Out << "[";
    for (size_t I = 0; I < Rank; ++I) {
      int32_t Set = LaChildSets[First + I];
      if (Set < 0)
        Out << " -";
      else
        Out << " " << Set;
    }
    Out << " ]";
  };
  for (size_t I = 0; I < Leaves.size(); ++I) {
    Out << "leaf " << I << ": cands " << Leaves[I].NumCands << "\n";
    for (uint32_t C = 0; C < Leaves[I].NumCands; ++C) {
      const Candidate &Cand = Cands[Leaves[I].FirstCand + C];
      Out << "cand: rule " << Cand.Rule << " rank " << Cand.Rank << " body @"
          << Cand.Body << " la ";
      PrintLaBlock(Cand.LaFirst, Cand.Rank);
      Out << "\n";
    }
  }
  for (uint32_t State = 0; State < NumLaStates; ++State)
    for (uint32_t Ctor = 0; Ctor < NumCtors; ++Ctor) {
      const LaEntry &E = laEntry(State, Ctor);
      if (E.Count == 0)
        continue;
      Out << "la-entry " << State << " " << Ctor << ": rules " << E.Count
          << "\n";
      for (uint32_t R = 0; R < E.Count; ++R) {
        const LaRule &Rule = LaRules[E.First + R];
        Out << "la-rule: guard @" << Rule.Guard << " sets ";
        PrintLaBlock(static_cast<int32_t>(Rule.SetsFirst),
                     Sig->rank(Ctor));
        Out << "\n";
      }
    }
  // Chain tables as runs of equal entries: "FROM-TO:KIND" (or "B:KIND").
  auto PrintRuns = [&](auto Kind) {
    Out << " bytes";
    for (unsigned B = 0; B < 256;) {
      unsigned End = B;
      while (End + 1 < 256 && Kind(End + 1) == Kind(B))
        ++End;
      Out << " " << B;
      if (End != B)
        Out << "-" << End;
      Out << ":" << Kind(B);
      B = End + 1;
    }
    Out << "\n";
  };
  for (size_t I = 0; I < ChainPrefixes.size(); ++I) {
    Out << "chain-prefix " << I << ":";
    for (uint32_t K = 0; K < ChainPrefixes[I].Count; ++K) {
      int32_t L = ChainLabels[ChainPrefixes[I].First + K];
      if (L == kInputLabel)
        Out << " label";
      else
        Out << " const " << L;
    }
    Out << "\n";
  }
  for (size_t I = 0; I < Chains.size(); ++I) {
    const ChainTable &C = Chains[I];
    Out << "chain " << I << ": state " << C.State << " ctor " << C.Ctor;
    PrintRuns([&](unsigned B) {
      int32_t Step = C.Steps[B];
      return Step == kChainFail       ? std::string("fail")
             : Step == kChainIdentity ? std::string("id")
                                      : "p" + std::to_string(Step);
    });
  }
  for (size_t I = 0; I < LaChains.size(); ++I) {
    const LaChainTable &C = LaChains[I];
    Out << "la-chain " << I << ": state " << C.State << " ctor " << C.Ctor;
    PrintRuns([&](unsigned B) {
      return std::string(C.Accepts[B] ? "accept" : "reject");
    });
  }
  Out << "code:\n";
  for (size_t I = 0; I < Code.size(); ++I) {
    const Instr &Ins = Code[I];
    Out << "  " << I << ": " << opName(Ins.Opcode);
    switch (Ins.Opcode) {
    case Op::PushConst:
    case Op::PushAttr:
    case Op::Jump:
    case Op::JumpIfFalse:
    case Op::JumpIfTrue:
      Out << " " << Ins.A;
      break;
    case Op::AddInt:
    case Op::AddReal:
    case Op::MulInt:
    case Op::MulReal:
      Out << " " << Ins.B;
      break;
    case Op::EvalChild:
      Out << " " << Ins.A << " " << Ins.B;
      break;
    case Op::MakeNode:
      Out << " " << Ins.A << " " << Ins.B;
      break;
    default:
      break;
    }
    Out << "\n";
  }
  Out << "end program\n";
  return Out.str();
}
