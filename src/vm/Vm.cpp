//===- vm/Vm.cpp - The compiled-program interpreter -----------------------===//

#include "vm/Vm.h"

#include "engine/Engine.h"

#include <algorithm>
#include <cassert>
#include <chrono>

using namespace fast;
using namespace fast::vm;

namespace {

/// Euclidean quotient/remainder exactly as evalTerm computes them (the
/// SMT-LIB/Z3 semantics; see smt/Term.cpp).
int64_t euclideanDiv(int64_t A, int64_t B) {
  assert(B != 0 && "division by zero");
  int64_t Q = A / B;
  int64_t R = A % B;
  if (R < 0)
    Q += B > 0 ? -1 : 1;
  return Q;
}

int64_t euclideanMod(int64_t A, int64_t B) {
  return A - euclideanDiv(A, B) * B;
}

/// The byte of a one-byte label, or -1.  Only called where the program has
/// chain tables, whose signature has one attribute, of sort String.
int oneByte(TreeRef Node) {
  const std::string &Label = Node->attr(0).getString();
  return Label.size() == 1 ? static_cast<unsigned char>(Label[0]) : -1;
}

} // namespace

//===----------------------------------------------------------------------===//
// Vm
//===----------------------------------------------------------------------===//

Vm::Vm(std::shared_ptr<const VmProgram> Program, TreeFactory &Trees)
    : P(std::move(Program)), Trees(Trees) {
  ConstVals.reserve(P->Consts.size());
  for (const Value &V : P->Consts)
    ConstVals.push_back(VmValue::borrow(V)); // P owns the storage.
  ValStack.reserve(256);
  NodeStack.reserve(256);
}

SttrRunResult Vm::run(uint32_t State, TreeRef Input) {
  assert(State < P->NumStates && "state outside the compiled program");
  Arena.reset();
  // Presize the memo tables for what one run inserts: roughly one entry
  // per input node, but only a chain's head when chain tables run the
  // rest (HtmlE pages: 0.10 run and 0.14 lookahead entries per node).
  // The expanded tree size over-approximates the distinct-node count, so
  // cap the hint to keep degenerate DAG inputs from reserving gigabytes.
  const bool HasChains = !P->Chains.empty() || !P->LaChains.empty();
  size_t Hint = std::min<size_t>(Input->size() / (HasChains ? 7 : 1),
                                 size_t(1) << 20);
  RunMemo.reset(Hint);
  if (P->NumLaStates > 0)
    LaMemo.reserve(Hint);
  ValStack.clear();
  NodeStack.clear();
  SttrRunResult Res; // Truncated stays false: eligible programs are
                     // single-output, so the bound cannot trip.
  int32_t Root = evalState(State, Input);
  C.ArenaNodes += Arena.numNodes();
  if (Root >= 0)
    Res.Outputs.push_back(intern(static_cast<uint32_t>(Root)));
  return Res;
}

int32_t Vm::evalState(uint32_t State, TreeRef Node) {
  int32_t Cached;
  if (RunMemo.lookup(State, Node, Cached)) {
    ++C.MemoHits;
    return Cached;
  }
  assert(Node->ctorId() < P->NumCtors && "input outside the signature");
  const ChainTable *Chain = P->chain(State, Node->ctorId());
  int32_t Result = Chain && oneByte(Node) >= 0 ? evalChain(*Chain, Node)
                                               : evalRules(State, Node);
  RunMemo.insert(State, Node, Result);
  return Result;
}

int32_t Vm::evalRules(uint32_t State, TreeRef Node) {
  int32_t Result = kFailResult;
  DagRef Ref = P->entry(State, Node->ctorId());
  while (Ref >= 0) {
    const DagNode &N = P->Dag[Ref];
    Ref = execBool(N.Expr, Node) ? N.IfTrue : N.IfFalse;
  }
  if (Ref != kFailRef) {
    const Leaf &L = P->Leaves[leafIndex(Ref)];
    for (uint32_t CI = 0; CI < L.NumCands; ++CI) {
      const Candidate &Cand = P->Cands[L.FirstCand + CI];
      if (!laPasses(Cand, Node))
        continue;
      // All candidates of a leaf share one body (eligibility invariant),
      // so the first lookahead-approved candidate decides the result and
      // a body failure is final.
      Result = exec(Cand.Body, Node);
      break;
    }
  }
  return Result;
}

int32_t Vm::evalChain(const ChainTable &Chain, TreeRef Head) {
  const size_t Base = Walk.size();
  TreeRef Node = Head;
  for (int B; Node->ctorId() == Chain.Ctor && (B = oneByte(Node)) >= 0;
       Node = Node->child(0)) {
    if (Chain.Steps[B] == kChainFail) {
      Walk.resize(Base);
      return kFailResult;
    }
    Walk.emplace_back(Node, Chain.Steps[B]);
  }
  int32_t Tail = evalState(Chain.State, Node);
  if (Tail < 0) {
    Walk.resize(Base);
    return kFailResult;
  }
  // Build from the back.  While the output so far is the input suffix
  // itself (Reuse), identity steps build nothing; the first other step
  // stands for that suffix with one ref node.
  bool Reuse = isTree(static_cast<uint32_t>(Tail), Node);
  uint32_t Out = static_cast<uint32_t>(Tail);
  for (size_t I = Walk.size(); I-- > Base;) {
    auto [In, Step] = Walk[I];
    if (Reuse) {
      if (Step == kChainIdentity)
        continue;
      Reuse = false;
      Out = Arena.addRef(In->child(0));
    }
    const VmValue Input = VmValue::string(&In->attr(0).getString());
    if (Step == kChainIdentity) {
      Out = Arena.addNode(Chain.Ctor, 1, 1, &Input, &Out);
      continue;
    }
    const ChainPrefix &Prefix = P->ChainPrefixes[Step];
    for (uint32_t K = Prefix.Count; K-- > 0;) {
      int32_t L = P->ChainLabels[Prefix.First + K];
      Out = Arena.addNode(Chain.Ctor, 1, 1,
                          L == kInputLabel ? &Input : &ConstVals[L], &Out);
    }
  }
  Walk.resize(Base);
  return static_cast<int32_t>(Reuse ? Arena.addRef(Head) : Out);
}

bool Vm::isTree(uint32_t Id, TreeRef Tree) const {
  const VmArena::Node &N = Arena.node(Id);
  if (TreeRef R = Arena.ref(N))
    return R == Tree;
  if (N.Rank != 0 || N.Ctor != Tree->ctorId())
    return false;
  const VmValue *Attrs = Arena.attrs(N);
  for (unsigned I = 0; I < N.NumAttrs; ++I)
    if (!(Attrs[I] == VmValue::borrow(Tree->attr(I))))
      return false;
  return true;
}

bool Vm::laPasses(const Candidate &Cand, TreeRef Node) {
  if (Cand.LaFirst < 0)
    return true;
  for (uint32_t I = 0; I < Cand.Rank; ++I) {
    int32_t SetId = P->LaChildSets[Cand.LaFirst + I];
    if (SetId < 0)
      continue;
    for (uint32_t Q : P->LaSetPool[SetId])
      if (!evalLa(Q, Node->child(I)))
        return false;
  }
  return true;
}

bool Vm::evalLa(uint32_t LaState, TreeRef Node) {
  int32_t Cached;
  if (LaMemo.lookup(LaState, Node, Cached)) {
    ++C.MemoHits;
    return Cached != 0;
  }
  const LaChainTable *Chain = P->laChain(LaState, Node->ctorId());
  bool Accepted = Chain && oneByte(Node) >= 0 ? evalLaChain(*Chain, Node)
                                              : evalLaRules(LaState, Node);
  LaMemo.insert(LaState, Node, Accepted ? 1 : 0);
  return Accepted;
}

bool Vm::evalLaChain(const LaChainTable &Chain, TreeRef Node) {
  for (int B; Node->ctorId() == Chain.Ctor && (B = oneByte(Node)) >= 0;
       Node = Node->child(0)) {
    ++C.LookaheadChecks;
    if (!Chain.Accepts[B])
      return false;
  }
  return evalLa(Chain.State, Node);
}

bool Vm::evalLaRules(uint32_t LaState, TreeRef Node) {
  bool Accepted = false;
  const LaEntry &E = P->laEntry(LaState, Node->ctorId());
  const uint32_t Rank = Node->rank();
  for (uint32_t R = 0; R < E.Count && !Accepted; ++R) {
    const LaRule &Rule = P->LaRules[E.First + R];
    ++C.LookaheadChecks;
    if (!execBool(Rule.Guard, Node))
      continue;
    Accepted = true;
    for (uint32_t I = 0; I < Rank && Accepted; ++I) {
      int32_t SetId = P->LaChildSets[Rule.SetsFirst + I];
      if (SetId < 0)
        continue;
      for (uint32_t Q : P->LaSetPool[SetId])
        if (!evalLa(Q, Node->child(I))) {
          Accepted = false;
          break;
        }
    }
  }
  return Accepted;
}

TreeRef Vm::intern(uint32_t Root) {
  // Arena nodes are appended after their children, so ids ascend bottom
  // up: one descending sweep marks what the root reaches, and one
  // ascending sweep interns exactly those nodes, building every key in the
  // same two buffers.
  Reached.assign(Root + 1, 0);
  Reached[Root] = 1;
  for (uint32_t Id = Root + 1; Id-- > 0;) {
    if (!Reached[Id])
      continue;
    const VmArena::Node &N = Arena.node(Id);
    const uint32_t *Kids = Arena.children(N);
    for (unsigned I = 0; I < N.Rank; ++I) {
      assert(Kids[I] < Id && "arena node older than its child");
      Reached[Kids[I]] = 1;
    }
  }
  InternMemo.resize(Root + 1);
  for (uint32_t Id = 0; Id <= Root; ++Id) {
    if (!Reached[Id])
      continue;
    const VmArena::Node &N = Arena.node(Id);
    if (TreeRef Ref = Arena.ref(N)) {
      InternMemo[Id] = Ref;
      continue;
    }
    const uint32_t *Kids = Arena.children(N);
    ChildBuf.clear();
    for (unsigned I = 0; I < N.Rank; ++I)
      ChildBuf.push_back(InternMemo[Kids[I]]);
    const VmValue *A = Arena.attrs(N);
    AttrBuf.clear();
    for (unsigned I = 0; I < N.NumAttrs; ++I)
      AttrBuf.push_back(A[I].box());
    ++C.InternedNodes;
    InternMemo[Id] = Trees.make(P->Sig, N.Ctor, AttrBuf, ChildBuf);
  }
  return InternMemo[Root];
}

//===----------------------------------------------------------------------===//
// The dispatch loop.  One code path handles expression chunks (terminated
// by EndExpr, yielding 0/1) and body chunks (terminated by Return,
// yielding an arena id or kFailResult).  With FAST_VM_COMPUTED_GOTO the
// loop is direct-threaded through a label table; otherwise a portable
// switch.  The opcode bodies are written once and shared by both forms.
//===----------------------------------------------------------------------===//

int32_t Vm::exec(uint32_t Pc, TreeRef Node) {
  const Instr *CodePtr = P->Code.data();
  const uint16_t NumAttrs = static_cast<uint16_t>(P->Sig->numAttrs());
  const size_t VBase = ValStack.size();
  const size_t NBase = NodeStack.size();
  uint64_t Dispatched = 0;
  Instr I{Op::Return, 0, 0};

#if FAST_VM_COMPUTED_GOTO
  static const void *Table[NumOps] = {
      &&Lbl_PushConst, &&Lbl_PushAttr, &&Lbl_PushTrue,    &&Lbl_PushFalse,
      &&Lbl_Not,       &&Lbl_Jump,     &&Lbl_JumpIfFalse, &&Lbl_JumpIfTrue,
      &&Lbl_Eq,        &&Lbl_Lt,       &&Lbl_Le,          &&Lbl_AddInt,
      &&Lbl_AddReal,   &&Lbl_MulInt,   &&Lbl_MulReal,     &&Lbl_NegInt,
      &&Lbl_NegReal,   &&Lbl_Mod,      &&Lbl_Div,         &&Lbl_EndExpr,
      &&Lbl_EvalChild, &&Lbl_MakeNode, &&Lbl_Return};
#define VM_CASE(Name) Lbl_##Name:
#define VM_NEXT()                                                              \
  do {                                                                         \
    I = CodePtr[Pc++];                                                         \
    ++Dispatched;                                                              \
    goto *Table[static_cast<unsigned>(I.Opcode)];                              \
  } while (0)
  VM_NEXT();
#else
#define VM_CASE(Name) case Op::Name:
#define VM_NEXT() break
  for (;;) {
    I = CodePtr[Pc++];
    ++Dispatched;
    switch (I.Opcode) {
#endif

  VM_CASE(PushConst) {
    ValStack.push_back(ConstVals[I.A]);
  }
  VM_NEXT();

  VM_CASE(PushAttr) {
    ValStack.push_back(VmValue::borrow(Node->attr(I.A)));
  }
  VM_NEXT();

  VM_CASE(PushTrue) {
    ValStack.push_back(VmValue::boolean(true));
  }
  VM_NEXT();

  VM_CASE(PushFalse) {
    ValStack.push_back(VmValue::boolean(false));
  }
  VM_NEXT();

  VM_CASE(Not) {
    ValStack.back().B = !ValStack.back().B;
  }
  VM_NEXT();

  VM_CASE(Jump) {
    Pc = I.A;
  }
  VM_NEXT();

  VM_CASE(JumpIfFalse) {
    bool Cond = ValStack.back().B;
    ValStack.pop_back();
    if (!Cond)
      Pc = I.A;
  }
  VM_NEXT();

  VM_CASE(JumpIfTrue) {
    bool Cond = ValStack.back().B;
    ValStack.pop_back();
    if (Cond)
      Pc = I.A;
  }
  VM_NEXT();

  VM_CASE(Eq) {
    VmValue B = std::move(ValStack.back());
    ValStack.pop_back();
    VmValue &A = ValStack.back();
    A = VmValue::boolean(A == B);
  }
  VM_NEXT();

  VM_CASE(Lt) {
    VmValue B = std::move(ValStack.back());
    ValStack.pop_back();
    VmValue &A = ValStack.back();
    A = VmValue::boolean(A.asRational() < B.asRational());
  }
  VM_NEXT();

  VM_CASE(Le) {
    VmValue B = std::move(ValStack.back());
    ValStack.pop_back();
    VmValue &A = ValStack.back();
    A = VmValue::boolean(A.asRational() <= B.asRational());
  }
  VM_NEXT();

  VM_CASE(AddInt) {
    int64_t Sum = 0;
    for (size_t K = ValStack.size() - I.B; K < ValStack.size(); ++K)
      Sum += ValStack[K].I;
    ValStack.resize(ValStack.size() - I.B);
    ValStack.push_back(VmValue::integer(Sum));
  }
  VM_NEXT();

  VM_CASE(AddReal) {
    Rational Sum(0);
    for (size_t K = ValStack.size() - I.B; K < ValStack.size(); ++K)
      Sum = Sum + ValStack[K].R;
    ValStack.resize(ValStack.size() - I.B);
    ValStack.push_back(VmValue::real(Sum));
  }
  VM_NEXT();

  VM_CASE(MulInt) {
    int64_t Product = 1;
    for (size_t K = ValStack.size() - I.B; K < ValStack.size(); ++K)
      Product *= ValStack[K].I;
    ValStack.resize(ValStack.size() - I.B);
    ValStack.push_back(VmValue::integer(Product));
  }
  VM_NEXT();

  VM_CASE(MulReal) {
    Rational Product(1);
    for (size_t K = ValStack.size() - I.B; K < ValStack.size(); ++K)
      Product = Product * ValStack[K].R;
    ValStack.resize(ValStack.size() - I.B);
    ValStack.push_back(VmValue::real(Product));
  }
  VM_NEXT();

  VM_CASE(NegInt) {
    ValStack.back().I = -ValStack.back().I;
  }
  VM_NEXT();

  VM_CASE(NegReal) {
    ValStack.back().R = -ValStack.back().R;
  }
  VM_NEXT();

  VM_CASE(Mod) {
    int64_t B = ValStack.back().I;
    ValStack.pop_back();
    assert(B != 0 && "mod by zero during evaluation");
    ValStack.back().I = euclideanMod(ValStack.back().I, B);
  }
  VM_NEXT();

  VM_CASE(Div) {
    int64_t B = ValStack.back().I;
    ValStack.pop_back();
    assert(B != 0 && "div by zero during evaluation");
    ValStack.back().I = euclideanDiv(ValStack.back().I, B);
  }
  VM_NEXT();

  VM_CASE(EndExpr) {
    bool Result = ValStack.back().B;
    ValStack.pop_back();
    C.Instructions += Dispatched;
    return Result ? 1 : 0;
  }

  VM_CASE(EvalChild) {
    int32_t Child = evalState(I.A, Node->child(I.B));
    if (Child < 0) {
      // The body fails whole: unwind anything it stacked and bail.
      ValStack.resize(VBase);
      NodeStack.resize(NBase);
      C.Instructions += Dispatched;
      return kFailResult;
    }
    NodeStack.push_back(static_cast<uint32_t>(Child));
  }
  VM_NEXT();

  VM_CASE(MakeNode) {
    uint32_t Id = Arena.addNode(I.A, I.B, NumAttrs, ValStack, NodeStack);
    NodeStack.push_back(Id);
  }
  VM_NEXT();

  VM_CASE(Return) {
    uint32_t Id = NodeStack.back();
    NodeStack.pop_back();
    C.Instructions += Dispatched;
    return static_cast<int32_t>(Id);
  }

#if !FAST_VM_COMPUTED_GOTO
    }
  }
#endif
#undef VM_CASE
#undef VM_NEXT
}

//===----------------------------------------------------------------------===//
// ProgramCache
//===----------------------------------------------------------------------===//

std::shared_ptr<const VmProgram>
ProgramCache::lookup(uint64_t Key, bool *Known, std::string *WhyNot) {
  std::lock_guard<std::mutex> Lock(M);
  if (auto It = Programs.find(Key); It != Programs.end()) {
    *Known = true;
    return It->second;
  }
  if (auto It = Ineligible.find(Key); It != Ineligible.end()) {
    *Known = true;
    if (WhyNot)
      *WhyNot = It->second;
    return nullptr;
  }
  *Known = false;
  return nullptr;
}

void ProgramCache::insert(uint64_t Key,
                          std::shared_ptr<const VmProgram> Program) {
  std::lock_guard<std::mutex> Lock(M);
  Programs[Key] = std::move(Program);
}

void ProgramCache::insertIneligible(uint64_t Key, std::string WhyNot) {
  std::lock_guard<std::mutex> Lock(M);
  Ineligible[Key] = std::move(WhyNot);
}

size_t ProgramCache::size() {
  std::lock_guard<std::mutex> Lock(M);
  return Programs.size() + Ineligible.size();
}

std::unique_ptr<Vm>
ProgramCache::checkoutVm(std::shared_ptr<const VmProgram> Program,
                         TreeFactory &Trees) {
  std::unique_ptr<Vm> Machine;
  {
    std::lock_guard<std::mutex> Lock(M);
    auto It = std::find_if(IdleVms.begin(), IdleVms.end(), [&](auto &Idle) {
      return &Idle->program() == Program.get() && &Idle->trees() == &Trees;
    });
    if (It == IdleVms.end()) {
      ++VmsBuilt;
    } else {
      Machine = std::move(*It);
      *It = std::move(IdleVms.back());
      IdleVms.pop_back();
    }
  }
  if (!Machine)
    return std::make_unique<Vm>(std::move(Program), Trees);
  Machine->resetLookahead();
  return Machine;
}

void ProgramCache::checkinVm(std::unique_ptr<Vm> Machine) {
  std::lock_guard<std::mutex> Lock(M);
  IdleVms.push_back(std::move(Machine));
}

size_t ProgramCache::vmsBuilt() {
  std::lock_guard<std::mutex> Lock(M);
  return VmsBuilt;
}

ProgramCache &fast::vm::programCache(Session &S) {
  if (!S.VmCache)
    S.VmCache = std::make_shared<ProgramCache>();
  return *S.VmCache;
}

std::shared_ptr<const VmProgram>
fast::vm::compiledProgram(Session &S, const Sttr &T, std::string *WhyNot,
                          std::string Name) {
  engine::VmStats &VS = S.stats().vm();
  ProgramCache &Cache = programCache(S);
  const uint64_t Key = sttrIdentityKey(T);
  bool Known = false;
  std::string Why;
  std::shared_ptr<const VmProgram> P = Cache.lookup(Key, &Known, &Why);
  if (Known) {
    ++VS.CacheHits;
    if (!P && WhyNot)
      *WhyNot = Why;
    return P;
  }
  P = compileSttr(S, T, &Why, std::move(Name));
  if (P)
    Cache.insert(Key, P);
  else {
    Cache.insertIneligible(Key, Why);
    if (WhyNot)
      *WhyNot = Why;
  }
  return P;
}

//===----------------------------------------------------------------------===//
// SttrRunner integration
//===----------------------------------------------------------------------===//

namespace {

/// The hook installed on SttrRunner: a Vm checked out of the session's
/// pool for the runner's lifetime, program shared.
class VmFastPath : public SttrEvalHook {
public:
  VmFastPath(std::shared_ptr<ProgramCache> Cache, std::unique_ptr<Vm> M,
             engine::SessionEngine &Eng)
      : Cache(std::move(Cache)), Machine(std::move(M)), Eng(&Eng) {}
  ~VmFastPath() override { Cache->checkinVm(std::move(Machine)); }

  std::optional<SttrRunResult> tryRun(unsigned State,
                                      TreeRef Input) override {
    if (State >= Machine->program().NumStates)
      return std::nullopt; // Unknown state: structural fallback.
    engine::VmStats &VS = Eng->Stats.vm();
    obs::Tracer &Trace = Eng->Trace;
    const bool Traced = Trace.active();
    const double StartUs = Traced ? Trace.nowUs() : 0;
    const Vm::Counters Before = Machine->counters();
    const auto Start = std::chrono::steady_clock::now();
    SttrRunResult R = Machine->run(State, Input);
    const double Us = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - Start)
                          .count();
    const Vm::Counters &After = Machine->counters();
    ++VS.Runs;
    VS.RunUs.record(Us);
    VS.Instructions += After.Instructions - Before.Instructions;
    VS.MemoHits += After.MemoHits - Before.MemoHits;
    VS.LookaheadChecks += After.LookaheadChecks - Before.LookaheadChecks;
    VS.ArenaNodes += After.ArenaNodes - Before.ArenaNodes;
    VS.InternedNodes += After.InternedNodes - Before.InternedNodes;
    if (Traced && Trace.active()) {
      const obs::TraceAttr Attrs[] = {
          obs::attr("instructions", After.Instructions - Before.Instructions),
          obs::attr("arena_nodes", After.ArenaNodes - Before.ArenaNodes),
          obs::attr("outputs", static_cast<uint64_t>(R.Outputs.size())),
      };
      Trace.complete("vm.run", "vm", StartUs, Attrs);
    }
    return R;
  }

private:
  std::shared_ptr<ProgramCache> Cache;
  std::unique_ptr<Vm> Machine;
  engine::SessionEngine *Eng;
};

} // namespace

bool fast::vm::attachVm(SttrRunner &R, Session &S, const Sttr &T,
                        std::string Name) {
  std::shared_ptr<const VmProgram> P =
      compiledProgram(S, T, nullptr, std::move(Name));
  if (!P)
    return false;
  std::unique_ptr<Vm> Machine = S.VmCache->checkoutVm(std::move(P), S.Trees);
  R.setHook(std::make_shared<VmFastPath>(S.VmCache, std::move(Machine),
                                         S.engine()));
  return true;
}

SttrRunResult fast::vm::runSttrChecked(Session &S, const Sttr &T,
                                       TreeRef Input, std::string Name) {
  SttrRunner R(T, S.Trees);
  if (!attachVm(R, S, T, std::move(Name)))
    ++S.stats().vm().FallbackRuns;
  return R.runChecked(Input);
}
