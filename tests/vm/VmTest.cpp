//===- tests/vm/VmTest.cpp - Compiled data plane tests --------------------===//
//
// Covers the VM pipeline end to end: guard-DAG lowering (disassembly
// goldens), interpreter parity on the running examples including compiled
// lookahead, arena reset/reuse across runs, ineligibility fallback, the
// per-session program cache, program sharing across worker overlays of a
// frozen session, and chain states: which states get byte tables, and
// parity with the interpreter on long character chains.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "apps/Html.h"
#include "support/Stack.h"
#include "vm/Vm.h"

#include <random>
#include <set>
#include <thread>
#include <unordered_map>

using namespace fast;
using namespace fast::test;
using namespace fast::vm;

namespace {

/// Total guard-satisfiability checks issued so far in \p S, across every
/// construction slot.  Flat between two points == no solver activity.
uint64_t totalSatQueries(Session &S) {
  uint64_t Total = 0;
  for (const auto &[Name, C] : S.stats().constructions())
    Total += C.SatQueries;
  return Total;
}

/// Example 5's h over \p Bt: negate a node label iff its left child's
/// label is odd (regular lookahead selecting between two rules with one
/// shared guard).
std::shared_ptr<Sttr> makeOddLeftNegator(Session &S, const SignatureRef &Bt) {
  auto T = std::make_shared<Sttr>(Bt);
  unsigned H = T->addState("h");
  T->setStartState(H);
  unsigned L = *Bt->findConstructor("L"), N = *Bt->findConstructor("N");
  TermRef I = Bt->attrTerm(S.Terms, 0);
  TermRef Odd = S.Terms.mkEq(S.Terms.mkMod(I, S.Terms.intConst(2)),
                             S.Terms.intConst(1));
  unsigned OddRoot = T->lookahead().addState("oddRoot");
  unsigned EvenRoot = T->lookahead().addState("evenRoot");
  for (unsigned C : {L, N}) {
    std::vector<StateSet> Free(Bt->rank(C));
    T->lookahead().addRule(OddRoot, C, Odd, Free);
    T->lookahead().addRule(EvenRoot, C, S.Terms.mkNot(Odd), Free);
  }
  OutputRef HL = S.Outputs.mkState(H, 0), HR = S.Outputs.mkState(H, 1);
  T->addRule(H, N, S.Terms.trueTerm(), {{OddRoot}, {}},
             S.Outputs.mkCons(N, {S.Terms.mkNeg(I)}, {HL, HR}));
  T->addRule(H, N, S.Terms.trueTerm(), {{EvenRoot}, {}},
             S.Outputs.mkCons(N, {I}, {HL, HR}));
  T->addRule(H, L, S.Terms.trueTerm(), {}, S.Outputs.mkCons(L, {I}, {}));
  return T;
}

class VmTest : public ::testing::Test {
protected:
  Session S;
  SignatureRef IList = makeIListSig();
  SignatureRef Bt = makeBtSig();
};

TEST_F(VmTest, MapCaesarMatchesInterpreter) {
  std::shared_ptr<Sttr> Map = makeMapCaesar(S, IList);
  std::string Why;
  std::shared_ptr<const VmProgram> P = compileSttr(S, *Map, &Why, "map");
  ASSERT_TRUE(P) << Why;

  Vm Machine(P, S.Trees);
  for (const std::vector<int64_t> &In :
       {std::vector<int64_t>{}, {0}, {0, 10, 21, 25}, {13, 13, 13, -4}}) {
    TreeRef Input = makeIList(S, IList, In);
    SttrRunResult Expected = runSttrChecked(*Map, S.Trees, Input);
    SttrRunResult Got = Machine.run(P->StartState, Input);
    EXPECT_EQ(Got.Outputs, Expected.Outputs);
    EXPECT_EQ(Got.Truncated, Expected.Truncated);
  }
}

TEST_F(VmTest, FilterEvenGuardDagAndParity) {
  std::shared_ptr<Sttr> Filter = makeFilterEven(S, IList);
  std::string Why;
  std::shared_ptr<const VmProgram> P = compileSttr(S, *Filter, &Why, "filter");
  ASSERT_TRUE(P) << Why;

  // The cons group has two complementary guards (even / !even): the trie
  // yields two satisfiable regions that disagree, so exactly one decision
  // node tests `even`, with distinct leaves on both sides.
  std::string Asm = P->disassemble();
  EXPECT_NE(Asm.find("vm program \"filter\""), std::string::npos) << Asm;
  EXPECT_NE(Asm.find("dag 0:"), std::string::npos) << Asm;
  EXPECT_EQ(Asm.find("dag 1:"), std::string::npos) << Asm;
  EXPECT_NE(Asm.find("mod"), std::string::npos) << Asm;
  EXPECT_NE(Asm.find("eval_child"), std::string::npos) << Asm;
  EXPECT_NE(Asm.find("make_node"), std::string::npos) << Asm;

  Vm Machine(P, S.Trees);
  TreeRef Input = makeIList(S, IList, {1, 2, 3, 4, 5, 6});
  SttrRunResult Got = Machine.run(P->StartState, Input);
  ASSERT_EQ(Got.Outputs.size(), 1u);
  EXPECT_EQ(readIList(Got.Outputs.front()),
            (std::vector<int64_t>{2, 4, 6}));
}

TEST_F(VmTest, PartialTransducerFailsOutsideDomain) {
  // Defined only on leaves with positive labels.
  auto T = std::make_shared<Sttr>(Bt);
  unsigned Q = T->addState("posleaf");
  T->setStartState(Q);
  TermRef I = Bt->attrTerm(S.Terms, 0);
  T->addRule(Q, *Bt->findConstructor("L"),
             S.Terms.mkGt(I, S.Terms.intConst(0)), {},
             S.Outputs.mkCons(*Bt->findConstructor("L"), {I}, {}));

  std::string Why;
  std::shared_ptr<const VmProgram> P = compileSttr(S, *T, &Why, "posleaf");
  ASSERT_TRUE(P) << Why;
  Vm Machine(P, S.Trees);
  EXPECT_EQ(Machine.run(P->StartState, btLeaf(S, Bt, 3)).Outputs.size(), 1u);
  EXPECT_TRUE(Machine.run(P->StartState, btLeaf(S, Bt, -3)).Outputs.empty());
  // N has no rules at all: the entry table must dispatch straight to fail.
  EXPECT_TRUE(Machine
                  .run(P->StartState, btNode(S, Bt, 1, btLeaf(S, Bt, 1),
                                             btLeaf(S, Bt, 1)))
                  .Outputs.empty());
}

TEST_F(VmTest, CompiledLookaheadMatchesInterpreter) {
  std::shared_ptr<Sttr> T = makeOddLeftNegator(S, Bt);
  std::string Why;
  std::shared_ptr<const VmProgram> P = compileSttr(S, *T, &Why, "h");
  ASSERT_TRUE(P) << Why;
  EXPECT_GT(P->NumLaStates, 0u);

  Vm Machine(P, S.Trees);
  RandomTreeGen Gen(S.Trees, Bt, /*Seed=*/7);
  for (int K = 0; K < 60; ++K) {
    TreeRef In = Gen.generate();
    SttrRunResult Expected = runSttrChecked(*T, S.Trees, In);
    SttrRunResult Got = Machine.run(P->StartState, In);
    EXPECT_EQ(Got.Outputs, Expected.Outputs);
  }
  EXPECT_GT(Machine.counters().LookaheadChecks, 0u);
}

TEST_F(VmTest, ArenaResetAndReuseAcrossRuns) {
  std::shared_ptr<Sttr> Map = makeMapCaesar(S, IList);
  std::shared_ptr<const VmProgram> P = compileSttr(S, *Map, nullptr, "map");
  ASSERT_TRUE(P);
  Vm Machine(P, S.Trees);

  TreeRef Input = makeIList(S, IList, {1, 2, 3});
  SttrRunResult First = Machine.run(P->StartState, Input);
  uint64_t ArenaAfterOne = Machine.counters().ArenaNodes;
  EXPECT_EQ(ArenaAfterOne, 4u); // 3 cons + nil, exactly one output tree.

  // The second identical run allocates the same number of fresh arena
  // nodes (the arena was reset, not accumulated) and yields the same
  // interned output.
  SttrRunResult Second = Machine.run(P->StartState, Input);
  EXPECT_EQ(Machine.counters().ArenaNodes, 2 * ArenaAfterOne);
  ASSERT_EQ(Second.Outputs.size(), 1u);
  EXPECT_EQ(Second.Outputs, First.Outputs);
}

TEST_F(VmTest, IneligibleNondeterminismFallsBack) {
  // Two rules with overlapping guards and distinct outputs: the VM cannot
  // promise the single-output invariant, so the compiler must reject it
  // and runSttrChecked must transparently use the interpreter.
  auto T = std::make_shared<Sttr>(Bt);
  unsigned Q = T->addState("q");
  T->setStartState(Q);
  unsigned L = *Bt->findConstructor("L");
  T->addRule(Q, L, S.Terms.trueTerm(), {},
             S.Outputs.mkCons(L, {S.Terms.intConst(0)}, {}));
  T->addRule(Q, L, S.Terms.trueTerm(), {},
             S.Outputs.mkCons(L, {S.Terms.intConst(4)}, {}));

  std::string Why;
  EXPECT_FALSE(compileSttr(S, *T, &Why, "nondet"));
  EXPECT_FALSE(Why.empty());
  EXPECT_EQ(S.stats().vm().Ineligible, 1u);

  SttrRunResult R = vm::runSttrChecked(S, *T, btLeaf(S, Bt, 9), "nondet");
  EXPECT_EQ(R.Outputs.size(), 2u);
  EXPECT_GE(S.stats().vm().FallbackRuns, 1u);
  EXPECT_EQ(S.stats().vm().Runs, 0u);
}

TEST_F(VmTest, ProgramCacheHitsBySessionIdentity) {
  std::shared_ptr<Sttr> Map = makeMapCaesar(S, IList);
  std::shared_ptr<const VmProgram> P1 = compiledProgram(S, *Map, nullptr, "m");
  ASSERT_TRUE(P1);
  EXPECT_EQ(S.stats().vm().ProgramsCompiled, 1u);
  EXPECT_EQ(S.stats().vm().CacheHits, 0u);

  // Same transducer object: hit.  A structurally identical rebuild interns
  // the same guards/outputs, so it hits too — no second compilation.
  std::shared_ptr<const VmProgram> P2 = compiledProgram(S, *Map, nullptr, "m");
  EXPECT_EQ(P2.get(), P1.get());
  std::shared_ptr<const VmProgram> P3 =
      compiledProgram(S, *makeMapCaesar(S, IList), nullptr, "m");
  EXPECT_EQ(P3.get(), P1.get());
  EXPECT_EQ(S.stats().vm().ProgramsCompiled, 1u);
  EXPECT_EQ(S.stats().vm().CacheHits, 2u);

  // A different transducer misses and compiles its own program.
  std::shared_ptr<const VmProgram> PF =
      compiledProgram(S, *makeFilterEven(S, IList), nullptr, "f");
  ASSERT_TRUE(PF);
  EXPECT_NE(PF.get(), P1.get());
  EXPECT_EQ(S.stats().vm().ProgramsCompiled, 2u);

  // Negative entries are cached as well.
  auto Bad = std::make_shared<Sttr>(Bt);
  unsigned Q = Bad->addState("q");
  Bad->setStartState(Q);
  unsigned L = *Bt->findConstructor("L");
  Bad->addRule(Q, L, S.Terms.trueTerm(), {},
               S.Outputs.mkCons(L, {S.Terms.intConst(0)}, {}));
  Bad->addRule(Q, L, S.Terms.trueTerm(), {},
               S.Outputs.mkCons(L, {S.Terms.intConst(1)}, {}));
  EXPECT_FALSE(compiledProgram(S, *Bad, nullptr, "bad"));
  EXPECT_FALSE(compiledProgram(S, *Bad, nullptr, "bad"));
  EXPECT_EQ(S.stats().vm().Ineligible, 1u);
  EXPECT_EQ(S.stats().vm().CacheHits, 3u);
}

TEST_F(VmTest, AttachedRunnerUsesVmAndFallsBackOffProgram) {
  std::shared_ptr<Sttr> Map = makeMapCaesar(S, IList);
  SttrRunner R(*Map, S.Trees);
  ASSERT_TRUE(attachVm(R, S, *Map, "map"));
  ASSERT_NE(R.hook(), nullptr);

  TreeRef Input = makeIList(S, IList, {3, 9});
  uint64_t SatBefore = totalSatQueries(S);
  std::vector<TreeRef> Out = R.run(Input);
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_EQ(readIList(Out.front()), (std::vector<int64_t>{8, 14}));
  EXPECT_EQ(S.stats().vm().Runs, 1u);
  EXPECT_GT(S.stats().vm().Instructions, 0u);
  // The run itself is solver-free.
  EXPECT_EQ(totalSatQueries(S), SatBefore);
}

TEST_F(VmTest, SanitizerIsEligibleAndSolverFreeAtRunTime) {
  html::Sanitizer Sani = html::buildSanitizer(S, /*FixBug=*/true);
  std::string Why;
  std::shared_ptr<const VmProgram> P =
      compiledProgram(S, *Sani.Sani, &Why, "sani");
  ASSERT_TRUE(P) << "composed sanitizer must stay VM-eligible: " << Why;
  EXPECT_GT(P->NumLaStates, 0u); // its lookahead is real, and compiled.

  std::string Page = html::generatePage(/*TargetBytes=*/8 << 10, /*Seed=*/3);
  std::string Error;
  TreeRef Doc = html::parseHtml(S, Sani.Sig, Page, Error);
  ASSERT_TRUE(Doc) << Error;

  SttrRunResult Expected = runSttrChecked(*Sani.Sani, S.Trees, Doc);
  uint64_t SatBefore = totalSatQueries(S);
  Vm Machine(P, S.Trees);
  SttrRunResult Got = Machine.run(P->StartState, Doc);
  EXPECT_EQ(totalSatQueries(S), SatBefore);
  ASSERT_EQ(Got.Outputs.size(), Expected.Outputs.size());
  EXPECT_EQ(Got.Outputs, Expected.Outputs);
  EXPECT_FALSE(Got.Truncated);
}

/// Character-chain transformations over HtmlE: Figure 2's esc and
/// variants with a two-node constant prefix (and a constant equal to its
/// byte), a partial rule, a dropped character, and a val rule with
/// lookahead, whose language is itself a lookahead chain.
const char *const ChainSource = R"(
type HtmlE[tag : String] { nil(0), val(1), attr(2), node(3) }
trans esc : HtmlE -> HtmlE {
  node(x1, x2, x3) to (node [tag] (esc x1) (esc x2) (esc x3))
| attr(x1, x2) to (attr [tag] (esc x1) (esc x2))
| val(x1) where (tag = "'" || tag = "\"") to (val ["\\"] (val [tag] (esc x1)))
| val(x1) where (tag != "'" && tag != "\"") to (val [tag] (esc x1))
| nil() to (nil [tag]) }
trans bracket : HtmlE -> HtmlE {
  val(x1) where (tag = "\\") to (val ["<"] (val [">"] (bracket x1)))
| val(x1) where (tag = "a") to (val ["a"] (bracket x1))
| val(x1) where (tag != "\\" && tag != "a") to (val [tag] (bracket x1))
| nil() to (nil [tag]) }
trans partial : HtmlE -> HtmlE {
  val(x1) where (tag != "\"") to (val [tag] (partial x1))
| nil() to (nil [tag]) }
trans drop : HtmlE -> HtmlE {
  val(x1) where (tag = "'") to (drop x1)
| val(x1) where (tag != "'") to (val [tag] (drop x1))
| nil() to (nil [tag]) }
lang noBackslash : HtmlE {
  val(x1) where (tag != "\\") given (noBackslash x1)
| nil() }
trans guarded : HtmlE -> HtmlE {
  val(x1) given (noBackslash x1) to (val [tag] (guarded x1))
| nil() to (nil [tag]) }
)";

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define FAST_TEST_TSAN 1
#endif
#endif

/// Longest character chain the differential test builds.  Under TSan each
/// level of the interpreter's recursion costs bookkeeping that stays for
/// the whole process and grows with the square of the depth (about 400 MB
/// for one 2,000-label chain), so TSan builds, which can only look for
/// races in this single-threaded test, stop at 250 labels.
#if defined(__SANITIZE_THREAD__) || defined(FAST_TEST_TSAN)
constexpr size_t MaxChainLabels = 250;
#else
constexpr size_t MaxChainLabels = 2000;
#endif

/// "state/ctor" of each chain table of \p P.
std::set<std::string> chainStates(const VmProgram &P, const Sttr &T) {
  std::set<std::string> Names;
  for (const ChainTable &C : P.Chains)
    Names.insert(T.stateName(C.State) + "/" + P.Sig->ctorName(C.Ctor));
  return Names;
}

std::set<std::string> laChainStates(const VmProgram &P, const Sttr &T) {
  std::set<std::string> Names;
  for (const LaChainTable &C : P.LaChains)
    Names.insert(T.lookahead().stateName(C.State) + "/" +
                 P.Sig->ctorName(C.Ctor));
  return Names;
}

TEST_F(VmTest, ChainStatesMatchInterpreterOnCharacterChains) {
  FastProgramResult R = runFastProgram(S, ChainSource);
  ASSERT_EQ(R.ErrorCount, 0u) << R.DiagText;
  SignatureRef Html = R.Types.at("HtmlE");
  const unsigned Nil = *Html->findConstructor("nil");
  const unsigned Val = *Html->findConstructor("val");
  const unsigned Attr = *Html->findConstructor("attr");
  auto Make = [&](unsigned Ctor, std::string Tag,
                  std::vector<TreeRef> Kids) {
    const Value Label[] = {Value::string(std::move(Tag))};
    return S.Trees.make(Html, Ctor, Label, Kids);
  };

  // Chains of 0-MaxChainLabels labels grown onto earlier chains, so that
  // many share suffixes.  Labels are mostly single bytes: quotes, backslash and 'a'
  // (none, few or many per chain, so that partial rules both fail and
  // succeed) and bytes >= 0x80.  A few are empty or two bytes long.
  std::mt19937 Rng(16);
  std::vector<std::pair<TreeRef, size_t>> Pool = {
      {Make(Nil, "", {}), 0}, {Make(Nil, "end", {}), 0}};
  for (int K = 0; K < 60; ++K) {
    auto [Chain, Len] = Pool[Rng() % Pool.size()];
    const size_t Add = Rng() % (MaxChainLabels + 1 - Len);
    const unsigned Specials = K % 3 == 0 ? 0 : K % 3 == 1 ? 1 : 40;
    for (size_t I = 0; I < Add; ++I) {
      const unsigned Pick = Rng() % 200;
      std::string Tag =
          Pick == 0 ? ""
          : Pick == 1 ? "\xc3\xa9"
          : Pick < 2 + Specials
              ? std::string(1, "'\"\\a"[Rng() % 4])
              : std::string(1, static_cast<char>(0x80 + Rng() % 128));
      Chain = Make(Val, std::move(Tag), {Chain});
    }
    Pool.emplace_back(Chain, Len + Add);
  }
  std::vector<TreeRef> Inputs;
  for (auto [Chain, Len] : Pool)
    Inputs.push_back(Chain);
  // Two chains under one attribute list: a head met twice hits the memo.
  Inputs.push_back(Make(Attr, "a", {Pool[5].first,
                                    Make(Attr, "b", {Pool[5].first,
                                                     Pool[0].first})}));

  const std::set<std::string> Chains = {"bracket/val", "drop/val", "esc/val",
                                        "partial/val"};
  for (const char *Name : {"esc", "bracket", "partial", "drop", "guarded"}) {
    SCOPED_TRACE(Name);
    std::shared_ptr<Sttr> T = R.transducer(Name);
    ASSERT_TRUE(T);
    std::shared_ptr<const VmProgram> P = compiledProgram(S, *T, nullptr, Name);
    ASSERT_TRUE(P);
    EXPECT_EQ(chainStates(*P, *T), Chains);
    EXPECT_EQ(laChainStates(*P, *T),
              std::set<std::string>{"noBackslash/val"});

    // The interpreter, and the VM off the chain path (guarded), recurse
    // per character, so both run on a dedicated stack, sized for sanitizer
    // builds' inflated frames.
    SttrRunner Compiled(*T, S.Trees);
    ASSERT_TRUE(attachVm(Compiled, S, *T, Name));
    std::vector<SttrRunResult> Want(Inputs.size()), Got(Inputs.size());
    runWithStack(size_t{64} << 20, [&] {
      for (size_t I = 0; I < Inputs.size(); ++I) {
        Want[I] = runSttrChecked(*T, S.Trees, Inputs[I]);
        Got[I] = Compiled.runChecked(Inputs[I]);
      }
    });
    size_t Defined = 0;
    for (size_t I = 0; I < Inputs.size(); ++I) {
      ASSERT_EQ(Got[I].Outputs, Want[I].Outputs)
          << "input " << I << ", " << Inputs[I]->size() << " nodes";
      Defined += !Want[I].Outputs.empty();
    }
    EXPECT_GT(Defined, 0u); // Not every input falls outside the domain.
  }
  EXPECT_EQ(S.stats().vm().Runs, 5 * Inputs.size());
}

TEST_F(VmTest, SanitizerChainStatesArePinned) {
  // The composed sanitizer runs every text and attribute character through
  // one chain table (esc on val, behind remScript's identity copy of
  // attribute lists: \ before either quote, identity on every other byte)
  // and checks attribute values with one lookahead chain (valTree, any
  // non-empty label).
  html::Sanitizer Sani = html::buildSanitizer(S, /*FixBug=*/true);
  std::shared_ptr<const VmProgram> P =
      compiledProgram(S, *Sani.Sani, nullptr, "sani");
  ASSERT_TRUE(P);
  EXPECT_EQ(chainStates(*P, *Sani.Sani),
            std::set<std::string>{"id.esc/val"});
  EXPECT_EQ(laChainStates(*P, *Sani.Sani),
            std::set<std::string>{"{valTree}/val"});
  ASSERT_EQ(P->Chains.size(), 1u);
  const ChainTable &Esc = P->Chains.front();
  for (unsigned B = 0; B < 256; ++B) {
    if (B != '\'' && B != '"') {
      EXPECT_EQ(Esc.Steps[B], kChainIdentity) << B;
      continue;
    }
    ASSERT_GE(Esc.Steps[B], 0) << B;
    const ChainPrefix &Prefix = P->ChainPrefixes[Esc.Steps[B]];
    ASSERT_EQ(Prefix.Count, 2u);
    EXPECT_EQ(P->Consts[P->ChainLabels[Prefix.First]], Value::string("\\"));
    EXPECT_EQ(P->ChainLabels[Prefix.First + 1], kInputLabel);
  }
  ASSERT_EQ(P->LaChains.size(), 1u);
  for (unsigned B = 0; B < 256; ++B)
    EXPECT_TRUE(P->LaChains.front().Accepts[B]) << B;
}

/// The session's VmStats counters that a Vm's own Counters mirror.
Vm::Counters vmCounters(const engine::VmStats &VS) {
  return {VS.Instructions, VS.MemoHits, VS.LookaheadChecks, VS.ArenaNodes,
          VS.InternedNodes};
}

/// Expects the counters to have grown from \p Before to \p After by
/// exactly \p Want.
void expectDelta(const Vm::Counters &Before, const Vm::Counters &After,
                 const Vm::Counters &Want, const char *What) {
  EXPECT_EQ(After.Instructions - Before.Instructions, Want.Instructions)
      << What;
  EXPECT_EQ(After.MemoHits - Before.MemoHits, Want.MemoHits) << What;
  EXPECT_EQ(After.LookaheadChecks - Before.LookaheadChecks,
            Want.LookaheadChecks)
      << What;
  EXPECT_EQ(After.ArenaNodes - Before.ArenaNodes, Want.ArenaNodes) << What;
  EXPECT_EQ(After.InternedNodes - Before.InternedNodes, Want.InternedNodes)
      << What;
}

TEST_F(VmTest, RunnersOnOneSessionShareOnePooledVm) {
  std::shared_ptr<Sttr> T = makeOddLeftNegator(S, Bt);
  std::shared_ptr<const VmProgram> P = compiledProgram(S, *T, nullptr, "h");
  ASSERT_TRUE(P);
  RandomTreeGen Gen(S.Trees, Bt, /*Seed=*/11);
  std::vector<TreeRef> Inputs;
  for (int K = 0; K < 20; ++K)
    Inputs.push_back(Gen.generate());

  // What a fresh Vm counts on the inputs, run in order by one runner.
  Vm Fresh(P, S.Trees);
  std::vector<std::vector<TreeRef>> Expected;
  for (TreeRef In : Inputs)
    Expected.push_back(Fresh.run(P->StartState, In).Outputs);

  // Two runners in turn, on the same inputs: the second gets the first's
  // Vm back from the pool, and counts exactly what a fresh one would —
  // no lookahead verdict of the first runner answers for the second.
  for (const char *Name : {"first runner", "second runner"}) {
    const Vm::Counters Before = vmCounters(S.stats().vm());
    SttrRunner R(*T, S.Trees);
    ASSERT_TRUE(attachVm(R, S, *T, "h"));
    for (size_t K = 0; K < Inputs.size(); ++K)
      EXPECT_EQ(R.run(Inputs[K]), Expected[K]) << Name;
    expectDelta(Before, vmCounters(S.stats().vm()), Fresh.counters(), Name);
  }
  EXPECT_EQ(programCache(S).vmsBuilt(), 1u);

  // Two runners alive at once need two Vms; both go back to the pool.
  {
    SttrRunner A(*T, S.Trees), B(*T, S.Trees);
    ASSERT_TRUE(attachVm(A, S, *T, "h"));
    ASSERT_TRUE(attachVm(B, S, *T, "h"));
    EXPECT_EQ(A.run(Inputs[0]), Expected[0]);
    EXPECT_EQ(B.run(Inputs[1]), Expected[1]);
  }
  EXPECT_EQ(programCache(S).vmsBuilt(), 2u);
  SttrRunner C(*T, S.Trees);
  ASSERT_TRUE(attachVm(C, S, *T, "h"));
  EXPECT_EQ(programCache(S).vmsBuilt(), 2u);
}

TEST(VmPoolTest, OverlayRunnerNeverGetsABaseBoundVm) {
  Session Base;
  SignatureRef IList = makeIListSig();
  std::shared_ptr<Sttr> Map = makeMapCaesar(Base, IList);
  TreeRef Shared = makeIList(Base, IList, {1, 2});
  {
    SttrRunner R(*Map, Base.Trees);
    ASSERT_TRUE(attachVm(R, Base, *Map, "map"));
    ASSERT_EQ(R.run(Shared).size(), 1u);
  }
  Base.engine();
  Base.freeze();

  // An overlay that shares the base's program cache, and so its pool,
  // gets a Vm of its own: the idle base-bound one would intern the new
  // output into the frozen base factory, which throws.
  Session Overlay(Session::OverlayTag{}, Base);
  Overlay.VmCache = Base.VmCache;
  TreeRef Fresh = makeIList(Overlay, IList, {40, 41, 42});
  SttrRunner R(*Map, Overlay.Trees);
  ASSERT_TRUE(attachVm(R, Overlay, *Map, "map"));
  std::vector<TreeRef> Out;
  ASSERT_NO_THROW(Out = R.run(Fresh));
  EXPECT_EQ(Out, runSttr(*Map, Overlay.Trees, Fresh));
  EXPECT_EQ(programCache(Base).vmsBuilt(), 2u);
}

TEST(VmPoolTest, LookaheadVerdictDoesNotSurviveOverlayReset) {
  // A pooled Vm's lookahead memo is keyed by node address, and
  // resetOverlay() recycles addresses: a verdict cached for a node
  // interned before a reset must not answer for a node interned at the
  // same address after it.
  Session Base;
  SignatureRef Bt = makeBtSig();
  std::shared_ptr<Sttr> T = makeOddLeftNegator(Base, Bt);
  Base.engine();
  Base.freeze();
  Session Overlay(Session::OverlayTag{}, Base);
  ASSERT_TRUE(compiledProgram(Overlay, *T, nullptr, "h"));

  // One request per round: reset, intern a left child of either parity
  // (it opens the overlay's first arena chunk, so freed chunks hand its
  // address to a later round's child), run a new runner.  Which earlier
  // address comes back is the allocator's choice, so the parities follow
  // a fixed irregular pattern and rounds are many.
  std::unordered_map<const void *, int64_t> LabelAt;
  unsigned Recycled = 0;
  for (unsigned Round = 0; Round < 64; ++Round) {
    Overlay.Trees.resetOverlay();
    const int64_t Label = (0x6B2D94F1u >> (Round % 32)) & 1 ? 1 : 2;
    TreeRef Left = btLeaf(Overlay, Bt, Label);
    auto [It, New] = LabelAt.try_emplace(Left, Label);
    if (!New && It->second != Label)
      ++Recycled;
    It->second = Label;
    SttrRunner R(*T, Overlay.Trees);
    ASSERT_TRUE(attachVm(R, Overlay, *T, "h"));
    std::vector<TreeRef> Out =
        R.run(btNode(Overlay, Bt, 5, Left, btLeaf(Overlay, Bt, 0)));
    ASSERT_EQ(Out.size(), 1u);
    EXPECT_EQ(Out.front()->attr(0).getInt(), Label == 1 ? -5 : 5)
        << "round " << Round;
  }
  EXPECT_EQ(programCache(Overlay).vmsBuilt(), 1u);
  if (Recycled == 0)
    GTEST_SKIP() << "the allocator never recycled a node address across "
                    "rounds of different parity";
}

TEST(ParallelVmTest, SharedProgramAcrossWorkerOverlays) {
  // Programs live on the frozen tier: compile once against the base
  // session, freeze, then hand the same program to per-worker Vms whose
  // scratch state (stacks, memos, arenas) is all thread-local.
  Session Base;
  SignatureRef IList = makeIListSig();
  std::shared_ptr<Sttr> Map = makeMapCaesar(Base, IList);
  std::shared_ptr<const VmProgram> P =
      compiledProgram(Base, *Map, nullptr, "map");
  ASSERT_TRUE(P);

  std::vector<TreeRef> Inputs;
  std::vector<TreeRef> Expected;
  for (int K = 0; K < 16; ++K) {
    std::vector<int64_t> Vals;
    for (int J = 0; J <= K; ++J)
      Vals.push_back(J * 7 + K);
    Inputs.push_back(makeIList(Base, IList, Vals));
    std::vector<TreeRef> Out = runSttr(*Map, Base.Trees, Inputs.back());
    ASSERT_EQ(Out.size(), 1u);
    Expected.push_back(Out.front());
  }
  Base.freeze();

  constexpr unsigned NumWorkers = 4;
  std::vector<std::vector<TreeRef>> Got(NumWorkers);
  std::vector<std::thread> Workers;
  for (unsigned W = 0; W < NumWorkers; ++W)
    Workers.emplace_back([&, W] {
      Session Overlay(Session::OverlayTag{}, Base);
      Vm Machine(P, Overlay.Trees);
      for (TreeRef In : Inputs) {
        SttrRunResult R = Machine.run(P->StartState, In);
        ASSERT_EQ(R.Outputs.size(), 1u);
        Got[W].push_back(R.Outputs.front());
      }
    });
  for (std::thread &T : Workers)
    T.join();

  // Expected outputs were interned in the base before the freeze, so the
  // overlays resolve them to the very same pointers.
  for (unsigned W = 0; W < NumWorkers; ++W)
    EXPECT_EQ(Got[W], Expected);
}

} // namespace
