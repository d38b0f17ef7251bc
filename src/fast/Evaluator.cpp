//===- fast/Evaluator.cpp - Evaluating Fast programs ----------------------===//

#include "fast/Evaluator.h"

#include "automata/Determinize.h"
#include "fast/Parser.h"
#include "transducers/Parallel.h"
#include "transducers/Run.h"
#include "vm/Vm.h"

using namespace fast;

namespace {

/// Evaluates value and assertion expressions against one session.  Holds
/// the compiler by const reference: the sequential driver points it at the
/// base session, the parallel driver builds one evaluator per assertion
/// over a worker overlay session — both against the same compiled program.
class Evaluator {
public:
  Evaluator(Session &S, DiagnosticEngine &Diags, const FastCompiler &Compiler)
      : S(S), Diags(Diags), Compiler(Compiler) {}

  std::map<std::string, FastValue> Env;

  std::optional<FastValue> evalExpr(const OpExpr &E,
                                    const SignatureRef *ExpectedSig) {
    switch (E.Kind) {
    case OpKind::Name: {
      auto It = Env.find(E.Name);
      if (It != Env.end())
        return It->second;
      if (std::optional<TreeLanguage> L = Compiler.langLanguage(E.Name))
        return FastValue::ofLang(std::move(*L));
      if (std::shared_ptr<Sttr> T = Compiler.transSttr(E.Name))
        return FastValue::ofTrans(std::move(T));
      Diags.error(E.Loc, "unknown name '" + E.Name + "'");
      return std::nullopt;
    }
    case OpKind::TreeLiteral:
      return evalTreeLiteral(E, ExpectedSig);
    case OpKind::Intersect:
    case OpKind::Union:
    case OpKind::Difference: {
      std::optional<TreeLanguage> A = evalLang(*E.Args[0]);
      std::optional<TreeLanguage> B = evalLang(*E.Args[1]);
      if (!A || !B)
        return std::nullopt;
      if (!A->signature()->isCompatibleWith(*B->signature())) {
        Diags.error(E.Loc, "language operands have incompatible types");
        return std::nullopt;
      }
      if (E.Kind == OpKind::Intersect)
        return FastValue::ofLang(intersectLanguages(S.Solv, *A, *B));
      if (E.Kind == OpKind::Union)
        return FastValue::ofLang(unionLanguages(*A, *B));
      return FastValue::ofLang(differenceLanguages(S.Solv, *A, *B));
    }
    case OpKind::Complement: {
      std::optional<TreeLanguage> A = evalLang(*E.Args[0]);
      if (!A)
        return std::nullopt;
      return FastValue::ofLang(complementLanguage(S.Solv, *A));
    }
    case OpKind::Minimize: {
      std::optional<TreeLanguage> A = evalLang(*E.Args[0]);
      if (!A)
        return std::nullopt;
      return FastValue::ofLang(minimizeLanguage(S.Solv, *A));
    }
    case OpKind::Domain: {
      std::shared_ptr<Sttr> T = evalTrans(*E.Args[0]);
      if (!T)
        return std::nullopt;
      return FastValue::ofLang(domainLanguage(*T, &S.Solv));
    }
    case OpKind::PreImage: {
      std::shared_ptr<Sttr> T = evalTrans(*E.Args[0]);
      std::optional<TreeLanguage> L = evalLang(*E.Args[1]);
      if (!T || !L)
        return std::nullopt;
      return FastValue::ofLang(preImageLanguage(S.Solv, *T, *L));
    }
    case OpKind::Compose: {
      std::shared_ptr<Sttr> A = evalTrans(*E.Args[0]);
      std::shared_ptr<Sttr> B = evalTrans(*E.Args[1]);
      if (!A || !B)
        return std::nullopt;
      if (!A->signature()->isCompatibleWith(*B->signature())) {
        Diags.error(E.Loc, "composed transformations have incompatible types");
        return std::nullopt;
      }
      ComposeResult R = composeSttr(S.Solv, S.Outputs, *A, *B);
      if (!R.isExact())
        Diags.warning(E.Loc,
                      "composition may over-approximate: the first operand "
                      "is not single-valued and the second is not linear "
                      "(Theorem 4)");
      return FastValue::ofTrans(std::move(R.Composed));
    }
    case OpKind::Restrict: {
      std::shared_ptr<Sttr> T = evalTrans(*E.Args[0]);
      std::optional<TreeLanguage> L = evalLang(*E.Args[1]);
      if (!T || !L)
        return std::nullopt;
      return FastValue::ofTrans(restrictInput(S.Solv, *T, *L));
    }
    case OpKind::RestrictOut: {
      std::shared_ptr<Sttr> T = evalTrans(*E.Args[0]);
      std::optional<TreeLanguage> L = evalLang(*E.Args[1]);
      if (!T || !L)
        return std::nullopt;
      return FastValue::ofTrans(
          restrictOutput(S.Solv, S.Outputs, *T, *L).Composed);
    }
    case OpKind::Apply: {
      std::shared_ptr<Sttr> T = evalTrans(*E.Args[0]);
      if (!T)
        return std::nullopt;
      SignatureRef Sig = T->signature();
      std::optional<FastValue> In = evalExpr(*E.Args[1], &Sig);
      if (!In || In->K != FastValue::Kind::Tree) {
        Diags.error(E.Loc, "apply needs a tree argument");
        return std::nullopt;
      }
      // Route through the compiled data plane when the transducer is
      // VM-eligible (cached per session); transparently falls back to the
      // structural interpreter otherwise.
      SttrRunResult Out = vm::runSttrChecked(S, *T, In->Tree);
      if (Out.Outputs.empty()) {
        Diags.error(E.Loc, "apply: input tree is outside the "
                           "transformation's domain");
        return std::nullopt;
      }
      if (Out.Truncated)
        Diags.warning(E.Loc, "apply: output set was truncated at the "
                             "evaluation bound; the transformation has "
                             "more outputs here than reported");
      if (Out.Outputs.size() > 1)
        Diags.warning(E.Loc, "apply: transformation is nondeterministic "
                             "here; using the first of " +
                                 std::to_string(Out.Outputs.size()) +
                                 " outputs");
      return FastValue::ofTree(Out.Outputs.front());
    }
    case OpKind::GetWitness: {
      std::optional<TreeLanguage> L = evalLang(*E.Args[0]);
      if (!L)
        return std::nullopt;
      std::optional<TreeRef> W = witness(S.Solv, *L, S.Trees);
      if (!W) {
        Diags.error(E.Loc, "get-witness: the language is empty");
        return std::nullopt;
      }
      return FastValue::ofTree(*W);
    }
    default:
      Diags.error(E.Loc, "assertion form used as a value expression");
      return std::nullopt;
    }
  }

  std::optional<TreeLanguage> evalLang(const OpExpr &E) {
    std::optional<FastValue> V = evalExpr(E, nullptr);
    if (!V)
      return std::nullopt;
    if (V->K != FastValue::Kind::Lang) {
      Diags.error(E.Loc, "expected a language");
      return std::nullopt;
    }
    return V->Lang;
  }

  std::shared_ptr<Sttr> evalTrans(const OpExpr &E) {
    std::optional<FastValue> V = evalExpr(E, nullptr);
    if (!V)
      return nullptr;
    if (V->K != FastValue::Kind::Trans) {
      Diags.error(E.Loc, "expected a transformation");
      return nullptr;
    }
    return V->Trans;
  }

  std::optional<FastValue> evalTreeLiteral(const OpExpr &E,
                                           const SignatureRef *ExpectedSig) {
    if (!ExpectedSig) {
      Diags.error(E.Loc, "tree literal needs a type context (use it in a "
                         "tree definition or under apply/member)");
      return std::nullopt;
    }
    const SignatureRef &Sig = *ExpectedSig;
    std::optional<unsigned> CtorId = Sig->findConstructor(E.CtorName);
    if (!CtorId) {
      Diags.error(E.Loc, "unknown constructor '" + E.CtorName +
                             "' of type '" + Sig->typeName() + "'");
      return std::nullopt;
    }
    if (E.LabelExprs.size() != Sig->numAttrs()) {
      Diags.error(E.Loc, "constructor '" + E.CtorName + "' needs " +
                             std::to_string(Sig->numAttrs()) +
                             " attribute value(s)");
      return std::nullopt;
    }
    std::vector<Value> Attrs;
    for (unsigned I = 0; I < E.LabelExprs.size(); ++I) {
      TermRef T = Compiler.compileAexp(*E.LabelExprs[I], Sig,
                                       /*ConstOnly=*/true, S.Terms, Diags);
      if (!T)
        return std::nullopt;
      if (T->sort() != Sig->attrSpec(I).TheSort) {
        Diags.error(E.LabelExprs[I]->Loc, "attribute value has wrong sort");
        return std::nullopt;
      }
      Attrs.push_back(evalTerm(T, {}));
    }
    if (E.Args.size() != Sig->rank(*CtorId)) {
      Diags.error(E.Loc, "constructor '" + E.CtorName + "' has rank " +
                             std::to_string(Sig->rank(*CtorId)) + ", got " +
                             std::to_string(E.Args.size()) + " child(ren)");
      return std::nullopt;
    }
    std::vector<TreeRef> Children;
    for (const OpExprPtr &Child : E.Args) {
      std::optional<FastValue> C = evalExpr(*Child, &Sig);
      if (!C)
        return std::nullopt;
      if (C->K != FastValue::Kind::Tree) {
        Diags.error(Child->Loc, "tree literal child must be a tree");
        return std::nullopt;
      }
      Children.push_back(C->Tree);
    }
    return FastValue::ofTree(S.Trees.make(Sig, *CtorId, Attrs, Children));
  }

  /// Filled by evalAssertion when a witness was found with provenance
  /// recording on; consumed by runFastProgram into the AssertionOutcome.
  std::optional<ExplainedWitness> Explanation;

  /// Like StaOps::witness, but records the derivation when provenance is
  /// enabled (stashing it in Explanation for the caller).
  std::optional<TreeRef> findWitness(const TreeLanguage &L) {
    if (S.provenance().enabled()) {
      if (std::optional<ExplainedWitness> W =
              witnessExplained(S.Solv, L, S.Trees)) {
        TreeRef T = W->Tree;
        Explanation = std::move(*W);
        return T;
      }
      return std::nullopt;
    }
    return witness(S.Solv, L, S.Trees);
  }

  /// Evaluates an assertion condition to (value, detail-on-failure).
  std::optional<std::pair<bool, std::string>>
  evalAssertion(const OpExpr &E) {
    Explanation.reset();
    switch (E.Kind) {
    case OpKind::IsEmpty: {
      // is-empty of a language or of a transformation (domain emptiness).
      std::optional<FastValue> V = evalExpr(*E.Args[0], nullptr);
      if (!V)
        return std::nullopt;
      if (V->K == FastValue::Kind::Lang) {
        bool Empty = isEmptyLanguage(S.Solv, V->Lang);
        std::string Detail;
        if (!Empty)
          if (std::optional<TreeRef> W = findWitness(V->Lang))
            Detail = "witness: " + (*W)->str();
        return std::make_pair(Empty, Detail);
      }
      if (V->K == FastValue::Kind::Trans) {
        TreeLanguage Dom = domainLanguage(*V->Trans, &S.Solv);
        bool Empty = isEmptyLanguage(S.Solv, Dom);
        std::string Detail;
        if (!Empty)
          if (std::optional<TreeRef> W = findWitness(Dom))
            Detail = "domain witness: " + (*W)->str();
        return std::make_pair(Empty, Detail);
      }
      Diags.error(E.Loc, "is-empty needs a language or transformation");
      return std::nullopt;
    }
    case OpKind::LangEq: {
      std::optional<TreeLanguage> A = evalLang(*E.Args[0]);
      std::optional<TreeLanguage> B = evalLang(*E.Args[1]);
      if (!A || !B)
        return std::nullopt;
      bool Equal = areEquivalentLanguages(S.Solv, *A, *B);
      std::string Detail;
      if (!Equal) {
        TreeLanguage OnlyA = differenceLanguages(S.Solv, *A, *B);
        TreeLanguage OnlyB = differenceLanguages(S.Solv, *B, *A);
        if (std::optional<TreeRef> W = findWitness(OnlyA))
          Detail = "in left only: " + (*W)->str();
        else if (std::optional<TreeRef> W2 = findWitness(OnlyB))
          Detail = "in right only: " + (*W2)->str();
      }
      return std::make_pair(Equal, Detail);
    }
    case OpKind::Member: {
      // TR in L (or TR in T: domain membership).
      std::optional<FastValue> R = evalExpr(*E.Args[1], nullptr);
      if (!R)
        return std::nullopt;
      TreeLanguage L;
      if (R->K == FastValue::Kind::Lang)
        L = R->Lang;
      else if (R->K == FastValue::Kind::Trans)
        L = domainLanguage(*R->Trans, &S.Solv);
      else {
        Diags.error(E.Loc, "right-hand side of 'in' must be a language or "
                           "transformation");
        return std::nullopt;
      }
      SignatureRef Sig = L.signature();
      std::optional<FastValue> T = evalExpr(*E.Args[0], &Sig);
      if (!T)
        return std::nullopt;
      if (T->K != FastValue::Kind::Tree) {
        Diags.error(E.Loc, "left-hand side of 'in' must be a tree");
        return std::nullopt;
      }
      return std::make_pair(L.contains(T->Tree), std::string());
    }
    case OpKind::TypeCheck: {
      std::optional<TreeLanguage> L1 = evalLang(*E.Args[0]);
      std::shared_ptr<Sttr> T = evalTrans(*E.Args[1]);
      std::optional<TreeLanguage> L2 = evalLang(*E.Args[2]);
      if (!L1 || !T || !L2)
        return std::nullopt;
      bool Ok = typeCheck(S.Solv, *L1, *T, *L2);
      std::string Detail;
      if (!Ok) {
        TreeLanguage Bad = intersectLanguages(
            S.Solv, *L1,
            preImageLanguage(S.Solv, *T, complementLanguage(S.Solv, *L2)));
        if (std::optional<TreeRef> W = findWitness(Bad))
          Detail = "bad input: " + (*W)->str();
      }
      return std::make_pair(Ok, Detail);
    }
    default: {
      Diags.error(E.Loc, "expected an assertion (is-empty / == / in / "
                         "type-check)");
      return std::nullopt;
    }
    }
  }

private:
  Session &S;
  DiagnosticEngine &Diags;
  const FastCompiler &Compiler;
};

} // namespace

std::optional<TreeLanguage>
FastProgramResult::language(const std::string &Name) const {
  auto It = Values.find(Name);
  if (It == Values.end() || It->second.K != FastValue::Kind::Lang)
    return std::nullopt;
  return It->second.Lang;
}

std::shared_ptr<Sttr>
FastProgramResult::transducer(const std::string &Name) const {
  auto It = Values.find(Name);
  if (It == Values.end() || It->second.K != FastValue::Kind::Trans)
    return nullptr;
  return It->second.Trans;
}

TreeRef FastProgramResult::tree(const std::string &Name) const {
  auto It = Values.find(Name);
  if (It == Values.end() || It->second.K != FastValue::Kind::Tree)
    return nullptr;
  return It->second.Tree;
}

namespace {

/// One assertion deferred by the parallel driver: the declaration plus a
/// snapshot of the environment at its program point, so an assertion
/// referencing a def declared *after* it still fails with "unknown name"
/// exactly as it does sequentially.
struct PendingAssert {
  const AssertDecl *Decl = nullptr;
  std::map<std::string, FastValue> Env;
};

AssertionOutcome makeOutcome(const AssertDecl &D,
                             const std::pair<bool, std::string> &V,
                             std::optional<ExplainedWitness> &&Explanation) {
  AssertionOutcome Outcome;
  Outcome.Loc = D.Loc;
  Outcome.Expected = D.ExpectTrue;
  Outcome.Actual = V.first;
  Outcome.Detail = V.second;
  Outcome.Explanation = std::move(Explanation);
  return Outcome;
}

} // namespace

FastProgramResult fast::runFastProgram(Session &S, const std::string &Source) {
  return runFastProgram(S, Source, FastRunOptions());
}

FastProgramResult fast::runFastProgram(Session &S, const std::string &Source,
                                       const FastRunOptions &Opts) {
  FastProgramResult Result;
  DiagnosticEngine Diags;
  Program P = parseFast(Source, Diags);
  FastCompiler Compiler(S, Diags);
  Compiler.compile(P);
  Evaluator Eval(S, Diags, Compiler);
  std::vector<PendingAssert> Pending;

  if (!Diags.hasErrors()) {
    for (const auto &[Kind, Index] : P.Order) {
      switch (Kind) {
      case Program::DeclKind::Trans:
        // Transformation rules compile in program order so their `given`
        // clauses can reference languages defined by earlier defs
        // (Example 5's evenRoot).
        Compiler.compileTransDecl(P.Transes[Index]);
        break;
      case Program::DeclKind::Def: {
        const DefDecl &D = P.Defs[Index];
        const CompiledType *T = Compiler.findType(D.InType);
        if (!T) {
          Diags.error(D.Loc, "unknown type '" + D.InType + "' in def '" +
                                 D.Name + "'");
          break;
        }
        SignatureRef Sig = T->Sig;
        std::optional<FastValue> V = Eval.evalExpr(*D.Body, &Sig);
        if (!V)
          break;
        bool WantTrans = !D.OutType.empty();
        if (WantTrans && V->K != FastValue::Kind::Trans)
          Diags.error(D.Loc, "def '" + D.Name +
                                 "' declares a transformation type but the "
                                 "body is not a transformation");
        else if (!WantTrans && V->K == FastValue::Kind::Trans)
          Diags.error(D.Loc, "def '" + D.Name +
                                 "' declares a language type but the body "
                                 "is a transformation");
        else {
          if (V->K == FastValue::Kind::Lang)
            Compiler.registerDefLanguage(D.Name, V->Lang);
          Eval.Env.emplace(D.Name, std::move(*V));
        }
        break;
      }
      case Program::DeclKind::Tree: {
        const TreeDecl &D = P.Trees[Index];
        const CompiledType *T = Compiler.findType(D.TypeName);
        if (!T) {
          Diags.error(D.Loc, "unknown type '" + D.TypeName + "' in tree '" +
                                 D.Name + "'");
          break;
        }
        SignatureRef Sig = T->Sig;
        std::optional<FastValue> V = Eval.evalExpr(*D.Body, &Sig);
        if (V) {
          if (V->K != FastValue::Kind::Tree)
            Diags.error(D.Loc, "tree '" + D.Name + "' body is not a tree");
          else
            Eval.Env.emplace(D.Name, std::move(*V));
        }
        break;
      }
      case Program::DeclKind::Assert: {
        const AssertDecl &D = P.Asserts[Index];
        if (Opts.Threads != 0) {
          // Parallel mode defers assertions to phase 2; the Env snapshot
          // pins the names visible at this program point.
          Pending.push_back(PendingAssert{&D, Eval.Env});
          break;
        }
        std::optional<std::pair<bool, std::string>> V =
            Eval.evalAssertion(*D.Condition);
        if (!V)
          break;
        Result.Assertions.push_back(
            makeOutcome(D, *V, std::move(Eval.Explanation)));
        Eval.Explanation.reset();
        break;
      }
      default:
        break; // Types and langs were compiled up front.
      }
      if (Diags.hasErrors())
        break;
    }
  }

  // Phase 2 (parallel mode): the declaration tier is complete, so freeze
  // the session into the shared artifact tier and evaluate the assertions
  // over fresh worker overlays — one per assertion, so results cannot
  // depend on scheduling.  All joins are in assertion order: diagnostics,
  // outcomes, and (inside the runner) trace replay.
  //
  // Runs even when phase 1 produced errors: the decl loop stops at the
  // first error, so every pending assertion was reached *before* it —
  // exactly the set the sequential path already evaluated and reported
  // by that point.  Skipping them here would silently change the
  // "N assertion(s), M failed" output between -j 0 and -j N.
  if (Opts.Threads != 0 && !Pending.empty()) {
    ParallelRunner Runner(S, Opts.Threads);
    std::vector<DiagnosticEngine> WorkerDiags(Pending.size());
    std::vector<std::optional<AssertionOutcome>> Outcomes(Pending.size());
    std::vector<std::unique_ptr<WorkerContext>> Workers = Runner.run(
        Pending.size(),
        [&](size_t K, WorkerContext &Worker) {
          Evaluator WEval(Worker.session(), WorkerDiags[K], Compiler);
          WEval.Env = Pending[K].Env;
          std::optional<std::pair<bool, std::string>> V =
              WEval.evalAssertion(*Pending[K].Decl->Condition);
          if (V)
            Outcomes[K] = makeOutcome(*Pending[K].Decl, *V,
                                      std::move(WEval.Explanation));
        },
        /*RetainWorkers=*/true);
    for (size_t K = 0; K < Pending.size(); ++K) {
      Diags.appendFrom(WorkerDiags[K]);
      if (Outcomes[K])
        Result.Assertions.push_back(std::move(*Outcomes[K]));
    }
    // Witness trees and derivations point into worker-owned factories;
    // keep the contexts alive for as long as the result is.
    for (std::unique_ptr<WorkerContext> &Worker : Workers)
      Result.Retained.push_back(std::shared_ptr<void>(std::move(Worker)));
  }

  // Export the environment plus every named lang/trans for host access.
  for (auto &[Name, V] : Eval.Env)
    Result.Values.emplace(Name, V);
  for (const auto &[TypeName, T] : Compiler.types()) {
    Result.Types.emplace(TypeName, T.Sig);
    for (const auto &[LangName, State] : T.LangStates)
      Result.Values.emplace(LangName,
                            FastValue::ofLang(TreeLanguage(T.Langs, State)));
    for (const auto &[TransName, State] : T.TransStates) {
      (void)State;
      if (!Result.Values.count(TransName))
        Result.Values.emplace(
            TransName, FastValue::ofTrans(Compiler.transSttr(TransName)));
    }
  }

  // Rule-coverage ledger: with provenance recording on, report every
  // declared rule that no construction ever fired as a dead-rule warning.
  obs::ProvenanceStore &Prov = S.provenance();
  if (Prov.enabled()) {
    for (unsigned Canon : Prov.deadRules()) {
      const obs::RuleOrigin &RO = Prov.ruleOrigin(Canon);
      const obs::DeclAnchor &A = Prov.anchor(RO.AnchorId);
      Diags.warning(SourceLoc{RO.Line, RO.Col},
                    std::string("rule of ") + A.kindName() + " '" + A.Name +
                        "' never fired in this session (dead rule?)");
    }
  }

  Result.ErrorCount = Diags.errorCount();
  Result.DiagText = Diags.str();
  return Result;
}
