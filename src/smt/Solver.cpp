//===- smt/Solver.cpp - Z3-backed decision procedure ----------------------===//
//
// This file is the only place in the library that talks to Z3.  The C++
// binding (z3++.h) reports failures through C++ exceptions; we confine the
// try/catch blocks to this translation unit and map every failure to the
// conservative `unknown` answer.
//
//===----------------------------------------------------------------------===//

#include "smt/Solver.h"

#include "obs/Tracer.h"
#include "smt/SimpleSolver.h"

#include <cassert>
#include <chrono>
#include <unordered_set>
#include <vector>

#include <z3++.h>

using namespace fast;

namespace {

double usSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - Start)
      .count();
}

} // namespace

namespace {

/// Z3 constant name for an attribute; the sort tag keeps same-index
/// attributes of different sorts distinct.
std::string attrConstName(TermRef Attr) {
  return "a" + std::to_string(Attr->attrIndex()) + "_" + Attr->attrName() +
         "_" + sortName(Attr->sort());
}

/// Structural subsumption between hash-consed terms: true only when A => B
/// holds for syntactic reasons (sound, deliberately incomplete).  Operand
/// lists are canonical and pointer-comparable, so everything here is a few
/// identity scans.
bool syntacticallyImplies(TermRef A, TermRef B) {
  auto ContainsOp = [](TermRef Whole, TermRef Part) {
    for (TermRef Op : Whole->operands())
      if (Op == Part)
        return true;
    return false;
  };
  // A = (... && B && ...)  or  B = (... || A || ...).
  if (A->kind() == TermKind::And && ContainsOp(A, B))
    return true;
  if (B->kind() == TermKind::Or && ContainsOp(B, A))
    return true;
  // Conjunction implies any sub-conjunction of its operands.
  if (A->kind() == TermKind::And && B->kind() == TermKind::And) {
    for (TermRef Op : B->operands())
      if (!ContainsOp(A, Op))
        return false;
    return true;
  }
  // Disjunction implies any super-disjunction of its operands.
  if (A->kind() == TermKind::Or && B->kind() == TermKind::Or) {
    for (TermRef Op : A->operands())
      if (!ContainsOp(B, Op))
        return false;
    return true;
  }
  // A conjunct of A that is a disjunct of B bridges the two.
  if (A->kind() == TermKind::And && B->kind() == TermKind::Or) {
    for (TermRef Op : A->operands())
      if (ContainsOp(B, Op))
        return true;
  }
  return false;
}

} // namespace

/// The Z3 side of a Solver: built by the first check that reaches Z3 and
/// kept until the Solver dies.
struct Solver::Impl {
  z3::context Ctx;
  /// isSat's long-lived solver.  Each query runs under push/pop, which is
  /// much cheaper than a fresh solver per query, so it holds no assertion
  /// between queries; resetForReuse keeps it, because the first check on
  /// a rebuilt solver costs milliseconds.
  std::unique_ptr<z3::solver> Sol;
  /// getModel's solver, which resetForReuse drops, so a pooled context's
  /// witnesses are those of a fresh context.
  std::unique_ptr<z3::solver> ModelSol;

  /// \p Slot's solver, built on first use with a per-check timeout of
  /// \p TimeoutMs (0 = none) — set on the solver object, never as a global
  /// parameter, which would leak into every other Solver of the process.
  z3::solver &solver(std::unique_ptr<z3::solver> &Slot, unsigned TimeoutMs) {
    if (!Slot) {
      Slot = std::make_unique<z3::solver>(Ctx);
      if (TimeoutMs != 0) {
        z3::params P(Ctx);
        P.set("timeout", TimeoutMs);
        Slot->set(P);
      }
    }
    return *Slot;
  }

  z3::sort z3Sort(Sort S) {
    switch (S) {
    case Sort::Bool:
      return Ctx.bool_sort();
    case Sort::Int:
      return Ctx.int_sort();
    case Sort::Real:
      return Ctx.real_sort();
    case Sort::String:
      return Ctx.string_sort();
    }
    assert(false && "unhandled sort");
    return Ctx.bool_sort();
  }

  /// Persistent translation memo: hash-consed terms are immutable, so one
  /// Z3 expression per term serves every query.
  std::unordered_map<TermRef, unsigned> Memo;
  std::vector<z3::expr> MemoExprs;

  /// Translates \p T to a Z3 expression (memoized across queries).
  z3::expr translate(TermRef T) {
    auto It = Memo.find(T);
    if (It != Memo.end())
      return MemoExprs[It->second];
    z3::expr Result = translateUncached(T);
    Memo.emplace(T, static_cast<unsigned>(MemoExprs.size()));
    MemoExprs.push_back(Result);
    return Result;
  }

  z3::expr translateUncached(TermRef T) {
    switch (T->kind()) {
    case TermKind::ConstValue: {
      const Value &V = T->constValue();
      switch (V.sort()) {
      case Sort::Bool:
        return Ctx.bool_val(V.getBool());
      case Sort::Int:
        return Ctx.int_val(static_cast<int64_t>(V.getInt()));
      case Sort::Real: {
        const Rational &R = V.getReal();
        std::string Text = std::to_string(R.numerator()) + "/" +
                           std::to_string(R.denominator());
        return Ctx.real_val(Text.c_str());
      }
      case Sort::String:
        return Ctx.string_val(V.getString());
      }
      break;
    }
    case TermKind::Attr:
      return Ctx.constant(attrConstName(T).c_str(), z3Sort(T->sort()));
    default:
      break;
    }

    std::vector<z3::expr> Ops;
    Ops.reserve(T->numOperands());
    for (TermRef Op : T->operands())
      Ops.push_back(translate(Op));

    switch (T->kind()) {
    case TermKind::Not:
      return !Ops[0];
    case TermKind::And: {
      z3::expr_vector V(Ctx);
      for (auto &E : Ops)
        V.push_back(E);
      return z3::mk_and(V);
    }
    case TermKind::Or: {
      z3::expr_vector V(Ctx);
      for (auto &E : Ops)
        V.push_back(E);
      return z3::mk_or(V);
    }
    case TermKind::Ite:
      return z3::ite(Ops[0], Ops[1], Ops[2]);
    case TermKind::Eq:
      return Ops[0] == Ops[1];
    case TermKind::Lt:
      return Ops[0] < Ops[1];
    case TermKind::Le:
      return Ops[0] <= Ops[1];
    case TermKind::Add: {
      z3::expr Sum = Ops[0];
      for (size_t I = 1; I < Ops.size(); ++I)
        Sum = Sum + Ops[I];
      return Sum;
    }
    case TermKind::Neg:
      return -Ops[0];
    case TermKind::Mul: {
      z3::expr Product = Ops[0];
      for (size_t I = 1; I < Ops.size(); ++I)
        Product = Product * Ops[I];
      return Product;
    }
    case TermKind::Mod:
      return z3::mod(Ops[0], Ops[1]);
    case TermKind::Div:
      return Ops[0] / Ops[1]; // Z3 integer division is Euclidean.
    default:
      break;
    }
    assert(false && "unhandled term kind in Z3 translation");
    return Ctx.bool_val(false);
  }
};

Solver::Solver(TermFactory &Factory, unsigned TimeoutMs)
    : Factory(Factory), TimeoutMs(TimeoutMs) {}

Solver::~Solver() = default;

Solver::Impl &Solver::z3Context() {
  if (!Z3)
    Z3 = std::make_unique<Impl>();
  return *Z3;
}

SolverExtension::~SolverExtension() = default;

std::span<const obs::CounterField<Solver::Stats>> Solver::Stats::counters() {
  static constexpr obs::CounterField<Stats> Table[] = {
      {"queries", "isSat entry points", &Stats::Queries},
      {"cache_hits", "Queries answered from the sat/validity cache",
       &Stats::CacheHits},
      {"sat_answers", "Satisfiable answers", &Stats::SatAnswers},
      {"unsat_answers", "Unsatisfiable answers", &Stats::UnsatAnswers},
      {"unknown_answers", "Unknown answers", &Stats::UnknownAnswers},
      {"fast_path_answers", "Queries answered by the built-in procedure",
       &Stats::FastPathAnswers},
      {"trivial_answers", "Queries that were the constant true/false term",
       &Stats::TrivialAnswers},
      {"core_checks", "Queries that reached a decision core",
       &Stats::CoreChecks},
      {"z3_checks", "Z3 check() invocations", &Stats::Z3Checks},
      {"z3_model_checks", "Z3 checks issued on behalf of getModel()",
       &Stats::Z3ModelChecks},
      {"scoped_checks", "Minterm-trie region checks (checkSat calls)",
       &Stats::ScopedChecks},
      {"subsumption_answers",
       "Queries answered by the syntactic implication check",
       &Stats::SubsumptionAnswers},
      {"implication_queries", "implies() entry points",
       &Stats::ImplicationQueries},
      {"implication_cache_hits",
       "impliesFast() calls answered from the implication cache",
       &Stats::ImplicationCacheHits},
  };
  return Table;
}

std::span<const obs::HistogramField<Solver::Stats>>
Solver::Stats::histograms() {
  static constexpr obs::HistogramField<Stats> Table[] = {
      {"z3_check", "Individual Z3 check() latency (us)", &Stats::Z3CheckUs},
  };
  return Table;
}

void Solver::setCacheEnabled(bool Enabled) {
  CacheEnabled = Enabled;
  if (!Enabled) {
    SatCache.clear();
    ValidCache.clear();
    ImplCache.clear();
  }
}

void Solver::resetForReuse() {
  SatCache.clear();
  ValidCache.clear();
  ImplCache.clear();
  // The Z3 context survives (creating one is the constant this reset
  // exists to avoid paying per task), and so does isSat's solver, which
  // is empty after every pop.  getModel's solver is dropped and lazily
  // rebuilt.  A solver that never reached Z3 has nothing to drop.
  if (!Z3)
    return;
  Z3->Memo.clear();
  Z3->MemoExprs.clear();
  Z3->ModelSol.reset();
}

bool Solver::isSat(TermRef Pred) {
  assert(Pred->sort() == Sort::Bool && "satisfiability of non-boolean term");
  ++Counters.Queries;
  if (Pred->isTrue()) {
    ++Counters.SatAnswers;
    ++Counters.TrivialAnswers;
    return true;
  }
  if (Pred->isFalse()) {
    ++Counters.UnsatAnswers;
    ++Counters.TrivialAnswers;
    return false;
  }
  if (CacheEnabled) {
    auto It = SatCache.find(Pred);
    if (It != SatCache.end()) {
      ++Counters.CacheHits;
      return It->second;
    }
  }

  if (FastPathEnabled) {
    switch (simpleCheckSat(Pred)) {
    case SimpleResult::Sat:
      ++Counters.SatAnswers;
      ++Counters.FastPathAnswers;
      ++Counters.CoreChecks;
      if (CacheEnabled)
        SatCache.emplace(Pred, true);
      return true;
    case SimpleResult::Unsat:
      ++Counters.UnsatAnswers;
      ++Counters.FastPathAnswers;
      ++Counters.CoreChecks;
      if (CacheEnabled)
        SatCache.emplace(Pred, false);
      return false;
    case SimpleResult::Unknown:
      break; // Outside the built-in fragment; ask Z3.
    }
  }

  // Subsumption pre-check before Z3: a conjunction is unsat whenever two
  // of its conjuncts refute each other, even when the full conjunction is
  // outside the built-in fragment (e.g. one conjunct relates two
  // attributes while the refuting pair pins one string attribute to two
  // different constants).
  if (conjunctPairRefuted(Pred)) {
    ++Counters.UnsatAnswers;
    ++Counters.SubsumptionAnswers;
    if (CacheEnabled)
      SatCache.emplace(Pred, false);
    return false;
  }

  bool Result = true;
  try {
    Impl &Z = z3Context();
    // Timed from here: building the context is the solver's one-off cost,
    // not this check's.
    auto T0 = std::chrono::steady_clock::now();
    double SpanStart = Trace && Trace->active() ? Trace->nowUs() : 0;
    z3::expr E = Z.translate(Pred);
    z3::solver &S = Z.solver(Z.Sol, TimeoutMs);
    S.push();
    S.add(E);
    ++Counters.CoreChecks;
    ++Counters.Z3Checks;
    z3::check_result Answer = S.check();
    S.pop();
    observeZ3Check("isSat", Pred, usSince(T0), SpanStart);
    switch (Answer) {
    case z3::sat:
      ++Counters.SatAnswers;
      Result = true;
      break;
    case z3::unsat:
      ++Counters.UnsatAnswers;
      Result = false;
      break;
    case z3::unknown:
      ++Counters.UnknownAnswers;
      Result = true; // Conservative.
      break;
    }
  } catch (const z3::exception &) {
    ++Counters.UnknownAnswers;
    Result = true; // Conservative.
  }
  if (CacheEnabled)
    SatCache.emplace(Pred, Result);
  return Result;
}

bool Solver::isValid(TermRef Pred) {
  if (Pred->isTrue()) {
    ++Counters.Queries;
    ++Counters.TrivialAnswers;
    return true;
  }
  if (Pred->isFalse()) {
    ++Counters.Queries;
    ++Counters.TrivialAnswers;
    return false;
  }
  if (CacheEnabled) {
    auto It = ValidCache.find(Pred);
    if (It != ValidCache.end()) {
      ++Counters.Queries;
      ++Counters.CacheHits;
      return It->second;
    }
  }
  // The cached sat-of-negation core: isSat memoizes the negation term, so
  // validity of P and satisfiability of !P share one verdict.
  bool Result = !isSat(Factory.mkNot(Pred));
  if (CacheEnabled)
    ValidCache.emplace(Pred, Result);
  return Result;
}

Trilean Solver::impliesFast(TermRef A, TermRef B) {
  if (A == B || A->isFalse() || B->isTrue())
    return Trilean::True;
  if (A->isTrue() && B->isFalse())
    return Trilean::False;
  auto Key = std::make_pair(A, B);
  if (CacheEnabled) {
    auto It = ImplCache.find(Key);
    if (It != ImplCache.end()) {
      ++Counters.ImplicationCacheHits;
      return It->second;
    }
  }
  Trilean Result = Trilean::Unknown;
  if (syntacticallyImplies(A, B)) {
    Result = Trilean::True;
  } else if (FastPathEnabled) {
    // A => B  iff  {A, !B} has no model; the span overload avoids
    // building the conjunction term.
    TermRef Lits[2] = {A, Factory.mkNot(B)};
    switch (simpleCheckSat(std::span<const TermRef>(Lits))) {
    case SimpleResult::Unsat:
      Result = Trilean::True;
      break;
    case SimpleResult::Sat:
      Result = Trilean::False;
      break;
    case SimpleResult::Unknown:
      break;
    }
  }
  if (CacheEnabled)
    ImplCache.emplace(Key, Result);
  return Result;
}

bool Solver::implies(TermRef A, TermRef B) {
  ++Counters.ImplicationQueries;
  switch (impliesFast(A, B)) {
  case Trilean::True:
    ++Counters.SubsumptionAnswers;
    return true;
  case Trilean::False:
    ++Counters.SubsumptionAnswers;
    return false;
  case Trilean::Unknown:
    break;
  }
  // One cached sat-of-negation core; the verdict also upgrades the
  // implication cache's Unknown entry so later impliesFast calls (e.g.
  // from trie descent) see a definite answer.
  bool Result = !isSat(Factory.mkAnd(A, Factory.mkNot(B)));
  if (CacheEnabled)
    ImplCache[std::make_pair(A, B)] = Result ? Trilean::True : Trilean::False;
  return Result;
}

bool Solver::areEquivalent(TermRef A, TermRef B) {
  if (A == B)
    return true;
  return implies(A, B) && implies(B, A);
}

void Solver::observeZ3Check(obs::Literal Kind, TermRef Pred, double Us,
                            double SpanStartUs) {
  Counters.Z3CheckUs.record(Us);
  if (!Trace)
    return;
  Trace->slowQueries().record(Us, Kind, Trace->currentConstruction(),
                              [&] { return Pred->str(); });
  if (Trace->active()) {
    const obs::TraceAttr Attrs[] = {
        obs::attr("term", static_cast<uint64_t>(Pred->id())),
    };
    Trace->complete(Kind, "solver", SpanStartUs, Attrs);
  }
}

bool Solver::conjunctPairRefuted(TermRef Conj) {
  if (Conj->kind() != TermKind::And || Conj->numOperands() > 8)
    return false;
  auto Ops = Conj->operands();
  for (size_t I = 0; I < Ops.size(); ++I)
    for (size_t J = I + 1; J < Ops.size(); ++J)
      if (impliesFast(Ops[I], Factory.mkNot(Ops[J])) == Trilean::True)
        return true;
  return false;
}

bool Solver::checkSat(std::span<const TermRef> Literals) {
  ++Counters.ScopedChecks;
  return isSat(Factory.mkAnd(Literals));
}

std::optional<AttrModel> Solver::getModel(TermRef Pred) {
  assert(Pred->sort() == Sort::Bool && "model of non-boolean term");
  try {
    // Collect the Attr leaves of the predicate for model extraction.
    std::vector<TermRef> Attrs;
    std::unordered_set<TermRef> Seen;
    auto Collect = [&](auto &&Self, TermRef T) -> void {
      if (!Seen.insert(T).second)
        return;
      if (T->kind() == TermKind::Attr)
        Attrs.push_back(T);
      for (TermRef Op : T->operands())
        Self(Self, Op);
    };
    Collect(Collect, Pred);
    Impl &Z = z3Context();
    z3::expr E = Z.translate(Pred);
    z3::solver &S = Z.solver(Z.ModelSol, TimeoutMs);
    S.push();
    S.add(E);
    ++Counters.Z3ModelChecks;
    auto T0 = std::chrono::steady_clock::now();
    double SpanStart = Trace && Trace->active() ? Trace->nowUs() : 0;
    z3::check_result Answer = S.check();
    observeZ3Check("getModel", Pred, usSince(T0), SpanStart);
    if (Answer != z3::sat) {
      S.pop();
      return std::nullopt;
    }
    z3::model M = S.get_model();
    S.pop();
    AttrModel Result;
    for (TermRef Attr : Attrs) {
      if (Result.count(Attr))
        continue;
      z3::expr Const =
          Z.Ctx.constant(attrConstName(Attr).c_str(), Z.z3Sort(Attr->sort()));
      z3::expr V = M.eval(Const, /*model_completion=*/true);
      switch (Attr->sort()) {
      case Sort::Bool:
        Result.emplace(Attr, Value::boolean(V.is_true()));
        break;
      case Sort::Int: {
        int64_t I = 0;
        if (!V.is_numeral_i64(I))
          I = 0;
        Result.emplace(Attr, Value::integer(I));
        break;
      }
      case Sort::Real: {
        int64_t Num = 0, Den = 1;
        z3::expr N = V.numerator(), D = V.denominator();
        if (!N.is_numeral_i64(Num))
          Num = 0;
        if (!D.is_numeral_i64(Den) || Den == 0)
          Den = 1;
        Result.emplace(Attr, Value::real(Rational(Num, Den)));
        break;
      }
      case Sort::String:
        Result.emplace(Attr, Value::string(V.get_string()));
        break;
      }
    }
    return Result;
  } catch (const z3::exception &) {
    return std::nullopt;
  }
}
