//===- smt/Term.cpp - Hash-consed label-theory terms ----------------------===//

#include "smt/Term.h"

#include "support/Freeze.h"
#include "support/Hashing.h"

#include <algorithm>
#include <cassert>

using namespace fast;

const char *fast::termKindName(TermKind K) {
  switch (K) {
  case TermKind::ConstValue:
    return "const";
  case TermKind::Attr:
    return "attr";
  case TermKind::Not:
    return "not";
  case TermKind::And:
    return "and";
  case TermKind::Or:
    return "or";
  case TermKind::Ite:
    return "ite";
  case TermKind::Eq:
    return "=";
  case TermKind::Lt:
    return "<";
  case TermKind::Le:
    return "<=";
  case TermKind::Add:
    return "+";
  case TermKind::Neg:
    return "-";
  case TermKind::Mul:
    return "*";
  case TermKind::Mod:
    return "%";
  case TermKind::Div:
    return "div";
  }
  return "<bad-kind>";
}

//===----------------------------------------------------------------------===//
// Term
//===----------------------------------------------------------------------===//

Term::Term(TermKind Kind, Sort TheSort, Value Payload, unsigned AttrIndex,
           std::string Name, std::vector<TermRef> Operands)
    : Kind(Kind), TheSort(TheSort), Payload(std::move(Payload)),
      AttrIndex(AttrIndex), Name(std::move(Name)),
      Operands(std::move(Operands)) {
  std::size_t Seed = static_cast<std::size_t>(Kind);
  hashCombineValue(Seed, static_cast<unsigned>(TheSort));
  if (Kind == TermKind::ConstValue)
    hashCombine(Seed, this->Payload.hash());
  if (Kind == TermKind::Attr) {
    hashCombineValue(Seed, AttrIndex);
    hashCombineValue(Seed, this->Name);
  }
  for (TermRef Op : this->Operands)
    hashCombineValue(Seed, Op->id());
  Hash = Seed;
}

std::string Term::str() const {
  switch (Kind) {
  case TermKind::ConstValue: {
    // Negative numerics print in prefix form so that a printed term can
    // be re-parsed without the leading minus gluing onto the previous
    // argument of a prefix application (see fast/Export.cpp).
    bool Negative =
        (TheSort == Sort::Int && Payload.getInt() < 0) ||
        (TheSort == Sort::Real && Payload.getReal().isNegative());
    if (Negative)
      return "(- " + Payload.str().substr(1) + ")";
    return Payload.str();
  }
  case TermKind::Attr:
    return Name;
  default:
    break;
  }
  std::string Result = "(";
  Result += termKindName(Kind);
  for (TermRef Op : Operands) {
    Result += ' ';
    Result += Op->str();
  }
  Result += ')';
  return Result;
}

//===----------------------------------------------------------------------===//
// TermFactory
//===----------------------------------------------------------------------===//

bool TermFactory::NodeEq::operator()(const Term *A, const Term *B) const {
  if (A->kind() != B->kind() || A->sort() != B->sort())
    return false;
  if (A->kind() == TermKind::ConstValue)
    return A->constValue() == B->constValue();
  if (A->kind() == TermKind::Attr)
    return A->attrIndex() == B->attrIndex() && A->attrName() == B->attrName();
  auto AOps = A->operands(), BOps = B->operands();
  return std::equal(AOps.begin(), AOps.end(), BOps.begin(), BOps.end());
}

TermFactory::TermFactory() {
  True = constant(Value::boolean(true));
  False = constant(Value::boolean(false));
}

TermFactory::TermFactory(const TermFactory *Base)
    : Base(Base), IdOffset(static_cast<unsigned>(Base->numTerms())) {
  assert(Base->frozen() && "overlay requires a frozen base factory");
  True = Base->True;
  False = Base->False;
}

const Term *TermFactory::findInterned(const Term *Probe) const {
  if (Base)
    if (const Term *Hit = Base->findInterned(Probe))
      return Hit;
  auto It = Interned.find(const_cast<Term *>(Probe));
  return It == Interned.end() ? nullptr : *It;
}

TermRef TermFactory::intern(TermKind Kind, Sort TheSort, Value Payload,
                            unsigned AttrIndex, std::string Name,
                            std::vector<TermRef> Operands) {
  auto Node = std::unique_ptr<Term>(new Term(Kind, TheSort, std::move(Payload),
                                             AttrIndex, std::move(Name),
                                             std::move(Operands)));
  // The base chain is frozen, so probing it is a lock-free read shared by
  // every overlay; only local misses touch this factory's tables.
  if (Base)
    if (const Term *Hit = Base->findInterned(Node.get()))
      return Hit;
  auto It = Interned.find(Node.get());
  if (It != Interned.end())
    return *It;
  if (Frozen)
    throw FrozenFactoryError("TermFactory");
  Node->Id = IdOffset + static_cast<unsigned>(Nodes.size());
  Term *Raw = Node.get();
  Nodes.push_back(std::move(Node));
  Interned.insert(Raw);
  return Raw;
}

TermRef TermFactory::constant(Value V) {
  Sort S = V.sort();
  return intern(TermKind::ConstValue, S, std::move(V), 0, "", {});
}

TermRef TermFactory::attr(unsigned Index, Sort S, std::string Name) {
  return intern(TermKind::Attr, S, Value(), Index, std::move(Name), {});
}

TermRef TermFactory::mkNot(TermRef T) {
  assert(T->sort() == Sort::Bool && "not on non-boolean");
  if (T->isTrue())
    return False;
  if (T->isFalse())
    return True;
  if (T->kind() == TermKind::Not)
    return T->operand(0);
  // not (a < b) == b <= a, and dually; keeps negations out of arithmetic
  // literals so that equal predicates are more often pointer-identical.
  if (T->kind() == TermKind::Lt)
    return mkLe(T->operand(1), T->operand(0));
  if (T->kind() == TermKind::Le)
    return mkLt(T->operand(1), T->operand(0));
  return intern(TermKind::Not, Sort::Bool, Value(), 0, "", {T});
}

TermRef TermFactory::mkAnd(TermRef A, TermRef B) {
  TermRef Ops[2] = {A, B};
  return mkAnd(Ops);
}

TermRef TermFactory::mkOr(TermRef A, TermRef B) {
  TermRef Ops[2] = {A, B};
  return mkOr(Ops);
}

TermRef TermFactory::mkAnd(std::span<const TermRef> Conjuncts) {
  std::vector<TermRef> Flat;
  for (TermRef C : Conjuncts) {
    assert(C->sort() == Sort::Bool && "and on non-boolean");
    if (C->isFalse())
      return False;
    if (C->isTrue())
      continue;
    if (C->kind() == TermKind::And) {
      auto Ops = C->operands();
      Flat.insert(Flat.end(), Ops.begin(), Ops.end());
    } else {
      Flat.push_back(C);
    }
  }
  std::sort(Flat.begin(), Flat.end(),
            [](TermRef A, TermRef B) { return A->id() < B->id(); });
  Flat.erase(std::unique(Flat.begin(), Flat.end()), Flat.end());
  // a && !a == false.
  for (TermRef C : Flat)
    if (C->kind() == TermKind::Not &&
        std::binary_search(Flat.begin(), Flat.end(), C->operand(0),
                           [](TermRef A, TermRef B) { return A->id() < B->id(); }))
      return False;
  if (Flat.empty())
    return True;
  if (Flat.size() == 1)
    return Flat.front();
  return intern(TermKind::And, Sort::Bool, Value(), 0, "", std::move(Flat));
}

TermRef TermFactory::mkOr(std::span<const TermRef> Disjuncts) {
  std::vector<TermRef> Flat;
  for (TermRef D : Disjuncts) {
    assert(D->sort() == Sort::Bool && "or on non-boolean");
    if (D->isTrue())
      return True;
    if (D->isFalse())
      continue;
    if (D->kind() == TermKind::Or) {
      auto Ops = D->operands();
      Flat.insert(Flat.end(), Ops.begin(), Ops.end());
    } else {
      Flat.push_back(D);
    }
  }
  std::sort(Flat.begin(), Flat.end(),
            [](TermRef A, TermRef B) { return A->id() < B->id(); });
  Flat.erase(std::unique(Flat.begin(), Flat.end()), Flat.end());
  // a || !a == true.
  for (TermRef D : Flat)
    if (D->kind() == TermKind::Not &&
        std::binary_search(Flat.begin(), Flat.end(), D->operand(0),
                           [](TermRef A, TermRef B) { return A->id() < B->id(); }))
      return True;
  if (Flat.empty())
    return False;
  if (Flat.size() == 1)
    return Flat.front();
  return intern(TermKind::Or, Sort::Bool, Value(), 0, "", std::move(Flat));
}

TermRef TermFactory::mkIte(TermRef Cond, TermRef Then, TermRef Else) {
  assert(Cond->sort() == Sort::Bool && "ite condition must be boolean");
  assert(Then->sort() == Else->sort() && "ite branch sorts differ");
  if (Cond->isTrue())
    return Then;
  if (Cond->isFalse())
    return Else;
  if (Then == Else)
    return Then;
  if (Then->sort() == Sort::Bool)
    return mkOr(mkAnd(Cond, Then), mkAnd(mkNot(Cond), Else));
  return intern(TermKind::Ite, Then->sort(), Value(), 0, "",
                {Cond, Then, Else});
}

TermRef TermFactory::mkEq(TermRef A, TermRef B) {
  assert(A->sort() == B->sort() && "equality between different sorts");
  if (A == B)
    return True;
  if (A->isConst() && B->isConst())
    return boolConst(A->constValue() == B->constValue());
  if (A->sort() == Sort::Bool) {
    if (A->isTrue())
      return B;
    if (A->isFalse())
      return mkNot(B);
    if (B->isTrue())
      return A;
    if (B->isFalse())
      return mkNot(A);
  }
  if (A->id() > B->id())
    std::swap(A, B);
  return intern(TermKind::Eq, Sort::Bool, Value(), 0, "", {A, B});
}

TermRef TermFactory::mkLt(TermRef A, TermRef B) {
  assert(isNumericSort(A->sort()) && A->sort() == B->sort() &&
         "less-than on non-numeric");
  if (A == B)
    return False;
  if (A->isConst() && B->isConst())
    return boolConst(A->constValue().asRational() <
                     B->constValue().asRational());
  return intern(TermKind::Lt, Sort::Bool, Value(), 0, "", {A, B});
}

TermRef TermFactory::mkLe(TermRef A, TermRef B) {
  assert(isNumericSort(A->sort()) && A->sort() == B->sort() &&
         "less-or-equal on non-numeric");
  if (A == B)
    return True;
  if (A->isConst() && B->isConst())
    return boolConst(A->constValue().asRational() <=
                     B->constValue().asRational());
  return intern(TermKind::Le, Sort::Bool, Value(), 0, "", {A, B});
}

TermRef TermFactory::mkAssocCommut(TermKind Kind,
                                   std::span<const TermRef> Operands) {
  assert((Kind == TermKind::Add || Kind == TermKind::Mul) &&
         "mkAssocCommut handles + and * only");
  assert(!Operands.empty() && "empty arithmetic application");
  Sort S = Operands.front()->sort();
  assert(isNumericSort(S) && "arithmetic on non-numeric sort");
  std::vector<TermRef> Flat;
  Rational Folded = Kind == TermKind::Add ? Rational(0) : Rational(1);
  for (TermRef Op : Operands) {
    assert(Op->sort() == S && "mixed-sort arithmetic");
    std::span<const TermRef> Inner(&Op, 1);
    if (Op->kind() == Kind)
      Inner = Op->operands();
    for (TermRef T : Inner) {
      if (T->isConst()) {
        Rational C = T->constValue().asRational();
        Folded = Kind == TermKind::Add ? Folded + C : Folded * C;
      } else {
        Flat.push_back(T);
      }
    }
  }
  if (Kind == TermKind::Mul && Folded.isZero())
    Flat.clear();
  std::sort(Flat.begin(), Flat.end(),
            [](TermRef A, TermRef B) { return A->id() < B->id(); });
  bool DropFolded = Kind == TermKind::Add ? Folded.isZero()
                                          : Folded == Rational(1);
  TermRef FoldedTerm = nullptr;
  if (!DropFolded || Flat.empty()) {
    if (S == Sort::Int) {
      assert(Folded.isInteger() && "non-integral fold in Int arithmetic");
      FoldedTerm = intConst(Folded.numerator());
    } else {
      FoldedTerm = realConst(Folded);
    }
  }
  if (Flat.empty())
    return FoldedTerm;
  if (FoldedTerm)
    Flat.push_back(FoldedTerm);
  if (Flat.size() == 1)
    return Flat.front();
  return intern(Kind, S, Value(), 0, "", std::move(Flat));
}

TermRef TermFactory::mkAdd(std::span<const TermRef> Summands) {
  return mkAssocCommut(TermKind::Add, Summands);
}

TermRef TermFactory::mkAdd(TermRef A, TermRef B) {
  TermRef Ops[2] = {A, B};
  return mkAdd(Ops);
}

TermRef TermFactory::mkMul(std::span<const TermRef> Factors) {
  return mkAssocCommut(TermKind::Mul, Factors);
}

TermRef TermFactory::mkMul(TermRef A, TermRef B) {
  TermRef Ops[2] = {A, B};
  return mkMul(Ops);
}

TermRef TermFactory::mkNeg(TermRef T) {
  assert(isNumericSort(T->sort()) && "negation of non-numeric");
  if (T->isConst()) {
    if (T->sort() == Sort::Int)
      return intConst(-T->constValue().getInt());
    return realConst(-T->constValue().getReal());
  }
  if (T->kind() == TermKind::Neg)
    return T->operand(0);
  return intern(TermKind::Neg, T->sort(), Value(), 0, "", {T});
}

namespace {

/// Euclidean quotient as defined by SMT-LIB (and Z3): the unique q with
/// a == q*b + r and 0 <= r < |b|.
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

} // namespace

TermRef TermFactory::mkMod(TermRef A, TermRef B) {
  assert(A->sort() == Sort::Int && B->sort() == Sort::Int &&
         "mod on non-integers");
  if (B->isConst()) {
    int64_t M = B->constValue().getInt();
    if (M == 1 || M == -1)
      return intConst(0);
    if (A->isConst() && M != 0)
      return intConst(euclideanMod(A->constValue().getInt(), M));
    if (M != 0) {
      // (x mod m) mod m == x mod m.
      if (A->kind() == TermKind::Mod && A->operand(1) == B)
        return A;
      // Inner mods by the same modulus drop out of sums, and constant
      // summands reduce: ((x + 5) mod 26 + 5) mod 26 == (x + 10) mod 26.
      // This keeps the label expressions of repeatedly composed
      // transducers (the deforestation pipelines of Section 5.3) from
      // growing with the composition depth.
      if (A->kind() == TermKind::Add) {
        std::vector<TermRef> Summands;
        bool Changed = false;
        for (TermRef Op : A->operands()) {
          if (Op->kind() == TermKind::Mod && Op->operand(1) == B) {
            Summands.push_back(Op->operand(0));
            Changed = true;
          } else if (Op->isConst()) {
            int64_t C = Op->constValue().getInt();
            int64_t Reduced = euclideanMod(C, M);
            Summands.push_back(intConst(Reduced));
            Changed |= Reduced != C;
          } else {
            Summands.push_back(Op);
          }
        }
        if (Changed)
          return mkMod(mkAdd(Summands), B);
      }
    }
  }
  return intern(TermKind::Mod, Sort::Int, Value(), 0, "", {A, B});
}

TermRef TermFactory::mkDiv(TermRef A, TermRef B) {
  assert(A->sort() == Sort::Int && B->sort() == Sort::Int &&
         "div on non-integers");
  if (B->isConst()) {
    int64_t M = B->constValue().getInt();
    if (M == 1)
      return A;
    if (A->isConst() && M != 0)
      return intConst(euclideanDiv(A->constValue().getInt(), M));
  }
  return intern(TermKind::Div, Sort::Int, Value(), 0, "", {A, B});
}

TermRef TermFactory::substituteAttrs(TermRef T,
                                     std::span<const TermRef> Replacements) {
  std::unordered_map<TermRef, TermRef> Memo;
  auto Rec = [&](auto &&Self, TermRef Node) -> TermRef {
    auto It = Memo.find(Node);
    if (It != Memo.end())
      return It->second;
    TermRef Result;
    switch (Node->kind()) {
    case TermKind::ConstValue:
      Result = Node;
      break;
    case TermKind::Attr:
      assert(Node->attrIndex() < Replacements.size() &&
             "attribute index out of range in substitution");
      Result = Replacements[Node->attrIndex()];
      assert(Result->sort() == Node->sort() &&
             "ill-sorted attribute substitution");
      break;
    default: {
      std::vector<TermRef> NewOps;
      NewOps.reserve(Node->numOperands());
      for (TermRef Op : Node->operands())
        NewOps.push_back(Self(Self, Op));
      switch (Node->kind()) {
      case TermKind::Not:
        Result = mkNot(NewOps[0]);
        break;
      case TermKind::And:
        Result = mkAnd(NewOps);
        break;
      case TermKind::Or:
        Result = mkOr(NewOps);
        break;
      case TermKind::Ite:
        Result = mkIte(NewOps[0], NewOps[1], NewOps[2]);
        break;
      case TermKind::Eq:
        Result = mkEq(NewOps[0], NewOps[1]);
        break;
      case TermKind::Lt:
        Result = mkLt(NewOps[0], NewOps[1]);
        break;
      case TermKind::Le:
        Result = mkLe(NewOps[0], NewOps[1]);
        break;
      case TermKind::Add:
        Result = mkAdd(NewOps);
        break;
      case TermKind::Neg:
        Result = mkNeg(NewOps[0]);
        break;
      case TermKind::Mul:
        Result = mkMul(NewOps);
        break;
      case TermKind::Mod:
        Result = mkMod(NewOps[0], NewOps[1]);
        break;
      case TermKind::Div:
        Result = mkDiv(NewOps[0], NewOps[1]);
        break;
      default:
        assert(false && "unhandled term kind in substitution");
        Result = Node;
      }
    }
    }
    Memo.emplace(Node, Result);
    return Result;
  };
  return Rec(Rec, T);
}

unsigned TermFactory::numAttrsUsed(TermRef T) {
  unsigned Max = 0;
  std::unordered_set<TermRef> Visited;
  auto Rec = [&](auto &&Self, TermRef Node) -> void {
    if (!Visited.insert(Node).second)
      return;
    if (Node->kind() == TermKind::Attr)
      Max = std::max(Max, Node->attrIndex() + 1);
    for (TermRef Op : Node->operands())
      Self(Self, Op);
  };
  Rec(Rec, T);
  return Max;
}

//===----------------------------------------------------------------------===//
// Concrete evaluation
//===----------------------------------------------------------------------===//

Value fast::evalTerm(TermRef T, std::span<const Value> Attrs) {
  switch (T->kind()) {
  case TermKind::ConstValue:
    return T->constValue();
  case TermKind::Attr:
    assert(T->attrIndex() < Attrs.size() && "attribute index out of range");
    assert(Attrs[T->attrIndex()].sort() == T->sort() &&
           "label value has wrong sort");
    return Attrs[T->attrIndex()];
  case TermKind::Not:
    return Value::boolean(!evalPredicate(T->operand(0), Attrs));
  case TermKind::And:
    for (TermRef Op : T->operands())
      if (!evalPredicate(Op, Attrs))
        return Value::boolean(false);
    return Value::boolean(true);
  case TermKind::Or:
    for (TermRef Op : T->operands())
      if (evalPredicate(Op, Attrs))
        return Value::boolean(true);
    return Value::boolean(false);
  case TermKind::Ite:
    return evalPredicate(T->operand(0), Attrs) ? evalTerm(T->operand(1), Attrs)
                                               : evalTerm(T->operand(2), Attrs);
  case TermKind::Eq:
    return Value::boolean(evalTerm(T->operand(0), Attrs) ==
                          evalTerm(T->operand(1), Attrs));
  case TermKind::Lt:
    return Value::boolean(evalTerm(T->operand(0), Attrs).asRational() <
                          evalTerm(T->operand(1), Attrs).asRational());
  case TermKind::Le:
    return Value::boolean(evalTerm(T->operand(0), Attrs).asRational() <=
                          evalTerm(T->operand(1), Attrs).asRational());
  case TermKind::Add: {
    if (T->sort() == Sort::Int) {
      int64_t Sum = 0;
      for (TermRef Op : T->operands())
        Sum += evalTerm(Op, Attrs).getInt();
      return Value::integer(Sum);
    }
    Rational Sum(0);
    for (TermRef Op : T->operands())
      Sum = Sum + evalTerm(Op, Attrs).getReal();
    return Value::real(Sum);
  }
  case TermKind::Neg: {
    Value V = evalTerm(T->operand(0), Attrs);
    if (V.sort() == Sort::Int)
      return Value::integer(-V.getInt());
    return Value::real(-V.getReal());
  }
  case TermKind::Mul: {
    if (T->sort() == Sort::Int) {
      int64_t Product = 1;
      for (TermRef Op : T->operands())
        Product *= evalTerm(Op, Attrs).getInt();
      return Value::integer(Product);
    }
    Rational Product(1);
    for (TermRef Op : T->operands())
      Product = Product * evalTerm(Op, Attrs).getReal();
    return Value::real(Product);
  }
  case TermKind::Mod: {
    int64_t A = evalTerm(T->operand(0), Attrs).getInt();
    int64_t B = evalTerm(T->operand(1), Attrs).getInt();
    assert(B != 0 && "mod by zero during evaluation");
    return Value::integer(euclideanMod(A, B));
  }
  case TermKind::Div: {
    int64_t A = evalTerm(T->operand(0), Attrs).getInt();
    int64_t B = evalTerm(T->operand(1), Attrs).getInt();
    assert(B != 0 && "div by zero during evaluation");
    return Value::integer(euclideanDiv(A, B));
  }
  }
  assert(false && "unhandled term kind in evaluation");
  return Value();
}
