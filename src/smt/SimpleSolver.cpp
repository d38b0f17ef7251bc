//===- smt/SimpleSolver.cpp - Built-in decision procedure -----------------===//

#include "smt/SimpleSolver.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>
#include <numeric>
#include <optional>
#include <unordered_map>

using namespace fast;

namespace {

/// Upper bound on the number of DNF cubes we are willing to expand.
constexpr size_t MaxCubes = 256;
/// Upper bound on interval widths / congruence periods we enumerate.
constexpr int64_t MaxEnumeration = 65536;

/// Limits of the attribute-region procedure: distinct atoms per formula,
/// the lcm of one attribute's moduli, and combinations of per-attribute
/// truth vectors searched.
constexpr size_t MaxRegionAtoms = 64;
constexpr int64_t MaxRegionPeriod = 4096;
constexpr size_t MaxRegionCombinations = size_t(1) << 16;
/// Int breakpoints, and every value evalTerm computes from an Int
/// representative, stay below this magnitude, so nothing overflows.
constexpr int64_t MaxRegionMagnitude = int64_t(1) << 62;

/// A literal: an atomic term with a polarity.
struct Lit {
  TermRef Atom;
  bool Positive;
};
using Cube = std::vector<Lit>;

/// Expands \p T (under \p Positive) into DNF cubes appended to \p Out.
/// Returns false when the expansion exceeds MaxCubes.
bool toDnf(TermRef T, bool Positive, std::vector<Cube> &Out) {
  switch (T->kind()) {
  case TermKind::ConstValue:
    if (T->constValue().getBool() == Positive) {
      Out.push_back({}); // One empty (always-true) cube.
    }
    // else: contributes no cube.
    return true;
  case TermKind::Not:
    return toDnf(T->operand(0), !Positive, Out);
  case TermKind::And:
  case TermKind::Or: {
    bool IsProduct = (T->kind() == TermKind::And) == Positive;
    if (!IsProduct) {
      // Disjunction: concatenate cubes.
      for (TermRef Op : T->operands())
        if (!toDnf(Op, Positive, Out))
          return false;
      return Out.size() <= MaxCubes;
    }
    // Conjunction: cube product.
    std::vector<Cube> Acc = {{}};
    for (TermRef Op : T->operands()) {
      std::vector<Cube> Next;
      std::vector<Cube> OpCubes;
      if (!toDnf(Op, Positive, OpCubes))
        return false;
      if (Acc.size() * OpCubes.size() > MaxCubes)
        return false;
      for (const Cube &A : Acc)
        for (const Cube &B : OpCubes) {
          Cube Joined = A;
          Joined.insert(Joined.end(), B.begin(), B.end());
          Next.push_back(std::move(Joined));
        }
      Acc = std::move(Next);
    }
    Out.insert(Out.end(), Acc.begin(), Acc.end());
    return Out.size() <= MaxCubes;
  }
  default:
    Out.push_back({{T, Positive}});
    return true;
  }
}

/// An affine view Coeff * attr + Offset of a numeric term (Coeff may be 0
/// for constants; Attr is then -1).
struct Affine {
  bool Ok = false;
  int Attr = -1;
  Sort AttrSort = Sort::Int;
  Rational Coeff = Rational(0);
  Rational Offset = Rational(0);
};

Affine affineConst(Rational R) {
  Affine A;
  A.Ok = true;
  A.Offset = R;
  return A;
}

Affine parseAffine(TermRef T) {
  Affine Fail;
  switch (T->kind()) {
  case TermKind::ConstValue:
    if (T->sort() == Sort::Int)
      return affineConst(Rational(T->constValue().getInt()));
    if (T->sort() == Sort::Real)
      return affineConst(T->constValue().getReal());
    return Fail;
  case TermKind::Attr: {
    Affine A;
    A.Ok = true;
    A.Attr = static_cast<int>(T->attrIndex());
    A.AttrSort = T->sort();
    A.Coeff = Rational(1);
    return A;
  }
  case TermKind::Neg: {
    Affine A = parseAffine(T->operand(0));
    if (!A.Ok)
      return Fail;
    A.Coeff = -A.Coeff;
    A.Offset = -A.Offset;
    return A;
  }
  case TermKind::Add: {
    Affine Sum = affineConst(Rational(0));
    for (TermRef Op : T->operands()) {
      Affine A = parseAffine(Op);
      if (!A.Ok)
        return Fail;
      if (A.Attr >= 0) {
        if (Sum.Attr >= 0 && Sum.Attr != A.Attr)
          return Fail; // Two distinct attributes.
        if (Sum.Attr < 0) {
          Sum.Attr = A.Attr;
          Sum.AttrSort = A.AttrSort;
        }
        Sum.Coeff = Sum.Coeff + A.Coeff;
      }
      Sum.Offset = Sum.Offset + A.Offset;
    }
    return Sum;
  }
  case TermKind::Mul: {
    // Allow const * ... * const * (affine): exactly one non-constant.
    Affine Result = affineConst(Rational(1));
    Rational Scale(1);
    bool SeenAttr = false;
    for (TermRef Op : T->operands()) {
      Affine A = parseAffine(Op);
      if (!A.Ok)
        return Fail;
      if (A.Attr >= 0) {
        if (SeenAttr)
          return Fail; // Non-linear.
        SeenAttr = true;
        Result = A;
      } else {
        Scale = Scale * A.Offset;
      }
    }
    if (!SeenAttr)
      return affineConst(Scale);
    Result.Coeff = Result.Coeff * Scale;
    Result.Offset = Result.Offset * Scale;
    return Result;
  }
  default:
    return Fail;
  }
}

/// An atom of the fragment, read as a constraint on one attribute.
struct AtomInfo {
  enum class Kind {
    Const, ///< Decided without looking at any attribute: Truth.
    Bool,  ///< A Bool attribute.
    Str,   ///< attr == *Str.
    Cong,  ///< attr == Target (mod M), M > 0, Target in [0, M).
    Cmp,   ///< Coeff * attr Rel Coeff * V; Negative iff Coeff < 0.
  };
  Kind K = Kind::Const;
  bool Truth = false;
  int Attr = -1;
  Sort AttrSort = Sort::Bool;
  const std::string *Str = nullptr;
  int64_t M = 0, Target = 0;
  TermKind Rel = TermKind::Eq;
  Rational V;
  bool Negative = false;
};

/// Reads Lhs Rel Rhs (Eq, Lt or Le) as an affine comparison.
std::optional<AtomInfo> classifyComparison(TermKind Rel, TermRef Lhs,
                                           TermRef Rhs) {
  Affine Left = parseAffine(Lhs), Right = parseAffine(Rhs);
  if (!Left.Ok || !Right.Ok)
    return std::nullopt;
  if (Left.Attr >= 0 && Right.Attr >= 0 && Left.Attr != Right.Attr)
    return std::nullopt; // Two attributes (e.g. color == bg).
  AtomInfo Info;
  Info.Attr = Left.Attr >= 0 ? Left.Attr : Right.Attr;
  Rational Coeff = Left.Coeff - Right.Coeff;
  Rational Bound = Right.Offset - Left.Offset; // Coeff * x Rel Bound.
  if (Info.Attr < 0 || Coeff.isZero()) {
    Info.Truth = Rel == TermKind::Eq   ? Bound.isZero()
                 : Rel == TermKind::Lt ? Rational(0) < Bound
                                       : Rational(0) <= Bound;
    return Info;
  }
  Info.K = AtomInfo::Kind::Cmp;
  Info.AttrSort = Left.Attr >= 0 ? Left.AttrSort : Right.AttrSort;
  Info.Rel = Rel;
  Info.V = Bound / Coeff;
  Info.Negative = Coeff.isNegative();
  return Info;
}

/// Reads \p A as an atom of the fragment; nullopt when it is outside.
std::optional<AtomInfo> classifyAtom(TermRef A) {
  AtomInfo Info;
  switch (A->kind()) {
  case TermKind::Attr:
    if (A->sort() != Sort::Bool)
      return std::nullopt;
    Info.K = AtomInfo::Kind::Bool;
    Info.Attr = static_cast<int>(A->attrIndex());
    return Info;
  case TermKind::Eq: {
    TermRef Lhs = A->operand(0), Rhs = A->operand(1);
    if (Lhs->sort() == Sort::String) {
      // One side must be an attribute, the other a constant.
      if (Lhs->kind() == TermKind::ConstValue)
        std::swap(Lhs, Rhs);
      if (Lhs->kind() != TermKind::Attr || Rhs->kind() != TermKind::ConstValue)
        return std::nullopt;
      Info.K = AtomInfo::Kind::Str;
      Info.Attr = static_cast<int>(Lhs->attrIndex());
      Info.AttrSort = Sort::String;
      Info.Str = &Rhs->constValue().getString();
      return Info;
    }
    if (Lhs->sort() == Sort::Bool)
      return std::nullopt; // Rare; factory usually folds these.
    if (Lhs->kind() != TermKind::Mod && Rhs->kind() != TermKind::Mod)
      return classifyComparison(TermKind::Eq, Lhs, Rhs);

    // Congruence: (affine) mod m == r.
    if (Lhs->kind() != TermKind::Mod)
      std::swap(Lhs, Rhs);
    if (Rhs->kind() != TermKind::ConstValue ||
        Lhs->operand(1)->kind() != TermKind::ConstValue)
      return std::nullopt;
    Affine U = parseAffine(Lhs->operand(0));
    int64_t M = Lhs->operand(1)->constValue().getInt();
    int64_t R = Rhs->constValue().getInt();
    if (!U.Ok || U.Attr < 0 || U.AttrSort != Sort::Int || M == 0 ||
        M == INT64_MIN)
      return std::nullopt;
    M = M < 0 ? -M : M;
    if (R < 0 || R >= M)
      return Info; // Mod is always in [0, M): the equality is false.
    if (U.Coeff != Rational(1) && U.Coeff != Rational(-1))
      return std::nullopt;
    if (!U.Offset.isInteger())
      return std::nullopt;
    // coeff * x + off == r (mod M)  =>  x == coeff * (r - off) (mod M).
    __int128 Diff = static_cast<__int128>(R) - U.Offset.numerator();
    if (U.Coeff.isNegative())
      Diff = -Diff;
    Info.K = AtomInfo::Kind::Cong;
    Info.Attr = U.Attr;
    Info.AttrSort = Sort::Int;
    Info.M = M;
    Info.Target = static_cast<int64_t>((Diff % M + M) % M);
    return Info;
  }
  case TermKind::Lt:
  case TermKind::Le:
    return classifyComparison(A->kind(), A->operand(0), A->operand(1));
  default:
    return std::nullopt;
  }
}

/// Per-attribute constraint stores for one cube.
struct BoolStore {
  std::optional<bool> Pinned;
  bool Conflict = false;
  void pin(bool V) {
    if (Pinned && *Pinned != V)
      Conflict = true;
    Pinned = V;
  }
};

struct StrStore {
  std::optional<std::string> Pinned;
  std::vector<std::string> NotEqual;
  bool Conflict = false;
  void pin(const std::string &V) {
    if (Pinned && *Pinned != V)
      Conflict = true;
    Pinned = V;
  }
};

struct Cong {
  int64_t M;
  int64_t R; // in [0, M)
  bool Positive;
};

struct NumStore {
  Sort TheSort = Sort::Int;
  bool HasLo = false, HasHi = false;
  Rational Lo, Hi;
  bool LoStrict = false, HiStrict = false;
  std::vector<Rational> NotEqual;
  std::vector<Cong> Congs; // Int only.

  void addLo(Rational V, bool Strict) {
    if (!HasLo || Lo < V || (Lo == V && Strict)) {
      Lo = V;
      LoStrict = Strict;
      HasLo = true;
    }
  }
  void addHi(Rational V, bool Strict) {
    if (!HasHi || V < Hi || (Hi == V && Strict)) {
      Hi = V;
      HiStrict = Strict;
      HasHi = true;
    }
  }
};

int64_t euclidMod(int64_t A, int64_t M) {
  int64_t R = A % M;
  return R < 0 ? R + M : R;
}

/// The largest integer not above \p V.
int64_t floorOf(const Rational &V) {
  __int128 Num = V.numerator(), Den = V.denominator();
  __int128 Q = Num / Den;
  return static_cast<int64_t>(Q * Den > Num ? Q - 1 : Q);
}

/// Decides the integer constraints of one attribute.  Unknown only when
/// enumeration limits are hit.
SimpleResult decideInt(const NumStore &C) {
  // Integer-adjust the rational bounds.
  bool HasLo = C.HasLo, HasHi = C.HasHi;
  int64_t Lo = 0, Hi = 0;
  if (HasLo) {
    // Smallest integer satisfying the bound.
    int64_t Floor = floorOf(C.Lo);
    Lo = (C.Lo == Rational(Floor)) ? (C.LoStrict ? Floor + 1 : Floor)
                                   : Floor + 1;
  }
  if (HasHi) {
    int64_t Floor = floorOf(C.Hi);
    Hi = (C.Hi == Rational(Floor)) ? (C.HiStrict ? Floor - 1 : Floor) : Floor;
  }
  if (HasLo && HasHi && Lo > Hi)
    return SimpleResult::Unsat;

  auto Satisfies = [&](int64_t X) {
    for (const Cong &G : C.Congs)
      if ((euclidMod(X - G.R, G.M) == 0) != G.Positive)
        return false;
    for (const Rational &N : C.NotEqual)
      if (Rational(X) == N)
        return false;
    return true;
  };

  // Bounded and small: enumerate.
  if (HasLo && HasHi) {
    if (Hi - Lo <= MaxEnumeration) {
      for (int64_t X = Lo; X <= Hi; ++X)
        if (Satisfies(X))
          return SimpleResult::Sat;
      return SimpleResult::Unsat;
    }
  }

  // Wide or unbounded: find a period covering every congruence, then a
  // satisfiable residue; the interval is wide enough to contain one.
  int64_t Period = 1;
  for (const Cong &G : C.Congs) {
    Period = std::lcm(Period, G.M);
    if (Period > MaxEnumeration)
      return SimpleResult::Unknown;
  }
  // Scan a window of two periods plus slack for the finitely many
  // disequalities.  The candidate set is periodic, so a windowful of
  // misses with this many periods rules out every integer in the
  // (wide or unbounded) interval.
  int64_t Window =
      Period * 2 + static_cast<int64_t>(C.NotEqual.size()) * Period + Period;
  if (Window > 4 * MaxEnumeration)
    return SimpleResult::Unknown;
  // Anchor the window inside the interval: at its lower end when one
  // exists, else just below the upper bound, else anywhere.
  int64_t Base = HasLo ? Lo : (HasHi ? Hi - Window : 0);
  for (int64_t X = Base; X <= Base + Window; ++X) {
    if (HasHi && X > Hi)
      break;
    if (Satisfies(X))
      return SimpleResult::Sat;
  }
  return SimpleResult::Unsat;
}

SimpleResult decideReal(const NumStore &C) {
  if (C.HasLo && C.HasHi) {
    if (C.Hi < C.Lo)
      return SimpleResult::Unsat;
    if (C.Lo == C.Hi) {
      if (C.LoStrict || C.HiStrict)
        return SimpleResult::Unsat;
      for (const Rational &N : C.NotEqual)
        if (N == C.Lo)
          return SimpleResult::Unsat;
      return SimpleResult::Sat;
    }
  }
  // A non-degenerate rational interval is dense: finitely many removed
  // points never empty it.
  return SimpleResult::Sat;
}

/// Decides one cube.
SimpleResult decideCube(const Cube &Literals) {
  std::map<int, BoolStore> Bools;
  std::map<int, StrStore> Strings;
  std::map<int, NumStore> Nums;

  auto NumFor = [&](int Attr, Sort S) -> NumStore & {
    NumStore &St = Nums[Attr];
    St.TheSort = S;
    return St;
  };

  for (const Lit &L : Literals) {
    std::optional<AtomInfo> A = classifyAtom(L.Atom);
    if (!A)
      return SimpleResult::Unknown;
    switch (A->K) {
    case AtomInfo::Kind::Const:
      if (A->Truth != L.Positive)
        return SimpleResult::Unsat;
      break;
    case AtomInfo::Kind::Bool:
      Bools[A->Attr].pin(L.Positive);
      break;
    case AtomInfo::Kind::Str: {
      StrStore &St = Strings[A->Attr];
      if (L.Positive)
        St.pin(*A->Str);
      else
        St.NotEqual.push_back(*A->Str);
      break;
    }
    case AtomInfo::Kind::Cong:
      NumFor(A->Attr, Sort::Int).Congs.push_back({A->M, A->Target, L.Positive});
      break;
    case AtomInfo::Kind::Cmp: {
      NumStore &St = NumFor(A->Attr, A->AttrSort);
      if (A->Rel == TermKind::Eq) {
        if (!L.Positive) {
          St.NotEqual.push_back(A->V);
          break;
        }
        if (A->AttrSort == Sort::Int && !A->V.isInteger())
          return SimpleResult::Unsat;
        St.addLo(A->V, false);
        St.addHi(A->V, false);
        break;
      }
      // Negation flips the relation: not(a < b) == b <= a.
      //   positive:  Coeff*x <  Bound (Lt) / <= Bound (Le)
      //   negative:  Coeff*x >  Bound (Le) / >= Bound (Lt)
      bool IsLt = A->Rel == TermKind::Lt;
      bool UpperBound = L.Positive != A->Negative;
      bool Strict = L.Positive ? IsLt : !IsLt;
      if (UpperBound)
        St.addHi(A->V, Strict);
      else
        St.addLo(A->V, Strict);
      break;
    }
    }
  }

  for (const auto &[Attr, St] : Bools) {
    (void)Attr;
    if (St.Conflict)
      return SimpleResult::Unsat;
  }
  for (const auto &[Attr, St] : Strings) {
    (void)Attr;
    if (St.Conflict)
      return SimpleResult::Unsat;
    if (St.Pinned &&
        std::find(St.NotEqual.begin(), St.NotEqual.end(), *St.Pinned) !=
            St.NotEqual.end())
      return SimpleResult::Unsat;
  }
  for (const auto &[Attr, St] : Nums) {
    (void)Attr;
    SimpleResult R = St.TheSort == Sort::Int ? decideInt(St) : decideReal(St);
    if (R != SimpleResult::Sat)
      return R;
  }
  return SimpleResult::Sat;
}

/// Decides a DNF: sat if any cube is sat, unknown if no cube is sat but
/// some cube was undecidable, unsat otherwise.
SimpleResult decideDnf(const std::vector<Cube> &Cubes) {
  bool AnyUnknown = false;
  for (const Cube &C : Cubes) {
    switch (decideCube(C)) {
    case SimpleResult::Sat:
      return SimpleResult::Sat;
    case SimpleResult::Unsat:
      break;
    case SimpleResult::Unknown:
      AnyUnknown = true;
      break;
    }
  }
  return AnyUnknown ? SimpleResult::Unknown : SimpleResult::Unsat;
}

/// An upper bound on every value evalTerm computes while evaluating the
/// Int term \p T with its attribute in [-XMax, XMax].
double magnitudeBound(TermRef T, double XMax) {
  double Bound = 0;
  switch (T->kind()) {
  case TermKind::ConstValue:
    return std::fabs(static_cast<double>(T->constValue().getInt()));
  case TermKind::Attr:
    return XMax;
  case TermKind::Mul:
    // Factors below 1 still leave their prefix product standing.
    Bound = 1;
    for (TermRef Op : T->operands())
      Bound *= std::max(1.0, magnitudeBound(Op, XMax));
    return Bound;
  case TermKind::Mod:
    return std::max(magnitudeBound(T->operand(0), XMax),
                    magnitudeBound(T->operand(1), XMax));
  default: // Neg, Add and the relations.
    for (TermRef Op : T->operands())
      Bound += magnitudeBound(Op, XMax);
    return Bound;
  }
}

/// Decides a formula of single-attribute atoms by attribute regions.
/// The formula's And/Or/Not skeleton is compiled once; each attribute gets
/// finitely many values that realise every truth vector its atoms can
/// take, the atoms are evaluated on them with evalTerm, and the product
/// of the distinct vectors is searched over the skeleton.
class RegionDecider {
public:
  SimpleResult decide(std::span<const TermRef> Roots) {
    std::vector<uint32_t> RootNodes;
    for (TermRef Root : Roots) {
      std::optional<uint32_t> Node = compile(Root);
      if (!Node)
        return SimpleResult::Unknown;
      RootNodes.push_back(*Node);
    }
    Node Root{TermKind::And};
    Root.First = static_cast<uint32_t>(Args.size());
    Root.Count = static_cast<uint32_t>(RootNodes.size());
    Nodes.push_back(Root);
    Args.insert(Args.end(), RootNodes.begin(), RootNodes.end());

    size_t Combinations = 1;
    for (Slot &S : Slots) {
      if (!tabulate(S))
        return SimpleResult::Unknown;
      Combinations *= S.Vectors.size();
      if (Combinations > MaxRegionCombinations)
        return SimpleResult::Unknown;
    }
    return search(Combinations);
  }

private:
  /// A skeleton node in post order: And/Or/Not over the nodes
  /// Args[First, First + Count), a ConstValue leaf that is Fixed, or an
  /// atom leaf (Kind Attr) reading bit Bit of slot Slot's current vector.
  struct Node {
    TermKind Kind;
    bool Fixed = false;
    uint32_t First = 0, Count = 0;
    uint32_t Slot = 0, Bit = 0;
  };
  /// One attribute: its atoms (bit k of a truth vector is atom k), what
  /// its representatives are built from, and the distinct vectors.
  struct Slot {
    unsigned Attr;
    Sort S;
    std::vector<TermRef> Atoms;
    std::vector<Rational> Breakpoints;
    int64_t Period = 1;
    std::vector<std::string> Strings;
    std::vector<uint64_t> Vectors;
  };

  std::vector<Node> Nodes;
  std::vector<uint32_t> Args;
  std::unordered_map<TermRef, uint32_t> NodeOf;
  std::vector<Slot> Slots;
  size_t NumAtoms = 0;

  std::optional<uint32_t> compile(TermRef T) {
    auto It = NodeOf.find(T);
    if (It != NodeOf.end())
      return It->second;
    Node N{T->kind()};
    switch (T->kind()) {
    case TermKind::ConstValue:
      N.Fixed = T->constValue().getBool();
      break;
    case TermKind::Not:
    case TermKind::And:
    case TermKind::Or: {
      std::vector<uint32_t> Ops;
      for (TermRef Op : T->operands()) {
        std::optional<uint32_t> OpNode = compile(Op);
        if (!OpNode)
          return std::nullopt;
        Ops.push_back(*OpNode);
      }
      N.First = static_cast<uint32_t>(Args.size());
      N.Count = static_cast<uint32_t>(Ops.size());
      Args.insert(Args.end(), Ops.begin(), Ops.end());
      break;
    }
    default: {
      std::optional<AtomInfo> A = classifyAtom(T);
      if (!A)
        return std::nullopt;
      if (A->K == AtomInfo::Kind::Const) {
        N.Kind = TermKind::ConstValue;
        N.Fixed = A->Truth;
        break;
      }
      if (++NumAtoms > MaxRegionAtoms)
        return std::nullopt;
      Slot *S = slotFor(static_cast<unsigned>(A->Attr), A->AttrSort);
      if (!S)
        return std::nullopt;
      switch (A->K) {
      case AtomInfo::Kind::Str:
        S->Strings.push_back(*A->Str);
        break;
      case AtomInfo::Kind::Cong:
        if (A->M > MaxRegionPeriod)
          return std::nullopt;
        S->Period = std::lcm(S->Period, A->M);
        if (S->Period > MaxRegionPeriod)
          return std::nullopt;
        break;
      case AtomInfo::Kind::Cmp:
        S->Breakpoints.push_back(A->V);
        break;
      default:
        break;
      }
      N.Kind = TermKind::Attr;
      N.Slot = static_cast<uint32_t>(S - Slots.data());
      N.Bit = static_cast<uint32_t>(S->Atoms.size());
      S->Atoms.push_back(T);
      break;
    }
    }
    Nodes.push_back(N);
    NodeOf.emplace(T, static_cast<uint32_t>(Nodes.size() - 1));
    return static_cast<uint32_t>(Nodes.size() - 1);
  }

  /// The slot of attribute \p Attr; null when the index was already seen
  /// with another sort (one evaluation tuple cannot hold both).
  Slot *slotFor(unsigned Attr, Sort S) {
    for (Slot &Existing : Slots)
      if (Existing.Attr == Attr)
        return Existing.S == S ? &Existing : nullptr;
    Slots.push_back({Attr, S, {}, {}, 1, {}, {}});
    return &Slots.back();
  }

  /// Fills \p S.Vectors; false past a limit.
  bool tabulate(Slot &S) {
    std::vector<Value> Reps;
    switch (S.S) {
    case Sort::Bool:
      Reps = {Value::boolean(false), Value::boolean(true)};
      break;
    case Sort::String: {
      // Every constant, and one string longer than all of them.
      std::string Fresh;
      for (const std::string &C : S.Strings) {
        Reps.push_back(Value::string(C));
        if (C.size() >= Fresh.size())
          Fresh = C + "#";
      }
      Reps.push_back(Value::string(Fresh));
      break;
    }
    case Sort::Real: {
      // Every breakpoint, the midpoint of each gap, one beyond each end.
      std::vector<Rational> &B = S.Breakpoints;
      assert(!B.empty() && "every Real atom is a comparison");
      std::sort(B.begin(), B.end());
      B.erase(std::unique(B.begin(), B.end()), B.end());
      Reps.push_back(Value::real(B.front() - Rational(1)));
      for (size_t I = 0; I < B.size(); ++I) {
        if (I > 0)
          Reps.push_back(Value::real((B[I - 1] + B[I]) / Rational(2)));
        Reps.push_back(Value::real(B[I]));
      }
      Reps.push_back(Value::real(B.back() + Rational(1)));
      break;
    }
    case Sort::Int:
      if (!intRepresentatives(S, Reps))
        return false;
      break;
    }

    std::vector<Value> Tuple(S.Attr + 1);
    for (const Value &V : Reps) {
      Tuple[S.Attr] = V;
      uint64_t Vector = 0;
      for (size_t K = 0; K < S.Atoms.size(); ++K)
        if (evalPredicate(S.Atoms[K], Tuple))
          Vector |= uint64_t(1) << K;
      S.Vectors.push_back(Vector);
    }
    std::sort(S.Vectors.begin(), S.Vectors.end());
    S.Vectors.erase(std::unique(S.Vectors.begin(), S.Vectors.end()),
                    S.Vectors.end());
    return true;
  }

  /// Around each breakpoint v the integers floor(v)-1 .. floor(v)+2, where
  /// every comparison atom changes truth; then Period consecutive integers
  /// (fewer if the gap is narrower) in each gap and beyond both ends,
  /// where only the periodic congruences vary.
  bool intRepresentatives(const Slot &S, std::vector<Value> &Reps) {
    std::vector<int64_t> Points;
    for (const Rational &V : S.Breakpoints) {
      int64_t Floor = floorOf(V);
      if (Floor < -MaxRegionMagnitude || Floor > MaxRegionMagnitude)
        return false;
      for (int64_t D = -1; D <= 2; ++D)
        Points.push_back(Floor + D);
    }
    std::sort(Points.begin(), Points.end());
    Points.erase(std::unique(Points.begin(), Points.end()), Points.end());

    std::vector<int64_t> Ints = Points;
    auto Run = [&](int64_t From, int64_t To) {
      for (int64_t X = From; X <= To && X - From < S.Period; ++X)
        Ints.push_back(X);
    };
    if (Points.empty()) {
      Run(0, S.Period - 1);
    } else {
      Run(Points.front() - S.Period, Points.front() - 1);
      for (size_t I = 1; I < Points.size(); ++I)
        Run(Points[I - 1] + 1, Points[I] - 1);
      Run(Points.back() + 1, Points.back() + S.Period);
    }

    double XMax = 0;
    for (int64_t X : Ints)
      XMax = std::max(XMax, std::fabs(static_cast<double>(X)));
    for (TermRef Atom : S.Atoms)
      if (magnitudeBound(Atom, XMax) >= static_cast<double>(MaxRegionMagnitude))
        return false;
    for (int64_t X : Ints)
      Reps.push_back(Value::integer(X));
    return true;
  }

  /// Tries every combination of per-slot vectors on the skeleton.
  SimpleResult search(size_t Combinations) {
    std::vector<size_t> Choice(Slots.size(), 0);
    std::vector<char> Truth(Nodes.size());
    for (size_t C = 0; C < Combinations; ++C) {
      for (size_t I = 0; I < Nodes.size(); ++I) {
        const Node &N = Nodes[I];
        const uint32_t *Ops = Args.data() + N.First;
        auto OpTrue = [&](uint32_t Op) { return Truth[Op] != 0; };
        switch (N.Kind) {
        case TermKind::ConstValue:
          Truth[I] = N.Fixed;
          break;
        case TermKind::Attr:
          Truth[I] = (Slots[N.Slot].Vectors[Choice[N.Slot]] >> N.Bit) & 1;
          break;
        case TermKind::Not:
          Truth[I] = !Truth[Ops[0]];
          break;
        case TermKind::And:
          Truth[I] = std::all_of(Ops, Ops + N.Count, OpTrue);
          break;
        default: // Or
          Truth[I] = std::any_of(Ops, Ops + N.Count, OpTrue);
          break;
        }
      }
      if (Truth.back())
        return SimpleResult::Sat;
      for (size_t S = 0; S < Slots.size(); ++S) {
        if (++Choice[S] < Slots[S].Vectors.size())
          break;
        Choice[S] = 0;
      }
    }
    return SimpleResult::Unsat;
  }
};

/// The fallback when the DNF would exceed MaxCubes: decides the
/// conjunction of \p Roots by attribute regions.
SimpleResult decideByRegions(std::span<const TermRef> Roots) {
  try {
    return RegionDecider().decide(Roots);
  } catch (const ArithmeticError &) {
    return SimpleResult::Unknown; // A rational representative overflowed.
  }
}

} // namespace

SimpleResult fast::simpleCheckSat(TermRef Pred) {
  assert(Pred->sort() == Sort::Bool && "satisfiability of non-boolean term");
  std::vector<Cube> Cubes;
  if (!toDnf(Pred, /*Positive=*/true, Cubes))
    return decideByRegions(std::span<const TermRef>(&Pred, 1));
  return decideDnf(Cubes);
}

SimpleResult fast::simpleCheckSat(std::span<const TermRef> Conjuncts) {
  // Cube-product the conjuncts' DNFs, exactly as toDnf does for an And
  // term, but over the span directly.
  std::vector<Cube> Acc = {{}};
  for (TermRef T : Conjuncts) {
    assert(T->sort() == Sort::Bool && "satisfiability of non-boolean term");
    std::vector<Cube> OpCubes;
    if (!toDnf(T, /*Positive=*/true, OpCubes))
      return decideByRegions(Conjuncts);
    if (OpCubes.empty())
      return SimpleResult::Unsat; // This conjunct alone has no models.
    if (Acc.size() * OpCubes.size() > MaxCubes)
      return decideByRegions(Conjuncts);
    std::vector<Cube> Next;
    Next.reserve(Acc.size() * OpCubes.size());
    for (const Cube &A : Acc)
      for (const Cube &B : OpCubes) {
        Cube Joined = A;
        Joined.insert(Joined.end(), B.begin(), B.end());
        Next.push_back(std::move(Joined));
      }
    Acc = std::move(Next);
  }
  return decideDnf(Acc);
}
