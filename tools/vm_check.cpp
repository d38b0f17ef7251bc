//===- tools/vm_check.cpp - VM program listing validator ------------------===//
//
// Parses the listing emitted by `fastc --emit=vm` (VmProgram::disassemble)
// and validates every program in it:
//
//   - the entry table is exhaustive: every (state, ctor) pair dispatches
//     somewhere (a DAG, a leaf, or an explicit fail);
//   - decision-DAG references are acyclic by construction order (a node
//     only branches to strictly lower-indexed nodes) and in bounds;
//   - every referenced code chunk passes an abstract stack simulation:
//     jump targets stay in bounds, values are live when consumed (no
//     stack underflow on any path), join points agree on stack depths,
//     guard chunks terminate in end_expr with exactly one value, body
//     chunks terminate in return with exactly one node;
//   - make_node ranks match the constructor table, eval_child states and
//     push_const/push_attr/la-set indices are in bounds;
//   - chain tables name in-range states of a one-attribute program on a
//     unary constructor, cover bytes 0-255 exactly once with known entry
//     kinds, and their prefixes use in-range constants of sort String.
//
// Non-program lines (assertion results, `vm ineligible` notes) are
// skipped, so the raw fastc output can be piped in unfiltered.
//
// Usage: vm_check [--expect NAME]... <listing-file>
//   --expect NAME   fail unless an eligible program NAME was found (used
//                   by the vm.smoke test to pin the sanitizer's
//                   eligibility).
//
//===----------------------------------------------------------------------===//

#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

namespace {

struct Instr {
  std::string Op;
  std::vector<long> Args;
};

struct Cand {
  long Rule = 0;
  long Rank = 0;
  long Body = 0;
  /// Lookahead set id per child; -1 = free, -2 = "la none" (no block).
  std::vector<long> LaSets;
  bool HasLa = false;
};

struct LaRule {
  long Guard = 0;
  std::vector<long> Sets;
};

/// A chain or la-chain table: its (state, ctor) and byte runs as
/// (from, to, kind).
struct ChainTable {
  unsigned Line = 0;
  long Index = 0, State = 0, Ctor = 0;
  std::vector<std::tuple<long, long, std::string>> Runs;
};

struct Program {
  std::string Name;
  unsigned Line = 0; // of the "vm program" header
  long Attrs = 0;
  long Ctors = 0;
  std::vector<long> CtorRank;
  long States = 0, Start = 0, LaStates = 0;
  long NDag = 0, NLeaves = 0, NCands = 0, NCode = 0, NConsts = 0,
       NLaSets = 0, NLaRules = 0;
  std::map<std::pair<long, long>, std::string> Entry;
  /// DagRef as parsed: ("fail",0) | ("dag",i) | ("leaf",i).
  struct Ref {
    std::string Kind;
    long Index = 0;
  };
  struct Dag {
    long Expr = 0;
    Ref IfTrue, IfFalse;
  };
  std::vector<Dag> Dags;
  std::vector<std::vector<Cand>> Leaves;
  std::vector<std::vector<long>> LaSets;
  std::map<std::pair<long, long>, std::vector<LaRule>> LaEntries;
  std::vector<Instr> Code;
  long ConstCount = 0;
  /// Per listed constant: whether it is a String (printed quoted).
  std::vector<bool> ConstIsString;
  long NChains = 0, NChainPrefixes = 0, NLaChains = 0;
  /// Per chain prefix: constant ids, -1 for the input label.
  std::vector<std::vector<long>> ChainPrefixes;
  std::vector<ChainTable> Chains, LaChains;
};

class Checker {
public:
  explicit Checker(const Program &P) : P(P) {}

  void error(const std::string &Msg) {
    std::cerr << "vm_check: program \"" << P.Name << "\" (line " << P.Line
              << "): " << Msg << "\n";
    ++Errors;
  }

  unsigned run() {
    checkCounts();
    checkEntryTable();
    checkDag();
    checkLeaves();
    checkLookahead();
    checkChunks();
    checkChains();
    return Errors;
  }

private:
  void checkCounts() {
    if (static_cast<long>(P.Dags.size()) != P.NDag)
      error("header declares " + std::to_string(P.NDag) + " dag nodes, " +
            std::to_string(P.Dags.size()) + " listed");
    if (static_cast<long>(P.Leaves.size()) != P.NLeaves)
      error("header declares " + std::to_string(P.NLeaves) + " leaves, " +
            std::to_string(P.Leaves.size()) + " listed");
    long Cands = 0;
    for (const auto &L : P.Leaves)
      Cands += static_cast<long>(L.size());
    if (Cands != P.NCands)
      error("header declares " + std::to_string(P.NCands) +
            " candidates, " + std::to_string(Cands) + " listed");
    if (static_cast<long>(P.Code.size()) != P.NCode)
      error("header declares " + std::to_string(P.NCode) +
            " instructions, " + std::to_string(P.Code.size()) + " listed");
    if (P.ConstCount != P.NConsts)
      error("header declares " + std::to_string(P.NConsts) + " consts, " +
            std::to_string(P.ConstCount) + " listed");
    if (static_cast<long>(P.LaSets.size()) != P.NLaSets)
      error("header declares " + std::to_string(P.NLaSets) + " la-sets, " +
            std::to_string(P.LaSets.size()) + " listed");
    long LaRules = 0;
    for (const auto &[Key, Rules] : P.LaEntries)
      LaRules += static_cast<long>(Rules.size());
    if (LaRules != P.NLaRules)
      error("header declares " + std::to_string(P.NLaRules) +
            " la-rules, " + std::to_string(LaRules) + " listed");
    if (static_cast<long>(P.CtorRank.size()) != P.Ctors)
      error("constructor table incomplete");
    if (P.Start < 0 || P.Start >= P.States)
      error("start state out of range");
  }

  bool checkRef(const Program::Ref &R, long FromDag, const char *Where) {
    if (R.Kind == "fail")
      return true;
    if (R.Kind == "dag") {
      if (R.Index < 0 || R.Index >= static_cast<long>(P.Dags.size())) {
        error(std::string(Where) + ": dag reference " +
              std::to_string(R.Index) + " out of bounds");
        return false;
      }
      // Acyclicity invariant: children are emitted before their parent.
      if (FromDag >= 0 && R.Index >= FromDag) {
        error(std::string(Where) + ": dag " + std::to_string(FromDag) +
              " branches forward/self to dag " + std::to_string(R.Index) +
              " (cycle risk)");
        return false;
      }
      return true;
    }
    if (R.Kind == "leaf") {
      if (R.Index < 0 || R.Index >= static_cast<long>(P.Leaves.size())) {
        error(std::string(Where) + ": leaf reference " +
              std::to_string(R.Index) + " out of bounds");
        return false;
      }
      return true;
    }
    error(std::string(Where) + ": unparsable reference");
    return false;
  }

  void checkEntryTable() {
    for (long S = 0; S < P.States; ++S)
      for (long C = 0; C < P.Ctors; ++C)
        if (!P.Entry.count({S, C}))
          error("entry table not exhaustive: missing (state " +
                std::to_string(S) + ", ctor " + std::to_string(C) + ")");
    for (const auto &[Key, Text] : P.Entry) {
      if (Key.first < 0 || Key.first >= P.States || Key.second < 0 ||
          Key.second >= P.Ctors) {
        error("entry (" + std::to_string(Key.first) + ", " +
              std::to_string(Key.second) + ") outside the state/ctor grid");
        continue;
      }
      checkRef(parseRef(Text), -1, "entry table");
    }
  }

  void checkDag() {
    for (size_t I = 0; I < P.Dags.size(); ++I) {
      const Program::Dag &D = P.Dags[I];
      std::string Where = "dag " + std::to_string(I);
      checkRef(D.IfTrue, static_cast<long>(I), Where.c_str());
      checkRef(D.IfFalse, static_cast<long>(I), Where.c_str());
    }
  }

  void checkLaSetId(long Id, const char *Where) {
    if (Id == -1)
      return; // free child
    if (Id < 0 || Id >= static_cast<long>(P.LaSets.size()))
      error(std::string(Where) + ": la-set id " + std::to_string(Id) +
            " out of bounds");
  }

  void checkLeaves() {
    for (size_t L = 0; L < P.Leaves.size(); ++L) {
      if (P.Leaves[L].empty())
        error("leaf " + std::to_string(L) + " has no candidates");
      for (const Cand &C : P.Leaves[L]) {
        std::string Where = "leaf " + std::to_string(L);
        if (C.HasLa && static_cast<long>(C.LaSets.size()) != C.Rank)
          error(Where + ": lookahead block length " +
                std::to_string(C.LaSets.size()) + " != rank " +
                std::to_string(C.Rank));
        for (long Id : C.LaSets)
          checkLaSetId(Id, Where.c_str());
      }
    }
    for (const auto &Set : P.LaSets)
      for (long Q : Set)
        if (Q < 0 || Q >= P.LaStates)
          error("la-set contains state " + std::to_string(Q) +
                " outside the lookahead automaton");
  }

  void checkLookahead() {
    for (const auto &[Key, Rules] : P.LaEntries) {
      auto [State, Ctor] = Key;
      std::string Where =
          "la-entry " + std::to_string(State) + "/" + std::to_string(Ctor);
      if (State < 0 || State >= P.LaStates)
        error(Where + ": lookahead state out of range");
      if (Ctor < 0 || Ctor >= P.Ctors) {
        error(Where + ": ctor out of range");
        continue;
      }
      for (const LaRule &R : Rules) {
        if (static_cast<long>(R.Sets.size()) != P.CtorRank[Ctor])
          error(Where + ": la-rule sets length " +
                std::to_string(R.Sets.size()) + " != ctor rank " +
                std::to_string(P.CtorRank[Ctor]));
        for (long Id : R.Sets)
          checkLaSetId(Id, Where.c_str());
      }
    }
  }

  //===------------------------------------------------------------------===//
  // Abstract stack simulation of one code chunk.
  //===------------------------------------------------------------------===//

  void simulate(long Start, bool IsBody, const std::string &Where) {
    if (Start < 0 || Start >= static_cast<long>(P.Code.size())) {
      error(Where + ": chunk start @" + std::to_string(Start) +
            " out of bounds");
      return;
    }
    long MaxRank = 0;
    for (long R : P.CtorRank)
      MaxRank = std::max(MaxRank, R);
    // pc -> (val depth, node depth) at entry; -1 = unvisited.
    std::map<long, std::pair<long, long>> Seen;
    std::vector<std::tuple<long, long, long>> Work{{Start, 0, 0}};
    bool Terminated = false;
    while (!Work.empty()) {
      auto [Pc, Val, Node] = Work.back();
      Work.pop_back();
      if (Pc < 0 || Pc >= static_cast<long>(P.Code.size())) {
        error(Where + ": control flow leaves the code section at @" +
              std::to_string(Pc));
        continue;
      }
      auto [It, New] = Seen.try_emplace(Pc, std::make_pair(Val, Node));
      if (!New) {
        if (It->second != std::make_pair(Val, Node))
          error(Where + ": join point @" + std::to_string(Pc) +
                " reached with conflicting stack depths");
        continue;
      }
      const Instr &I = P.Code[Pc];
      auto Underflow = [&](long NeedVal, long NeedNode) {
        if (Val < NeedVal || Node < NeedNode) {
          error(Where + ": stack underflow at @" + std::to_string(Pc) +
                " (" + I.Op + ")");
          return true;
        }
        return false;
      };
      auto Arg = [&](size_t K) { return K < I.Args.size() ? I.Args[K] : -1; };
      if (I.Op == "push_const") {
        if (Arg(0) < 0 || Arg(0) >= P.NConsts)
          error(Where + ": push_const index out of bounds at @" +
                std::to_string(Pc));
        Work.emplace_back(Pc + 1, Val + 1, Node);
      } else if (I.Op == "push_attr") {
        if (Arg(0) < 0 || Arg(0) >= P.Attrs)
          error(Where + ": push_attr index out of bounds at @" +
                std::to_string(Pc));
        Work.emplace_back(Pc + 1, Val + 1, Node);
      } else if (I.Op == "push_true" || I.Op == "push_false") {
        Work.emplace_back(Pc + 1, Val + 1, Node);
      } else if (I.Op == "not" || I.Op == "neg_int" || I.Op == "neg_real") {
        if (!Underflow(1, 0))
          Work.emplace_back(Pc + 1, Val, Node);
      } else if (I.Op == "jump") {
        Work.emplace_back(Arg(0), Val, Node);
      } else if (I.Op == "jump_if_false" || I.Op == "jump_if_true") {
        if (!Underflow(1, 0)) {
          Work.emplace_back(Arg(0), Val - 1, Node);
          Work.emplace_back(Pc + 1, Val - 1, Node);
        }
      } else if (I.Op == "eq" || I.Op == "lt" || I.Op == "le" ||
                 I.Op == "mod" || I.Op == "div") {
        if (!Underflow(2, 0))
          Work.emplace_back(Pc + 1, Val - 1, Node);
      } else if (I.Op == "add_int" || I.Op == "add_real" ||
                 I.Op == "mul_int" || I.Op == "mul_real") {
        long N = Arg(0);
        if (N < 1)
          error(Where + ": variadic arithmetic with no operands at @" +
                std::to_string(Pc));
        else if (!Underflow(N, 0))
          Work.emplace_back(Pc + 1, Val - N + 1, Node);
      } else if (I.Op == "end_expr") {
        if (IsBody)
          error(Where + ": body chunk reaches end_expr at @" +
                std::to_string(Pc));
        else if (Val != 1 || Node != 0)
          error(Where + ": end_expr at @" + std::to_string(Pc) +
                " with stack (" + std::to_string(Val) + ", " +
                std::to_string(Node) + "), expected (1, 0)");
        Terminated = true;
      } else if (I.Op == "eval_child") {
        if (Arg(0) < 0 || Arg(0) >= P.States)
          error(Where + ": eval_child state out of bounds at @" +
                std::to_string(Pc));
        if (Arg(1) < 0 || Arg(1) >= MaxRank)
          error(Where + ": eval_child child index " +
                std::to_string(Arg(1)) + " beyond every ctor rank at @" +
                std::to_string(Pc));
        Work.emplace_back(Pc + 1, Val, Node + 1);
      } else if (I.Op == "make_node") {
        long Ctor = Arg(0), Rank = Arg(1);
        if (Ctor < 0 || Ctor >= P.Ctors) {
          error(Where + ": make_node ctor out of bounds at @" +
                std::to_string(Pc));
        } else if (Rank != P.CtorRank[Ctor]) {
          error(Where + ": make_node rank " + std::to_string(Rank) +
                " != declared rank " + std::to_string(P.CtorRank[Ctor]) +
                " of ctor " + std::to_string(Ctor) + " at @" +
                std::to_string(Pc));
        } else if (!Underflow(P.Attrs, Rank)) {
          Work.emplace_back(Pc + 1, Val - P.Attrs, Node - Rank + 1);
        }
      } else if (I.Op == "return") {
        if (!IsBody)
          error(Where + ": guard chunk reaches return at @" +
                std::to_string(Pc));
        else if (Val != 0 || Node != 1)
          error(Where + ": return at @" + std::to_string(Pc) +
                " with stack (" + std::to_string(Val) + ", " +
                std::to_string(Node) + "), expected (0, 1)");
        Terminated = true;
      } else {
        error(Where + ": unknown opcode '" + I.Op + "' at @" +
              std::to_string(Pc));
      }
    }
    if (!Terminated)
      error(Where + ": chunk never reaches its terminator");
  }

  void checkChunks() {
    for (size_t I = 0; I < P.Dags.size(); ++I)
      simulate(P.Dags[I].Expr, /*IsBody=*/false,
               "dag " + std::to_string(I) + " guard");
    for (size_t L = 0; L < P.Leaves.size(); ++L)
      for (const Cand &C : P.Leaves[L])
        simulate(C.Body, /*IsBody=*/true,
                 "leaf " + std::to_string(L) + " rule " +
                     std::to_string(C.Rule) + " body");
    for (const auto &[Key, Rules] : P.LaEntries)
      for (const LaRule &R : Rules)
        simulate(R.Guard, /*IsBody=*/false,
                 "la-entry " + std::to_string(Key.first) + "/" +
                     std::to_string(Key.second) + " guard");
  }

  //===------------------------------------------------------------------===//
  // Chain tables.
  //===------------------------------------------------------------------===//

  void checkChains() {
    if (static_cast<long>(P.Chains.size()) != P.NChains ||
        static_cast<long>(P.ChainPrefixes.size()) != P.NChainPrefixes ||
        static_cast<long>(P.LaChains.size()) != P.NLaChains)
      error("header chain counts differ from the chain tables listed");
    for (size_t I = 0; I < P.ChainPrefixes.size(); ++I)
      for (long C : P.ChainPrefixes[I]) {
        if (C == -1)
          continue;
        std::string Where = "chain-prefix " + std::to_string(I);
        if (C < 0 || C >= static_cast<long>(P.ConstIsString.size()))
          error(Where + ": constant " + std::to_string(C) + " out of bounds");
        else if (!P.ConstIsString[C])
          error(Where + ": constant " + std::to_string(C) +
                " is not a String");
      }
    checkChainTables(P.Chains, P.States, "chain", [&](const std::string &K) {
      if (K == "fail" || K == "id")
        return true;
      if (K.size() < 2 || K[0] != 'p')
        return false;
      long Prefix = std::strtol(K.c_str() + 1, nullptr, 10);
      return Prefix >= 0 && Prefix < static_cast<long>(P.ChainPrefixes.size());
    });
    checkChainTables(P.LaChains, P.LaStates, "la-chain",
                     [](const std::string &K) {
                       return K == "accept" || K == "reject";
                     });
  }

  template <typename KindOk>
  void checkChainTables(const std::vector<ChainTable> &Tables, long NumStates,
                        const char *What, KindOk Ok) {
    std::set<std::pair<long, long>> Seen;
    for (const ChainTable &T : Tables) {
      std::string Where = std::string(What) + " " + std::to_string(T.Index) +
                          " (line " + std::to_string(T.Line) + ")";
      if (P.Attrs != 1)
        error(Where + ": chain tables need exactly one attribute");
      if (T.State < 0 || T.State >= NumStates)
        error(Where + ": state " + std::to_string(T.State) + " out of range");
      if (T.Ctor < 0 || T.Ctor >= P.Ctors)
        error(Where + ": ctor " + std::to_string(T.Ctor) + " out of range");
      else if (P.CtorRank[T.Ctor] != 1)
        error(Where + ": ctor " + std::to_string(T.Ctor) + " is not unary");
      if (!Seen.emplace(T.State, T.Ctor).second)
        error(Where + ": second table for the same state and ctor");
      long Next = 0;
      for (const auto &[From, To, Kind] : T.Runs) {
        if (From != Next || To < From || To > 255)
          break;
        if (!Ok(Kind))
          error(Where + ": unknown entry '" + Kind + "'");
        Next = To + 1;
      }
      if (Next != 256)
        error(Where + ": byte runs do not cover 0-255 in order from " +
              std::to_string(Next));
    }
  }

  static Program::Ref parseRef(const std::string &Text) {
    Program::Ref R;
    std::istringstream In(Text);
    In >> R.Kind;
    if (R.Kind != "fail")
      In >> R.Index;
    return R;
  }

  const Program &P;
  unsigned Errors = 0;
};

/// Reads the quoted string starting at the first '"' of \p S.
std::optional<std::string> quoted(const std::string &S) {
  size_t First = S.find('"');
  if (First == std::string::npos)
    return std::nullopt;
  size_t Last = S.find('"', First + 1);
  if (Last == std::string::npos)
    return std::nullopt;
  return S.substr(First + 1, Last - First - 1);
}

/// Parses "key1 v1 key2 v2 ..." tails like the program header.
std::map<std::string, long> keyedNumbers(std::istringstream &In) {
  std::map<std::string, long> Out;
  std::string Key;
  long Val;
  while (In >> Key >> Val)
    Out[Key] = Val;
  return Out;
}

/// Parses "I: state S ctor C bytes FROM-TO:KIND ..." (FROM alone when the
/// run is one byte).
ChainTable chainTable(std::istringstream &In, unsigned Line) {
  ChainTable T;
  T.Line = Line;
  std::string Key;
  In >> T.Index >> Key;               // "I" ":"
  In >> Key >> T.State >> Key >> T.Ctor >> Key; // state S ctor C bytes
  std::string Run;
  while (In >> Run) {
    size_t Colon = Run.find(':');
    if (Colon == std::string::npos) {
      T.Runs.emplace_back(-1, -1, Run);
      continue;
    }
    std::string Range = Run.substr(0, Colon);
    size_t Dash = Range.find('-');
    long From = std::strtol(Range.c_str(), nullptr, 10);
    long To = Dash == std::string::npos
                  ? From
                  : std::strtol(Range.c_str() + Dash + 1, nullptr, 10);
    T.Runs.emplace_back(From, To, Run.substr(Colon + 1));
  }
  return T;
}

/// Parses the "[ - 0 1 ]" / "[ ]" set-list syntax; returns ids with -1
/// for the free marker.
std::vector<long> setList(std::istringstream &In) {
  std::vector<long> Out;
  std::string Tok;
  In >> Tok; // "["
  while (In >> Tok && Tok != "]")
    Out.push_back(Tok == "-" ? -1 : std::strtol(Tok.c_str(), nullptr, 10));
  return Out;
}

} // namespace

int main(int Argc, char **Argv) {
  std::vector<std::string> Expect;
  const char *Path = nullptr;
  for (int I = 1; I < Argc; ++I) {
    if (std::string(Argv[I]) == "--expect" && I + 1 < Argc)
      Expect.push_back(Argv[++I]);
    else if (!Path)
      Path = Argv[I];
    else {
      std::cerr << "usage: vm_check [--expect NAME]... <listing-file>\n";
      return 2;
    }
  }
  if (!Path) {
    std::cerr << "usage: vm_check [--expect NAME]... <listing-file>\n";
    return 2;
  }
  std::ifstream File(Path);
  if (!File) {
    std::cerr << "vm_check: cannot open '" << Path << "'\n";
    return 2;
  }

  unsigned Errors = 0;
  unsigned ProgramsChecked = 0;
  unsigned ChunksChecked = 0;
  unsigned ChainsChecked = 0;
  std::vector<std::string> Found;
  std::vector<std::string> Ineligible;

  std::optional<Program> Cur;
  std::vector<Cand> *OpenLeaf = nullptr;
  std::vector<LaRule> *OpenLaEntry = nullptr;
  bool InCode = false;
  std::string Line;
  unsigned LineNo = 0;

  auto Finish = [&]() {
    if (!Cur)
      return;
    Checker C(*Cur);
    Errors += C.run();
    ++ProgramsChecked;
    ChunksChecked += static_cast<unsigned>(Cur->Dags.size()) +
                     static_cast<unsigned>(Cur->NCands) +
                     static_cast<unsigned>(Cur->NLaRules);
    ChainsChecked += static_cast<unsigned>(Cur->Chains.size() +
                                           Cur->LaChains.size());
    Found.push_back(Cur->Name);
    Cur.reset();
    OpenLeaf = nullptr;
    OpenLaEntry = nullptr;
    InCode = false;
  };

  while (std::getline(File, Line)) {
    ++LineNo;
    std::istringstream In(Line);
    std::string Tok;
    In >> Tok;
    if (Tok == "vm") {
      std::string Sub;
      In >> Sub;
      if (Sub == "program") {
        Finish();
        Cur = Program();
        Cur->Line = LineNo;
        Cur->Name = quoted(Line).value_or("?");
      } else if (Sub == "ineligible") {
        Ineligible.push_back(quoted(Line).value_or("?"));
      }
      continue;
    }
    if (!Cur)
      continue; // fastc noise between programs
    if (Tok == "end") {
      Finish();
    } else if (Tok == "signature") {
      std::string Rest;
      std::getline(In, Rest);
      std::istringstream Tail(Rest.substr(Rest.rfind('"') + 1));
      auto KV = keyedNumbers(Tail);
      Cur->Attrs = KV["attrs"];
      Cur->Ctors = KV["ctors"];
    } else if (Tok == "ctor") {
      long Idx;
      In >> Idx;
      std::string Rest;
      std::getline(In, Rest);
      std::istringstream Tail(Rest.substr(Rest.rfind('"') + 1));
      auto KV = keyedNumbers(Tail);
      if (Idx != static_cast<long>(Cur->CtorRank.size())) {
        std::cerr << "vm_check: line " << LineNo
                  << ": ctor table out of order\n";
        ++Errors;
      }
      Cur->CtorRank.push_back(KV["rank"]);
    } else if (Tok == "states") {
      long States;
      In >> States;
      Cur->States = States;
      auto KV = keyedNumbers(In);
      Cur->Start = KV["start"];
      Cur->LaStates = KV["la-states"];
      Cur->NDag = KV["dag"];
      Cur->NLeaves = KV["leaves"];
      Cur->NCands = KV["cands"];
      Cur->NCode = KV["code"];
      Cur->NConsts = KV["consts"];
      Cur->NLaSets = KV["la-sets"];
      Cur->NLaRules = KV["la-rules"];
      Cur->NChains = KV["chains"];
      Cur->NChainPrefixes = KV["chain-prefixes"];
      Cur->NLaChains = KV["la-chains"];
    } else if (Tok == "const") {
      ++Cur->ConstCount;
      long Idx;
      std::string Value;
      In >> Idx >> Value;
      Cur->ConstIsString.push_back(!Value.empty() && Value[0] == '"');
    } else if (Tok == "chain-prefix") {
      std::string Key;
      In >> Key; // "I:"
      std::vector<long> Labels;
      while (In >> Key) {
        long C = -1;
        if (Key == "const")
          In >> C;
        else if (Key != "label")
          C = -2; // Neither a constant nor the input label.
        Labels.push_back(C);
      }
      Cur->ChainPrefixes.push_back(std::move(Labels));
    } else if (Tok == "chain") {
      Cur->Chains.push_back(chainTable(In, LineNo));
    } else if (Tok == "la-chain") {
      Cur->LaChains.push_back(chainTable(In, LineNo));
    } else if (Tok == "la-set") {
      long Idx;
      In >> Idx;
      std::string Brace;
      In >> Brace; // "{"
      std::vector<long> States;
      while (In >> Brace && Brace != "}")
        States.push_back(std::strtol(Brace.c_str(), nullptr, 10));
      Cur->LaSets.push_back(std::move(States));
      (void)Idx;
    } else if (Tok == "entry") {
      long S, C;
      In >> S >> C;
      std::string Rest;
      std::getline(In, Rest);
      if (!Cur->Entry.emplace(std::make_pair(S, C), Rest).second) {
        std::cerr << "vm_check: line " << LineNo << ": duplicate entry ("
                  << S << ", " << C << ")\n";
        ++Errors;
      }
    } else if (Tok == "dag") {
      // dag I: expr @OFF ? REF : REF
      Program::Dag D;
      std::string Skip, Off, Ref1, Ref2;
      In >> Skip;       // "I:"
      In >> Skip >> Off; // "expr" "@OFF"
      D.Expr = std::strtol(Off.c_str() + 1, nullptr, 10);
      std::string Rest;
      std::getline(In, Rest);
      size_t Q = Rest.find('?');
      size_t Colon = Rest.rfind(':');
      if (Q == std::string::npos || Colon == std::string::npos ||
          Colon <= Q) {
        std::cerr << "vm_check: line " << LineNo
                  << ": unparsable dag node\n";
        ++Errors;
      } else {
        auto Parse = [](std::string T) {
          Program::Ref R;
          std::istringstream S2(T);
          S2 >> R.Kind;
          if (R.Kind != "fail")
            S2 >> R.Index;
          return R;
        };
        D.IfTrue = Parse(Rest.substr(Q + 1, Colon - Q - 1));
        D.IfFalse = Parse(Rest.substr(Colon + 1));
      }
      Cur->Dags.push_back(D);
    } else if (Tok == "leaf") {
      Cur->Leaves.emplace_back();
      OpenLeaf = &Cur->Leaves.back();
      OpenLaEntry = nullptr;
    } else if (Tok == "cand:") {
      if (!OpenLeaf) {
        std::cerr << "vm_check: line " << LineNo
                  << ": candidate outside a leaf\n";
        ++Errors;
        continue;
      }
      Cand C;
      std::string Key, Off;
      In >> Key >> C.Rule;  // rule R
      In >> Key >> C.Rank;  // rank K
      In >> Key >> Off;     // body @OFF
      C.Body = std::strtol(Off.c_str() + 1, nullptr, 10);
      In >> Key;            // "la"
      std::string LaTok;
      In >> LaTok;
      if (LaTok == "none") {
        C.HasLa = false;
      } else { // LaTok == "["
        C.HasLa = true;
        while (In >> LaTok && LaTok != "]")
          C.LaSets.push_back(
              LaTok == "-" ? -1 : std::strtol(LaTok.c_str(), nullptr, 10));
      }
      OpenLeaf->push_back(std::move(C));
    } else if (Tok == "la-entry") {
      long S, C;
      In >> S >> C;
      OpenLaEntry = &Cur->LaEntries[{S, C}];
      OpenLeaf = nullptr;
    } else if (Tok == "la-rule:") {
      if (!OpenLaEntry) {
        std::cerr << "vm_check: line " << LineNo
                  << ": la-rule outside a la-entry\n";
        ++Errors;
        continue;
      }
      LaRule R;
      std::string Key, Off;
      In >> Key >> Off; // guard @OFF
      R.Guard = std::strtol(Off.c_str() + 1, nullptr, 10);
      In >> Key; // "sets"
      R.Sets = setList(In);
      OpenLaEntry->push_back(std::move(R));
    } else if (Tok == "code:") {
      InCode = true;
      OpenLeaf = nullptr;
      OpenLaEntry = nullptr;
    } else if (InCode && !Tok.empty() && Tok.back() == ':') {
      Instr I;
      In >> I.Op;
      long A;
      while (In >> A)
        I.Args.push_back(A);
      Cur->Code.push_back(std::move(I));
    }
  }
  if (Cur) {
    std::cerr << "vm_check: unterminated program \"" << Cur->Name << "\"\n";
    ++Errors;
    Finish();
  }

  for (const std::string &Name : Expect) {
    bool Ok = false;
    for (const std::string &F : Found)
      Ok |= F == Name;
    if (!Ok) {
      std::cerr << "vm_check: expected an eligible program \"" << Name
                << "\"";
      for (const std::string &I : Ineligible)
        if (I == Name)
          std::cerr << " (listed as ineligible)";
      std::cerr << "\n";
      ++Errors;
    }
  }

  if (ProgramsChecked == 0 && Errors == 0) {
    std::cerr << "vm_check: no vm programs found in '" << Path << "'\n";
    return 1;
  }
  if (Errors != 0) {
    std::cerr << "vm_check: " << Errors << " error(s)\n";
    return 1;
  }
  std::cout << "vm_check: " << ProgramsChecked << " program(s) OK, "
            << ChunksChecked
            << " code chunk(s) simulated (bounds, liveness, terminators), "
            << "entry tables exhaustive, decision DAGs acyclic, "
            << ChainsChecked << " chain table(s) in range\n";
  return 0;
}
