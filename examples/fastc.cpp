//===- examples/fastc.cpp - Command-line Fast interpreter -----------------===//
//
// Runs a .fast program: compiles the declarations, evaluates the defs, and
// reports every assertion with its witness when one fails.
//
// Usage:  fastc [--dump] [--emit=vm] [--stats] [--metrics=FILE]
//               [--max-states=N] [--trace=FILE] [--explain]
//               [--export NAME] [-j N] <program.fast>
//   --dump         also print every compiled language automaton and
//                  transformation (states, rules, guards).
//   --emit=vm      lower every transformation through the compiled data
//                  plane and print the VM program listing (entry table,
//                  guard decision DAGs, lookahead rules, bytecode) — or a
//                  `vm ineligible` line with the reason when a
//                  transformation stays on the structural interpreter.
//   --stats        after the program runs, print the session's metrics
//                  snapshot, one line per family under its --metrics
//                  name (per-construction engine counters, solver and VM
//                  counters, latency histograms as n/p50/p95/p99/max),
//                  followed by the slowest solver queries of the session;
//                  also when an exhausted budget or another error stops
//                  the run, but never beside --export's program.
//   --metrics=FILE write the session's unified metrics snapshot (engine,
//                  solver, VM, and program counters) as one versioned JSON
//                  document, whatever FILE's extension, once, on every
//                  exit after the program ran, --export included.
//                  FAST_METRICS in the environment is the flag-less
//                  equivalent.  The write goes to FILE.tmp and is renamed
//                  over FILE, so a reader never sees a partial document.
//   --max-states=N cap every construction's exploration at N distinct
//                  states (the engine's MaxStates budget); exceeding it
//                  stops the run with an error.
//   --trace=FILE   record a trace of the run: construction spans,
//                  exploration batches, minterm splits, and individual
//                  solver checks.  FILE ending in ".jsonl" streams one
//                  JSON event per line (flushed per event); any other
//                  extension writes a Chrome trace-event JSON array
//                  loadable in Perfetto / chrome://tracing.
//   --explain      record provenance and print an annotated derivation for
//                  every failing assertion's witness: the witness tree,
//                  the engine state that accepted each node, the attribute
//                  model the solver chose, and citations of the `lang` /
//                  `trans` rules (file:line:col) the fired rule descends
//                  from.  Also reports declared rules that never fired as
//                  dead-rule warnings.
//   --export NAME  print the named language/transformation as a
//                  standalone, recompilable Fast program.
//   -j N           evaluate assertions in parallel over N worker threads
//                  (0 = one per hardware thread).  Declarations still
//                  compile sequentially in program order, then the
//                  session is frozen and each assertion runs in a worker
//                  context.  Verdicts, diagnostics, witness text, every
//                  constructed automaton, and every non-timing counter
//                  are identical across -j values.
//
//===----------------------------------------------------------------------===//

#include "engine/MetricsBridge.h"
#include "fast/Explain.h"
#include "fast/Export.h"
#include "fast/Fast.h"
#include "transducers/Parallel.h"
#include "vm/Vm.h"

#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>

using namespace fast;

namespace {

/// --stats: the snapshot --metrics writes, then the slow-query log.
void printStats(Session &S) {
  obs::MetricsSnapshot Snap;
  engine::collectSessionMetrics(S.engine(), Snap);
  std::cout << Snap.text() << S.tracer().slowQueries().report();
}

} // namespace

int main(int Argc, char **Argv) {
  bool Dump = false;
  bool EmitVm = false;
  bool Stats = false;
  bool Explain = false;
  const char *TracePath = nullptr;
  const char *ExportName = nullptr;
  const char *MetricsPath = nullptr;
  long MaxStates = -1;
  const char *Path = nullptr;
  long Jobs = -1; // -1 = sequential (no -j); 0 = one per hardware thread.
  bool Bad = false;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--dump") == 0)
      Dump = true;
    else if (std::strcmp(Argv[I], "--emit=vm") == 0)
      EmitVm = true;
    else if (std::strcmp(Argv[I], "--stats") == 0)
      Stats = true;
    else if (std::strcmp(Argv[I], "--explain") == 0)
      Explain = true;
    else if (std::strncmp(Argv[I], "--trace=", 8) == 0)
      TracePath = Argv[I] + 8;
    else if (std::strncmp(Argv[I], "--metrics=", 10) == 0)
      MetricsPath = Argv[I] + 10;
    else if (std::strncmp(Argv[I], "--max-states=", 13) == 0) {
      char *End = nullptr;
      MaxStates = std::strtol(Argv[I] + 13, &End, 10);
      if (End == Argv[I] + 13 || *End != '\0' || MaxStates <= 0)
        Bad = true;
    }
    else if (std::strcmp(Argv[I], "--export") == 0 && I + 1 < Argc)
      ExportName = Argv[++I];
    else if (std::strcmp(Argv[I], "-j") == 0 && I + 1 < Argc) {
      char *End = nullptr;
      Jobs = std::strtol(Argv[I + 1], &End, 10);
      if (End == Argv[I + 1] || *End != '\0' || Jobs < 0)
        Bad = true;
      ++I;
    }
    else if (!Path)
      Path = Argv[I];
    else
      Bad = true;
  }
  if (!Path || Bad) {
    std::cerr << "usage: fastc [--dump] [--emit=vm] [--stats] "
                 "[--metrics=FILE] [--max-states=N] [--trace=FILE] "
                 "[--explain] [--export NAME] [-j N] <program.fast>\n";
    return 2;
  }
  std::ifstream File(Path);
  if (!File) {
    std::cerr << "fastc: cannot open '" << Path << "'\n";
    return 2;
  }
  std::stringstream Buffer;
  Buffer << File.rdbuf();

  Session S;
  if (TracePath && !S.tracer().openTrace(TracePath)) {
    std::cerr << "fastc: cannot open trace file '" << TracePath << "'\n";
    return 2;
  }
  if (Explain)
    S.provenance().setEnabled(true);
  if (!MetricsPath)
    if (const char *Env = std::getenv("FAST_METRICS"); Env && *Env)
      MetricsPath = Env;
  if (MaxStates > 0)
    S.engine().Limits.MaxStates = static_cast<size_t>(MaxStates);

  engine::ProgramStats &Program = S.stats().program();

  // The --metrics write, on every exit after the program ran.
  auto WriteMetrics = [&]() -> bool {
    if (!MetricsPath || engine::writeMetricsFile(S.engine(), MetricsPath))
      return true;
    std::cerr << "fastc: cannot open metrics file '" << MetricsPath << "'\n";
    return false;
  };

  FastProgramResult R;
  FastRunOptions RunOpts;
  if (Jobs >= 0)
    RunOpts.Threads = Jobs == 0 ? hardwareThreads() : static_cast<unsigned>(Jobs);
  try {
    R = runFastProgram(S, Buffer.str(), RunOpts);
  } catch (const std::exception &E) {
    // An escaping exception (e.g. an ExplorationError from an exhausted
    // budget) still gets --stats: the counters and the slow-query log say
    // what the run was doing when it stopped.
    if (TracePath)
      S.tracer().closeTrace();
    ++Program.Runs;
    WriteMetrics();
    std::cerr << "fastc: " << E.what() << "\n";
    if (Stats && !ExportName)
      printStats(S);
    return 1;
  }
  ++Program.Runs;
  if (TracePath)
    S.tracer().closeTrace();
  if (!R.DiagText.empty())
    std::cerr << R.DiagText;
  if (R.ErrorCount != 0) {
    WriteMetrics();
    return 1;
  }
  unsigned Failed = R.failedAssertions();
  Program.Assertions += R.Assertions.size();
  Program.AssertionsFailed += Failed;

  if (ExportName) {
    auto It = R.Values.find(ExportName);
    if (It == R.Values.end()) {
      std::cerr << "fastc: no language or transformation named '"
                << ExportName << "'\n";
      WriteMetrics();
      return 2;
    }
    if (It->second.K == FastValue::Kind::Lang)
      std::cout << exportLanguageProgram(ExportName, It->second.Lang);
    else if (It->second.K == FastValue::Kind::Trans)
      std::cout << exportSttrProgram(ExportName, *It->second.Trans);
    else
      std::cout << It->second.Tree->str() << "\n";
    return WriteMetrics() ? 0 : 2;
  }

  if (Dump) {
    for (const auto &[Name, V] : R.Values) {
      if (V.K == FastValue::Kind::Lang) {
        std::cout << "--- language " << Name << " (roots:";
        for (unsigned Root : V.Lang.roots())
          std::cout << ' ' << V.Lang.automaton().stateName(Root);
        std::cout << ") ---\n" << V.Lang.automaton().str();
      } else if (V.K == FastValue::Kind::Trans) {
        std::cout << "--- transformation " << Name << " ---\n"
                  << V.Trans->str();
        if (V.Trans->lookahead().numStates() != 0)
          std::cout << "lookahead " << V.Trans->lookahead().str();
      } else if (V.K == FastValue::Kind::Tree) {
        std::cout << "--- tree " << Name << " ---\n"
                  << V.Tree->str() << "\n";
      }
    }
  }

  if (EmitVm) {
    for (const auto &[Name, V] : R.Values) {
      if (V.K != FastValue::Kind::Trans)
        continue;
      std::string Why;
      std::shared_ptr<const vm::VmProgram> P =
          vm::compiledProgram(S, *V.Trans, &Why, Name);
      if (P)
        std::cout << P->disassemble();
      else
        std::cout << "vm ineligible \"" << Name << "\": " << Why << "\n";
    }
  }

  for (const AssertionOutcome &A : R.Assertions) {
    std::cout << Path << ":" << A.Loc.str() << ": assert-"
              << (A.Expected ? "true" : "false") << " "
              << (A.passed() ? "PASSED" : "FAILED");
    if (!A.passed() && !A.Detail.empty())
      std::cout << "  [" << A.Detail << "]";
    std::cout << "\n";
    if (Explain && !A.passed() && A.Explanation)
      std::cout << renderExplanation(S.provenance(), *A.Explanation, Path);
  }
  std::cout << R.Assertions.size() << " assertion(s), " << Failed
            << " failed\n";
  if (Stats)
    printStats(S);
  if (!WriteMetrics())
    return 2;
  return Failed == 0 ? 0 : 1;
}
