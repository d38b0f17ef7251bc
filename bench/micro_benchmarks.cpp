//===- bench/micro_benchmarks.cpp - google-benchmark kernels --------------===//
//
// Micro-benchmarks (google-benchmark) for the individual operations the
// figure-level benches compose: transducer evaluation, membership,
// composition, normalization, and solver queries.  These quantify where
// the figure-level time goes.
//
// Besides the console table, every run writes the full results as
// BENCH_micro.json (google-benchmark's JSON format).  The construction
// benchmarks attach engine counters (states explored, rules emitted, guard
// cache hits) to their records.
//
//===----------------------------------------------------------------------===//

#include "apps/Deforestation.h"
#include "apps/Html.h"
#include "transducers/Run.h"
#include "vm/Vm.h"

#include <benchmark/benchmark.h>

#include <iostream>
#include <string>
#include <vector>

using namespace fast;

namespace {

/// Transducer evaluation over a list, per element.
void BM_RunMapCaesar(benchmark::State &State) {
  Session S;
  SignatureRef Sig = defo::listSignature();
  std::shared_ptr<Sttr> Map = defo::makeMapCaesar(S, Sig);
  TreeRef Input = defo::randomList(S, Sig, State.range(0), /*Seed=*/1);
  for (auto _ : State) {
    SttrRunner Runner(*Map, S.Trees);
    benchmark::DoNotOptimize(Runner.run(Input));
  }
  State.SetItemsProcessed(State.iterations() * State.range(0));
}
BENCHMARK(BM_RunMapCaesar)->Arg(256)->Arg(1024)->Arg(4096);

/// The Section 5.1 composed sanitizer, per input node, on the three
/// evaluation paths the figure-level bench compares: the structural
/// interpreter, the compiled VM data plane, and the monolithic baseline.
void BM_Sec51Interp(benchmark::State &State) {
  Session S;
  html::Sanitizer Sani = html::buildSanitizer(S);
  std::string Error;
  TreeRef Doc = html::parseHtml(
      S, Sani.Sig, html::generatePage(State.range(0), /*Seed=*/3), Error);
  for (auto _ : State) {
    SttrRunner Runner(*Sani.Sani, S.Trees);
    benchmark::DoNotOptimize(Runner.run(Doc));
  }
  State.SetItemsProcessed(State.iterations() * Doc->size());
}
BENCHMARK(BM_Sec51Interp)->Arg(8 << 10)->Arg(64 << 10);

void BM_Sec51Vm(benchmark::State &State) {
  Session S;
  html::Sanitizer Sani = html::buildSanitizer(S);
  std::string Error;
  TreeRef Doc = html::parseHtml(
      S, Sani.Sig, html::generatePage(State.range(0), /*Seed=*/3), Error);
  for (auto _ : State) {
    SttrRunner Runner(*Sani.Sani, S.Trees);
    vm::attachVm(Runner, S, *Sani.Sani, "sanitizer");
    benchmark::DoNotOptimize(Runner.run(Doc));
  }
  State.SetItemsProcessed(State.iterations() * Doc->size());
  const engine::VmStats &VS = S.stats().vm();
  State.counters["vm_runs"] = benchmark::Counter(
      static_cast<double>(VS.Runs), benchmark::Counter::kAvgIterations);
  State.counters["vm_fallbacks"] = benchmark::Counter(
      static_cast<double>(VS.FallbackRuns), benchmark::Counter::kAvgIterations);
  State.counters["vm_instructions"] = benchmark::Counter(
      static_cast<double>(VS.Instructions), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_Sec51Vm)->Arg(8 << 10)->Arg(64 << 10);

void BM_Sec51Baseline(benchmark::State &State) {
  Session S;
  html::Sanitizer Sani = html::buildSanitizer(S);
  std::string Error;
  TreeRef Doc = html::parseHtml(
      S, Sani.Sig, html::generatePage(State.range(0), /*Seed=*/3), Error);
  for (auto _ : State)
    benchmark::DoNotOptimize(html::monolithicSanitize(S, Sani.Sig, Doc));
  State.SetItemsProcessed(State.iterations() * Doc->size());
}
BENCHMARK(BM_Sec51Baseline)->Arg(8 << 10)->Arg(64 << 10);

/// Concrete membership in the well-formed-HTML language.
void BM_LanguageMembership(benchmark::State &State) {
  Session S;
  html::Sanitizer Sani = html::buildSanitizer(S);
  std::string Error;
  TreeRef Doc = html::parseHtml(
      S, Sani.Sig, html::generatePage(State.range(0), /*Seed=*/2), Error);
  for (auto _ : State)
    benchmark::DoNotOptimize(Sani.NodeTree.contains(Doc));
  State.SetItemsProcessed(State.iterations() * Doc->size());
}
BENCHMARK(BM_LanguageMembership)->Arg(8 << 10)->Arg(64 << 10);

/// Attach the engine counters accumulated in \p S to the benchmark record
/// (averaged per iteration), so BENCH_micro.json carries them.
void reportEngineCounters(benchmark::State &State, Session &S) {
  engine::ConstructionStats Total;
  for (const auto &[Name, C] : S.stats().constructions())
    Total.mergeFrom(C);
  for (const auto &F : engine::ConstructionStats::counters())
    State.counters[F.Key] = benchmark::Counter(
        F.value(Total), benchmark::Counter::kAvgIterations);
  // Latency percentiles are properties of the whole run, not per-iteration
  // averages, so they go in as plain counters.
  for (const auto &H : engine::ConstructionStats::histograms())
    for (int P : {50, 95, 99})
      State.counters[std::string(H.Key) + "_p" + std::to_string(P) + "_us"] =
          benchmark::Counter((Total.*H.Member).percentileUs(P));
}

/// One composition of the Figure 8 transducers.
void BM_ComposeMapFilter(benchmark::State &State) {
  Session S;
  SignatureRef Sig = defo::listSignature();
  std::shared_ptr<Sttr> Map = defo::makeMapCaesar(S, Sig);
  std::shared_ptr<Sttr> Filter = defo::makeFilterEven(S, Sig);
  S.stats().reset();
  for (auto _ : State)
    benchmark::DoNotOptimize(
        composeSttr(S.Solv, S.Outputs, *Map, *Filter).Composed);
  reportEngineCounters(State, S);
}
BENCHMARK(BM_ComposeMapFilter);

/// Normalization of the (alternating) well-formed-HTML language.
void BM_NormalizeHtmlLang(benchmark::State &State) {
  Session S;
  html::Sanitizer Sani = html::buildSanitizer(S);
  S.stats().reset();
  for (auto _ : State)
    benchmark::DoNotOptimize(normalize(S.Solv, Sani.NodeTree));
  reportEngineCounters(State, S);
}
BENCHMARK(BM_NormalizeHtmlLang);

/// A cached vs uncached satisfiability query.
void BM_SolverIsSat(benchmark::State &State) {
  Session S;
  bool Cached = State.range(0) != 0;
  S.Solv.setCacheEnabled(Cached);
  TermRef X = S.Terms.attr(0, Sort::Int, "x");
  TermRef Pred = S.Terms.mkAnd(
      S.Terms.mkEq(S.Terms.mkMod(X, S.Terms.intConst(7)), S.Terms.intConst(3)),
      S.Terms.mkLt(X, S.Terms.intConst(100)));
  for (auto _ : State)
    benchmark::DoNotOptimize(S.Solv.isSat(Pred));
}
BENCHMARK(BM_SolverIsSat)->Arg(0)->Arg(1);

/// Guard evaluation (no solver) on a concrete label.
void BM_EvalGuard(benchmark::State &State) {
  Session S;
  TermRef X = S.Terms.attr(0, Sort::Int, "x");
  TermRef Pred = S.Terms.mkAnd(
      S.Terms.mkEq(S.Terms.mkMod(X, S.Terms.intConst(7)), S.Terms.intConst(3)),
      S.Terms.mkLt(X, S.Terms.intConst(100)));
  std::vector<Value> Attrs = {Value::integer(17)};
  for (auto _ : State)
    benchmark::DoNotOptimize(evalPredicate(Pred, Attrs));
}
BENCHMARK(BM_EvalGuard);

} // namespace

// Custom main: the console table as usual, plus the complete results as
// BENCH_micro.json for machine consumption.  The JSON output is wired as a
// default the command line can still override with its own
// --benchmark_out=... flags (later flags win).
int main(int argc, char **argv) {
  std::vector<char *> Args;
  Args.push_back(argv[0]);
  std::string OutFlag = "--benchmark_out=BENCH_micro.json";
  std::string FormatFlag = "--benchmark_out_format=json";
  Args.push_back(OutFlag.data());
  Args.push_back(FormatFlag.data());
  for (int I = 1; I < argc; ++I)
    Args.push_back(argv[I]);
  int Argc = static_cast<int>(Args.size());

  benchmark::Initialize(&Argc, Args.data());
  if (benchmark::ReportUnrecognizedArguments(Argc, Args.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  std::cout << "machine-readable results written to BENCH_micro.json\n";
  return 0;
}
