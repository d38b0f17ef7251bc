//===- bench/BenchJson.h - Machine-readable benchmark output ----*- C++ -*-===//
//
// Shared helper for the figure-level benchmarks: appends records to a JSON
// file (one record per line inside a top-level array) so repeated runs of
// different figures merge into one BENCH_figs.json.  A record carries the
// benchmark name, the problem size, the wall time, and an `engine` object:
// the session's metrics snapshot as JSON without timing families
// (engineJson), i.e. its deterministic engine, solver, VM and program
// counters.
//
// Re-running a benchmark replaces its own earlier records (matched by the
// "source" tag) and leaves records from other sources untouched.
//
//===----------------------------------------------------------------------===//

#ifndef FAST_BENCH_BENCHJSON_H
#define FAST_BENCH_BENCHJSON_H

#include "engine/MetricsBridge.h"
#include "transducers/Session.h"

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace fast::bench {

/// The `engine` object of a record: \p S's metrics snapshot as JSON
/// without timing families.  The record's own wall_ms carries the timing.
inline std::string engineJson(Session &S) {
  obs::MetricsSnapshot Snap;
  engine::collectSessionMetrics(S.engine(), Snap);
  return Snap.json(/*IncludeTiming=*/false);
}

class BenchJsonWriter {
public:
  /// Records will be written to \p Path; every record is tagged with
  /// \p Source, and existing records with the same tag are dropped.
  BenchJsonWriter(std::string Path, std::string Source)
      : Path(std::move(Path)), Source(std::move(Source)) {}

  /// Queue one record.  \p EngineStatsJson must be a JSON object (use
  /// engineJson(), or "{}" when no stats apply).
  void add(const std::string &Name, long N, double WallMs,
           const std::string &EngineStatsJson) {
    std::ostringstream Line;
    Line << "{\"source\":\"" << Source << "\",\"name\":\"" << Name
         << "\",\"n\":" << N << ",\"wall_ms\":" << WallMs
         << ",\"engine\":" << EngineStatsJson << "}";
    Records.push_back(Line.str());
  }

  /// Merge the queued records into the file and report where they went.
  /// Returns false (leaving no partial file) if the file cannot be written.
  bool flush() {
    // Keep every existing record line that belongs to another source.
    std::vector<std::string> Kept;
    std::ifstream In(Path);
    std::string Tag = "\"source\":\"" + Source + "\"";
    for (std::string Line; std::getline(In, Line);)
      if (Line.size() > 1 && Line[0] == '{' &&
          Line.find(Tag) == std::string::npos)
        Kept.push_back(stripTrailingComma(Line));
    In.close();

    std::ofstream Out(Path, std::ios::trunc);
    if (!Out)
      return false;
    Out << "[\n";
    size_t Total = Kept.size() + Records.size(), I = 0;
    for (const std::string &Line : Kept)
      Out << Line << (++I < Total ? "," : "") << "\n";
    for (const std::string &Line : Records)
      Out << Line << (++I < Total ? "," : "") << "\n";
    Out << "]\n";
    return static_cast<bool>(Out);
  }

  const std::string &path() const { return Path; }

private:
  static std::string stripTrailingComma(std::string Line) {
    if (!Line.empty() && Line.back() == ',')
      Line.pop_back();
    return Line;
  }

  std::string Path;
  std::string Source;
  std::vector<std::string> Records;
};

} // namespace fast::bench

#endif // FAST_BENCH_BENCHJSON_H
