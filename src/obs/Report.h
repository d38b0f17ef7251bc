//===- obs/Report.h - Single-file HTML session report -----------*- C++ -*-===//
//
// Part of the fast-transducers project (see support/Hashing.h).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `fastc --report=out.html` backend: an in-memory trace sink (so the
/// span timeline can be embedded without requiring a --trace file), a tee
/// sink (report + trace file simultaneously), and a ReportBuilder that
/// assembles one self-contained HTML page.
///
/// The page embeds all data as a single JSON island:
///
///   <script type="application/json" id="fast-report-data"> {...} </script>
///
/// with keys "title", "events" (Chrome trace events), "stats" (the
/// session's MetricsSnapshot json()), "coverage"
/// (ProvenanceStore::coverageJson), "assertions", "witnesses" (rendered
/// explanations), and "slow_queries".
/// A small inline script renders the island; tools/report_check validates
/// it offline with checks/JsonCheck.
///
/// The builder consumes pre-serialized JSON fragments and plain strings
/// only, so fast_obs keeps its support-only link footprint.
///
//===----------------------------------------------------------------------===//

#ifndef FAST_OBS_REPORT_H
#define FAST_OBS_REPORT_H

#include "obs/TraceSink.h"

#include <memory>
#include <string>
#include <vector>

namespace fast::obs {

/// Collects events as rendered Chrome-JSON objects in shared storage, so
/// the report builder can read them after the Tracer destroys the sink.
class MemoryTraceSink : public TraceSink {
public:
  MemoryTraceSink() : Events(std::make_shared<std::vector<std::string>>()) {}
  void event(const TraceEvent &E) override {
    Events->push_back(renderEventJson(E));
  }
  std::shared_ptr<std::vector<std::string>> storage() const { return Events; }

private:
  std::shared_ptr<std::vector<std::string>> Events;
};

/// Forwards every event (and finish) to two sinks: --trace plus --report.
class TeeTraceSink : public TraceSink {
public:
  TeeTraceSink(std::unique_ptr<TraceSink> First,
               std::unique_ptr<TraceSink> Second)
      : A(std::move(First)), B(std::move(Second)) {}
  void event(const TraceEvent &E) override {
    A->event(E);
    B->event(E);
  }
  void finish() override {
    A->finish();
    B->finish();
  }

private:
  std::unique_ptr<TraceSink> A, B;
};

/// Assembles the single-file HTML session report.
class ReportBuilder {
public:
  void setTitle(std::string Title) { this->Title = std::move(Title); }
  /// \p Json must be a complete JSON value (object/array), e.g. the
  /// MetricsSnapshot json() or ProvenanceStore coverageJson().
  void setStatsJson(std::string Json) { StatsJson = std::move(Json); }
  void setCoverageJson(std::string Json) { CoverageJson = std::move(Json); }
  /// One rendered Chrome trace-event object per entry (renderEventJson).
  void setEvents(std::vector<std::string> Rendered) {
    Events = std::move(Rendered);
  }
  void setSlowQueryText(std::string Text) { SlowQueries = std::move(Text); }
  void addAssertion(std::string Loc, bool Expected, bool Passed,
                    std::string Detail);
  /// A rendered witness explanation (fast::renderExplanation output).
  void addWitness(std::string Heading, std::string Text);

  /// The embedded JSON island alone (what tools/report_check validates).
  std::string dataJson() const;
  /// The complete single-file HTML page.
  std::string html() const;

private:
  std::string Title = "fast session report";
  std::string StatsJson = "{}";
  std::string CoverageJson = "[]";
  std::vector<std::string> Events;
  std::string SlowQueries;
  std::vector<std::string> Assertions; // rendered JSON objects
  std::vector<std::string> Witnesses;  // rendered JSON objects
};

} // namespace fast::obs

#endif // FAST_OBS_REPORT_H
