//===- obs/Tracer.h - Session-wide tracing & profiling hub ------*- C++ -*-===//
//
// Part of the fast-transducers project (see support/Hashing.h).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-session observability hub and its one event stream.  One Tracer
/// lives inside every SessionEngine; the engine's ConstructionScopes, the
/// Exploration driver, the GuardCache, the Solver and the VM all hold a
/// pointer to it and emit:
///
///  - a span tree ('B'/'E' events) mirroring the ConstructionScope nesting,
///    with exploration worklist batches and minterm splits as inner spans
///    and counter deltas attached to every span end;
///  - complete leaf spans ('X' events) for solver checks that reach Z3 and
///    for compiled-VM runs;
///  - instant events ('i') for budget exhaustion.
///
/// Each event goes to one consumer, the attached sink (a trace file or a
/// worker's replay buffer).  active() is true while a sink is attached;
/// it is the single relaxed load every hook makes, so an untraced session
/// pays one branch per hook.  A sink is attached with openTrace() (file
/// extension selects the format: ".jsonl" streams flush-per-event JSONL,
/// anything else writes the Perfetto-loadable Chrome JSON array) or from
/// the FAST_TRACE environment variable.
///
/// Event strings — names, categories, attribute keys and string values —
/// are Literals (obs/Literal.h): worker buffers keep them past the
/// emitting call.
///
/// Two pieces stay on even with no sink because they feed `fastc
/// --stats`: the slow-query log (worst-K solver queries, admission is one
/// comparison) and the construction label stack that attributes those
/// queries.
///
/// The Tracer is single-threaded, like the analysis session it observes.
///
//===----------------------------------------------------------------------===//

#ifndef FAST_OBS_TRACER_H
#define FAST_OBS_TRACER_H

#include "obs/SlowQueryLog.h"
#include "obs/TraceSink.h"

#include <atomic>
#include <chrono>
#include <vector>

namespace fast::obs {

class Tracer {
public:
  Tracer();
  ~Tracer();
  Tracer(const Tracer &) = delete;
  Tracer &operator=(const Tracer &) = delete;

  /// True when a sink is attached; the only check hot paths make.
  bool active() const { return Active.load(std::memory_order_relaxed); }

  /// Attaches a file sink, replacing any current one.  The format is
  /// chosen by extension: ".jsonl" streams JSONL, anything else writes a
  /// Chrome trace-event JSON array.  Returns false (and stays inactive)
  /// if the file cannot be opened.
  bool openTrace(const std::string &Path);

  /// Installs a custom sink (tests, a worker's replay buffer), or
  /// detaches with null.  A sink attaches only while no span is open
  /// (asserted), so it sees the begin of every span whose end it sees;
  /// every caller attaches to a fresh or idle tracer.
  void setSink(std::unique_ptr<TraceSink> NewSink);

  /// Finishes and closes the current sink, balancing the spans it saw
  /// begin first so the emitted trace is well-formed.
  void closeTrace();

  /// Applies FAST_TRACE (trace file path).  Called by the SessionEngine
  /// constructor.
  void configureFromEnv();

  /// Adopts \p Base's timebase, so events this tracer emits (into a
  /// worker's BufferTraceSink) carry timestamps directly comparable with
  /// the base session's and can be replayed into its sink unadjusted.
  void alignEpochTo(const Tracer &Base) { Epoch = Base.Epoch; }

  /// Forwards an already-timestamped event (a worker buffer replay) to
  /// this tracer's sink; no-op when inactive.
  void emitForeign(const TraceEvent &E) {
    if (active())
      Sink->event(E);
  }

  /// Microseconds since tracer construction (the trace timebase).
  double nowUs() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - Epoch)
        .count();
  }

  /// --- Span API (LIFO; no-ops when inactive) -------------------------

  void beginSpan(Literal Name, Literal Category);
  void endSpan(std::span<const TraceAttr> Attrs = {});
  /// A leaf span emitted as one complete 'X' event; \p StartUs is the
  /// value nowUs() returned when the work began.
  void complete(Literal Name, Literal Category,
                double StartUs, std::span<const TraceAttr> Attrs = {});
  void instant(Literal Name, Literal Category,
               std::span<const TraceAttr> Attrs = {});
  size_t openSpans() const { return SpanStack.size(); }

  /// --- Construction attribution (always on) --------------------------

  /// Maintained by ConstructionScope.
  void pushConstruction(Literal Name) {
    ConstructionStack.push_back(Name);
  }
  void popConstruction() {
    if (!ConstructionStack.empty())
      ConstructionStack.pop_back();
  }
  /// The innermost active construction, or "" outside any.
  Literal currentConstruction() const {
    return ConstructionStack.empty() ? Literal("") : ConstructionStack.back();
  }

  /// --- Slow-query log (always on) ------------------------------------

  SlowQueryLog &slowQueries() { return Slow; }
  const SlowQueryLog &slowQueries() const { return Slow; }

private:
  std::atomic<bool> Active{false};
  std::unique_ptr<TraceSink> Sink;
  /// Open spans, so 'E' events can repeat their name and category.
  struct OpenSpan {
    std::string_view Name;
    std::string_view Category;
  };
  std::vector<OpenSpan> SpanStack;
  std::vector<Literal> ConstructionStack;
  SlowQueryLog Slow;
  std::chrono::steady_clock::time_point Epoch;
};

/// RAII span: begins on construction when the tracer is active and ends
/// on destruction, or earlier through end() with attributes.  Captures
/// activity once, so a consumer attached while a guard that began inactive
/// is alive never sees an end without its begin.
class SpanGuard {
public:
  SpanGuard(Tracer *T, Literal Name, Literal Category)
      : T(T && T->active() ? T : nullptr) {
    if (this->T)
      this->T->beginSpan(Name, Category);
  }
  ~SpanGuard() {
    if (T)
      T->endSpan();
  }
  SpanGuard(const SpanGuard &) = delete;
  SpanGuard &operator=(const SpanGuard &) = delete;

  /// True when the span is being recorded (attributes are worth building).
  bool live() const { return T != nullptr; }
  /// Ends the span now, carrying \p Attrs.
  void end(std::span<const TraceAttr> Attrs) {
    if (T)
      T->endSpan(Attrs);
    T = nullptr;
  }

private:
  Tracer *T;
};

} // namespace fast::obs

#endif // FAST_OBS_TRACER_H
