//===- obs/Tracer.cpp - Session-wide tracing & profiling hub --------------===//

#include "obs/Tracer.h"

#include <cassert>
#include <cstdlib>
#include <iostream>

using namespace fast::obs;

Tracer::Tracer() : Epoch(std::chrono::steady_clock::now()) {}

Tracer::~Tracer() {
  // An armed recorder with no incident still gets its on-demand exit dump
  // (no-op for a record-only ring, and after an incident dump, which
  // freezes the recorder).
  Recorder.dumpFinal();
  closeTrace();
}

bool Tracer::openTrace(const std::string &Path) {
  std::unique_ptr<TraceSink> S = makeFileTraceSink(Path);
  if (!S)
    return false;
  setSink(std::move(S));
  return true;
}

void Tracer::setSink(std::unique_ptr<TraceSink> NewSink) {
  assert((!NewSink || SpanStack.empty()) &&
         "a sink attaches only while no span is open");
  closeTrace();
  Sink = std::move(NewSink);
  updateActive();
}

void Tracer::closeTrace() {
  if (!Sink)
    return;
  // Balance the spans that are still open: the sink attached with none
  // open, so it saw every one of them begin.  The ring keeps its own view:
  // those spans end there when their scopes do.
  for (size_t I = SpanStack.size(); I > 0; --I)
    Sink->event({'E', SpanStack[I - 1].Name, SpanStack[I - 1].Category,
                 nowUs(), 0, {}});
  Sink->finish();
  Sink.reset();
  if (!Recorder.armed())
    SpanStack.clear();
  updateActive();
}

void Tracer::armRecorder(std::string Path, size_t Capacity) {
  Recorder.arm(std::move(Path),
               Capacity ? Capacity : FlightRecorder::capacityFromEnv());
  updateActive();
}


void Tracer::configureFromEnv() {
  if (const char *Path = std::getenv("FAST_TRACE"); Path && *Path)
    openTrace(Path);
  if (const char *P = std::getenv("FAST_PROGRESS"); P && *P && *P != '0')
    setProgressStream(&std::cerr);
  // Heartbeat cadence in milliseconds (0 = every exploration step).
  if (const char *Ms = std::getenv("FAST_PROGRESS_MS"); Ms && *Ms) {
    char *End = nullptr;
    unsigned long V = std::strtoul(Ms, &End, 10);
    if (End != Ms && *End == '\0')
      ProgressIntervalMs = static_cast<unsigned>(V);
  }
  // FAST_FLIGHT_RECORDER=FILE arms the incident ring; the optional
  // FAST_FLIGHT_RECORDER_EVENTS overrides its ~64K-event budget.
  if (const char *Fr = std::getenv("FAST_FLIGHT_RECORDER"); Fr && *Fr)
    armRecorder(Fr);
}

void Tracer::beginSpan(Literal Name, Literal Category) {
  if (!active())
    return;
  SpanStack.push_back({Name, Category});
  emit({'B', Name, Category, nowUs(), 0, {}});
}

void Tracer::endSpan(std::span<const TraceAttr> Attrs) {
  if (!active() || SpanStack.empty())
    return;
  OpenSpan Top = SpanStack.back();
  SpanStack.pop_back();
  emit({'E', Top.Name, Top.Category, nowUs(), 0, Attrs});
}

void Tracer::complete(Literal Name, Literal Category,
                      double StartUs, std::span<const TraceAttr> Attrs) {
  if (!active())
    return;
  double Now = nowUs();
  emit({'X', Name, Category, StartUs, Now - StartUs, Attrs});
}

void Tracer::instant(Literal Name, Literal Category,
                     std::span<const TraceAttr> Attrs) {
  if (!active())
    return;
  emit({'i', Name, Category, nowUs(), 0, Attrs});
}
