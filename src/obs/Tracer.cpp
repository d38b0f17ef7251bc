//===- obs/Tracer.cpp - Session-wide tracing & profiling hub --------------===//

#include "obs/Tracer.h"

#include <cassert>
#include <cstdlib>

using namespace fast::obs;

Tracer::Tracer() : Epoch(std::chrono::steady_clock::now()) {}

Tracer::~Tracer() { closeTrace(); }

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
  Active.store(Sink != nullptr, std::memory_order_relaxed);
}

void Tracer::closeTrace() {
  if (!Sink)
    return;
  // Balance the spans that are still open: the sink attached with none
  // open, so it saw every one of them begin.
  for (size_t I = SpanStack.size(); I > 0; --I)
    Sink->event({'E', SpanStack[I - 1].Name, SpanStack[I - 1].Category,
                 nowUs(), 0, {}});
  Sink->finish();
  Sink.reset();
  SpanStack.clear();
  Active.store(false, std::memory_order_relaxed);
}

void Tracer::configureFromEnv() {
  if (const char *Path = std::getenv("FAST_TRACE"); Path && *Path)
    openTrace(Path);
}

void Tracer::beginSpan(Literal Name, Literal Category) {
  if (!active())
    return;
  SpanStack.push_back({Name, Category});
  Sink->event({'B', Name, Category, nowUs(), 0, {}});
}

void Tracer::endSpan(std::span<const TraceAttr> Attrs) {
  if (!active() || SpanStack.empty())
    return;
  OpenSpan Top = SpanStack.back();
  SpanStack.pop_back();
  Sink->event({'E', Top.Name, Top.Category, nowUs(), 0, Attrs});
}

void Tracer::complete(Literal Name, Literal Category,
                      double StartUs, std::span<const TraceAttr> Attrs) {
  if (!active())
    return;
  double Now = nowUs();
  Sink->event({'X', Name, Category, StartUs, Now - StartUs, Attrs});
}

void Tracer::instant(Literal Name, Literal Category,
                     std::span<const TraceAttr> Attrs) {
  if (!active())
    return;
  Sink->event({'i', Name, Category, nowUs(), 0, Attrs});
}
