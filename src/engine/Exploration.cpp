//===- engine/Exploration.cpp - Shared worklist fixpoint driver -----------===//

#include "engine/Exploration.h"

#include <ostream>

using namespace fast::engine;

fast::obs::Literal fast::engine::toString(ExplorationOutcome Outcome) {
  switch (Outcome) {
  case ExplorationOutcome::Completed:
    return "completed";
  case ExplorationOutcome::StateBudgetExceeded:
    return "state budget exceeded";
  case ExplorationOutcome::StepBudgetExceeded:
    return "step budget exceeded";
  case ExplorationOutcome::TimedOut:
    return "timed out";
  case ExplorationOutcome::Cancelled:
    return "cancelled";
  }
  return "unknown";
}

ExplorationError::ExplorationError(std::string_view Construction,
                                   ExplorationOutcome Outcome)
    : std::runtime_error(std::string(Construction) +
                         " exploration stopped: " +
                         std::string(toString(Outcome))),
      Outcome(Outcome) {}

void Exploration::beginObservedRun() {
  RunStart = LastBeat = std::chrono::steady_clock::now();
  StepsAtLastBeat = Steps;
  BatchStartStep = Steps;
  if (Trace->active()) {
    Trace->beginSpan("explore.batch", "explore");
    BatchSpanOpen = true;
  }
  scheduleNextObservation();
}

/// Picks the step count of the next observeBatch() poll.  The stride
/// adapts to the configured heartbeat cadence — estimate how many steps
/// fit into the time remaining until the next beat is due — but stays in
/// [1, BatchSize] so a misestimate can neither spin the clock per step
/// nor sleep through a whole batch, and never skips a batch-span
/// boundary.
void Exploration::scheduleNextObservation() {
  size_t Stride = BatchSize;
  if (Trace->ProgressIntervalMs == 0) {
    Stride = 1; // Beat every step (tests / extreme verbosity).
  } else {
    auto Now = std::chrono::steady_clock::now();
    double SinceBeatMs =
        std::chrono::duration<double, std::milli>(Now - LastBeat).count();
    double WindowMs = SinceBeatMs > 0.1 ? SinceBeatMs : 0.1;
    double StepsPerMs = (Steps - StepsAtLastBeat) / WindowMs;
    double RemainingMs = Trace->ProgressIntervalMs - SinceBeatMs;
    if (RemainingMs < 1)
      RemainingMs = 1;
    double Est = StepsPerMs * RemainingMs;
    if (Est < static_cast<double>(BatchSize))
      Stride = Est < 1 ? 1 : static_cast<size_t>(Est);
  }
  if (BatchSpanOpen) {
    size_t Boundary = BatchStartStep + BatchSize;
    size_t ToBoundary = Boundary > Steps ? Boundary - Steps : 1;
    if (ToBoundary < Stride)
      Stride = ToBoundary;
  }
  NextObserveStep = Steps + (Stride < 1 ? 1 : Stride);
}

/// Rotates the per-BatchSize trace span at its boundary and emits a
/// progress heartbeat when the configured interval has elapsed, then
/// schedules the next poll.
void Exploration::observeBatch() {
  const bool Boundary = Steps - BatchStartStep >= BatchSize;
  if (BatchSpanOpen && Boundary) {
    const obs::TraceAttr Attrs[] = {
        obs::attr("steps", static_cast<uint64_t>(Steps - BatchStartStep)),
        obs::attr("frontier", static_cast<uint64_t>(Queue.size())),
    };
    Trace->endSpan(Attrs);
    BatchSpanOpen = false;
  }
  auto Now = std::chrono::steady_clock::now();
  double SinceBeatMs =
      std::chrono::duration<double, std::milli>(Now - LastBeat).count();
  if (Trace->ProgressIntervalMs == 0 ||
      SinceBeatMs >= Trace->ProgressIntervalMs) {
    double Rate = SinceBeatMs > 0
                      ? (Steps - StepsAtLastBeat) * 1000.0 / SinceBeatMs
                      : 0;
    obs::Literal Construction = Trace->currentConstruction();
    if (Construction.view().empty())
      Construction = "explore";
    const obs::TraceAttr Attrs[] = {
        obs::attr("states_explored", static_cast<uint64_t>(Steps)),
        obs::attr("frontier", static_cast<uint64_t>(Queue.size())),
        obs::attr("construction", Construction),
        obs::attr("states_per_sec", Rate),
    };
    Trace->instant("progress", "explore", Attrs);
    if (std::ostream *Out = Trace->progressStream())
      *Out << "[fast] " << Construction.view() << ": " << Steps
           << " states explored, frontier " << Queue.size() << ", "
           << static_cast<uint64_t>(Rate) << " states/s\n";
    LastBeat = Now;
    StepsAtLastBeat = Steps;
  }
  if (Trace->active() && !BatchSpanOpen) {
    Trace->beginSpan("explore.batch", "explore");
    BatchSpanOpen = true;
    BatchStartStep = Steps;
  }
  scheduleNextObservation();
}

void Exploration::endObservedRun(ExplorationOutcome) {
  if (BatchSpanOpen) {
    const obs::TraceAttr Attrs[] = {
        obs::attr("steps", static_cast<uint64_t>(Steps - BatchStartStep)),
        obs::attr("frontier", static_cast<uint64_t>(Queue.size())),
    };
    Trace->endSpan(Attrs);
    BatchSpanOpen = false;
  }
}

void Exploration::reportExhaustion(obs::Literal Construction,
                                   ExplorationOutcome Outcome) {
  if (!Trace)
    return;
  const obs::TraceAttr Attrs[] = {
      obs::attr("states_explored", static_cast<uint64_t>(Steps)),
      obs::attr("frontier", static_cast<uint64_t>(Queue.size())),
      obs::attr("construction", Construction),
      obs::attr("outcome", toString(Outcome)),
  };
  Trace->instant("exploration.stopped", "explore", Attrs);
  // Budget exhaustion is an incident: freeze the window leading up to it.
  Trace->recorder().dumpIncident(toString(Outcome));
  if (std::ostream *Out = Trace->progressStream()) {
    *Out << "[fast] " << Construction.view() << " exploration stopped: "
         << toString(Outcome).view() << " after " << Steps
         << " states (frontier " << Queue.size() << ")\n";
    std::string Slow = Trace->slowQueries().report();
    if (!Slow.empty())
      *Out << Slow;
  }
}
