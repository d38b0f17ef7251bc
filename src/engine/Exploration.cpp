//===- engine/Exploration.cpp - Shared worklist fixpoint driver -----------===//

#include "engine/Exploration.h"

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

void Exploration::beginBatch() {
  Trace->beginSpan("explore.batch", "explore");
  BatchStartStep = Steps;
}

/// Ends the open batch span and begins the next one once BatchSize steps
/// have run in it.
void Exploration::rotateBatch() {
  if (Steps - BatchStartStep < BatchSize)
    return;
  endBatch();
  beginBatch();
}

void Exploration::endBatch() {
  const obs::TraceAttr Attrs[] = {
      obs::attr("steps", static_cast<uint64_t>(Steps - BatchStartStep)),
      obs::attr("frontier", static_cast<uint64_t>(Queue.size())),
  };
  Trace->endSpan(Attrs);
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
}
