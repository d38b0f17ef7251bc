//===- engine/Exploration.h - Shared worklist fixpoint driver ---*- C++ -*-===//
//
// Part of the fast-transducers project (see support/Hashing.h).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The worklist driver behind every lazy reachable-state fixpoint of the
/// codebase: STA normalization/product, determinization, STTR composition
/// and pre-image building, domain construction, and reachability cleaning.
/// Items are dense unsigned ids (pair the driver with a StateInterner for
/// structured states); expansion is a pluggable callback that may enqueue
/// further items.  The driver enforces optional state/step budgets, a wall
/// clock timeout, and a cancellation hook, so pathological products fail
/// gracefully instead of spinning, and it records its progress into the
/// session Stats registry.
///
/// With the session tracer attached, a run additionally emits
/// "explore.batch" spans (one per BatchSize expansions, so long fixpoints
/// are visible as a sequence of batches in the trace, each annotated with
/// the frontier size) and, when a budget stops it, an
/// "exploration.stopped" instant.  Tracing off, the only per-step cost is
/// one null check; the clock is consulted every BatchSize steps at most.
///
//===----------------------------------------------------------------------===//

#ifndef FAST_ENGINE_EXPLORATION_H
#define FAST_ENGINE_EXPLORATION_H

#include "engine/Stats.h"
#include "obs/Tracer.h"

#include <chrono>
#include <deque>
#include <functional>
#include <stdexcept>
#include <string>

namespace fast::engine {

/// Budgets applied to one exploration; all unlimited by default.
struct ExplorationLimits {
  /// Maximum distinct items enqueued over the whole run (0 = unlimited).
  /// Enforced inside enqueue(): once the budget is reached further items
  /// are dropped (not queued) and the run stops with StateBudgetExceeded
  /// at the next loop top, so a single pathological expansion cannot
  /// enqueue unboundedly past the budget.
  size_t MaxStates = 0;
  /// Maximum items expanded (0 = unlimited).
  size_t MaxSteps = 0;
  /// Wall-clock bound on the run (zero = unlimited).  The deadline is
  /// polled on the same batched stride as the trace's batch spans — every
  /// BatchSize expansions at most, never per step.
  std::chrono::milliseconds Timeout{0};
  /// Polled before each expansion; returning true aborts the run.
  std::function<bool()> CancelRequested;
  /// Test hook: when set, deadline polls read this clock instead of
  /// steady_clock::now().  Lets tests count clock reads and simulate the
  /// passage of time without sleeping.
  std::function<std::chrono::steady_clock::time_point()> Clock;
};

enum class ExplorationOutcome {
  Completed,
  StateBudgetExceeded,
  StepBudgetExceeded,
  TimedOut,
  Cancelled,
};

obs::Literal toString(ExplorationOutcome Outcome);

/// Thrown by constructions whose exploration exhausted a budget or was
/// cancelled; carries the construction name and the triggering outcome.
class ExplorationError : public std::runtime_error {
public:
  ExplorationError(std::string_view Construction, ExplorationOutcome Outcome);
  ExplorationOutcome outcome() const { return Outcome; }

private:
  ExplorationOutcome Outcome;
};

/// The shared worklist driver (FIFO, so constructions discover states in
/// breadth-first order and produce small witnesses/names first).
class Exploration {
public:
  /// Expansions per trace batch span / per deadline poll.
  static constexpr size_t BatchSize = 256;

  explicit Exploration(ConstructionStats *Stats = nullptr,
                       ExplorationLimits Limits = {},
                       obs::Tracer *Trace = nullptr)
      : Stats(Stats), Limits(std::move(Limits)), Trace(Trace) {}

  /// Enqueues item \p Id.  Callers deduplicate (typically through a
  /// StateInterner's Fresh bit or a visited bitset); every admitted id is
  /// expanded exactly once.  The state budget is enforced here, not just
  /// between expansions: once MaxStates items have been admitted, further
  /// ids are dropped and the run stops with StateBudgetExceeded at the
  /// next loop top — a single expansion enqueueing 10x the budget holds
  /// O(budget) memory, not O(blowup).
  void enqueue(unsigned Id) {
    if (Limits.MaxStates != 0 && Enqueued >= Limits.MaxStates) {
      StateBudgetTripped = true;
      return;
    }
    Queue.push_back(Id);
    ++Enqueued;
  }

  /// Total items ever admitted by enqueue().
  size_t enqueued() const { return Enqueued; }

  /// True once enqueue() has dropped an item because the state budget was
  /// exhausted; the next run() loop top reports StateBudgetExceeded.
  bool stateBudgetTripped() const { return StateBudgetTripped; }

  /// Drains the worklist, calling `Expand(Id)` on each item; Expand may
  /// enqueue further items.  Returns Completed when the worklist is empty,
  /// or the limit outcome that stopped the run early.  May be called again
  /// after items are enqueued later (budgets keep accumulating).
  template <typename ExpandFn> ExplorationOutcome run(ExpandFn &&Expand) {
    const bool HasDeadline = Limits.Timeout.count() > 0;
    auto Deadline = std::chrono::steady_clock::time_point::max();
    if (HasDeadline)
      Deadline = readClock() + Limits.Timeout;
    const bool Traced = Trace && Trace->active();
    if (Traced)
      beginBatch();
    // A deadline is polled once before the first expansion, then on the
    // batched stride.
    NextPollStep = HasDeadline ? Steps : Steps + BatchSize;
    ExplorationOutcome Outcome = ExplorationOutcome::Completed;
    while (!Queue.empty()) {
      if (Limits.CancelRequested && Limits.CancelRequested()) {
        Outcome = ExplorationOutcome::Cancelled;
        break;
      }
      if (StateBudgetTripped ||
          (Limits.MaxStates != 0 && Enqueued > Limits.MaxStates)) {
        Outcome = ExplorationOutcome::StateBudgetExceeded;
        break;
      }
      if (Limits.MaxSteps != 0 && Steps >= Limits.MaxSteps) {
        Outcome = ExplorationOutcome::StepBudgetExceeded;
        break;
      }
      unsigned Id = Queue.front();
      Queue.pop_front();
      ++Steps;
      if (Stats)
        ++Stats->StatesExplored;
      // The deadline shares the batch span's stride: the clock is
      // consulted every BatchSize steps at most, never per expansion.  A
      // deadline that is already expired trips here, before the first
      // Expand call (NextPollStep starts at the pre-run step count).
      if ((Traced || HasDeadline) && Steps >= NextPollStep) {
        if (HasDeadline && readClock() >= Deadline) {
          Outcome = ExplorationOutcome::TimedOut;
          break;
        }
        if (Traced)
          rotateBatch();
        // A traced run keeps its polls on the batch boundaries.
        NextPollStep = (Traced ? BatchStartStep : Steps) + BatchSize;
      }
      Expand(Id);
    }
    // A tripped state budget means enqueue() dropped items, so an empty
    // queue is exhaustion, not completion — without this, a drop during
    // the final expansion would drain the queue and report Completed.
    if (Outcome == ExplorationOutcome::Completed && StateBudgetTripped)
      Outcome = ExplorationOutcome::StateBudgetExceeded;
    if (Traced)
      endBatch();
    return Outcome;
  }

  /// run(), but throws ExplorationError on any outcome but Completed.
  /// Before throwing, the failure is reported to the active tracer as an
  /// "exploration.stopped" instant.
  template <typename ExpandFn>
  void runOrThrow(obs::Literal Construction, ExpandFn &&Expand) {
    ExplorationOutcome Outcome = run(std::forward<ExpandFn>(Expand));
    if (Outcome != ExplorationOutcome::Completed) {
      reportExhaustion(Construction, Outcome);
      throw ExplorationError(Construction, Outcome);
    }
  }

private:
  /// The deadline clock: steady_clock unless the test hook overrides it.
  std::chrono::steady_clock::time_point readClock() const {
    return Limits.Clock ? Limits.Clock() : std::chrono::steady_clock::now();
  }

  /// Out-of-line tracing slow paths (Exploration.cpp), so the template
  /// above stays lean.
  void beginBatch();
  void rotateBatch();
  void endBatch();
  void reportExhaustion(obs::Literal Construction,
                        ExplorationOutcome Outcome);

  ConstructionStats *Stats;
  ExplorationLimits Limits;
  obs::Tracer *Trace;
  std::deque<unsigned> Queue;
  size_t Steps = 0;
  size_t Enqueued = 0;
  /// Set by enqueue() when the state budget stops admitting items.
  bool StateBudgetTripped = false;
  /// Step count at which the open batch span began (traced runs).
  size_t BatchStartStep = 0;
  /// Step count at which the deadline and the batch span are polled next.
  size_t NextPollStep = 0;
};

} // namespace fast::engine

#endif // FAST_ENGINE_EXPLORATION_H
