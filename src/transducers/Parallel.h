//===- transducers/Parallel.h - Worker contexts & parallel driver -*- C++ -*-===//
//
// Part of the fast-transducers project (see support/Hashing.h).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The scratch tier of a parallel analysis run.  A frozen Session is the
/// shared tier: its interning factories answer lookups lock-free and its
/// checked automata/transducers are immutable, so any number of workers
/// may read them concurrently.  Everything mutable lives in a
/// WorkerContext: an overlay Session (overlay factories, own Solver, which
/// builds its own Z3 context on the worker's first Z3 check, own
/// SessionEngine with guard cache, stats shard, trace buffer, provenance
/// shard, own program cache and Vm pool).
///
/// ParallelRunner schedules N independent tasks over a small thread pool.
/// Determinism is by construction, not by luck:
///
///  - every task gets a *fresh* WorkerContext, so what a task computes
///    never depends on which thread ran it or what ran before it — the
///    results of `-j 1` and `-j N` are byte-identical;
///  - commutative state (stats counters, latency histograms, slow-query
///    entries, rule-coverage counts) is merged into the base session at
///    task end under a mutex — sums and worst-K sets are merge-order
///    independent;
///  - order-sensitive state (trace events) is buffered per task and
///    replayed into the base tracer's sink at the join point in
///    task-index order.
///
/// A task that throws does not abort its siblings; its scratch state is
/// discarded wholesale — neither its stats/coverage shards nor its
/// buffered trace events reach the base session, so the trace stream
/// never shows spans whose counters were not merged — and the runner
/// re-throws the lowest-indexed task's exception after the join, again
/// independent of schedule.
///
//===----------------------------------------------------------------------===//

#ifndef FAST_TRANSDUCERS_PARALLEL_H
#define FAST_TRANSDUCERS_PARALLEL_H

#include "transducers/Session.h"

#include <functional>
#include <memory>
#include <vector>

namespace fast {

/// The number of worker threads to use when the caller does not specify
/// one: std::thread::hardware_concurrency(), or 1 if unknown.
unsigned hardwareThreads();

/// One task's private scratch state, layered over a frozen base session.
class WorkerContext {
public:
  /// \p Base must already be frozen and must have its engine attached
  /// (ParallelRunner arranges both); it must outlive this context.
  ///
  /// \p ProvSnapshot, when given, seeds the worker's provenance store
  /// instead of the base's live one.  Required whenever the context is
  /// constructed while sibling tasks may be merging into \p Base: the
  /// live store's Fired counters are written by those merges, and this
  /// constructor runs unserialized on a worker thread.  ParallelRunner
  /// always passes its own main-thread snapshot; nullptr is only safe
  /// when no other worker of \p Base is running.
  explicit WorkerContext(Session &Base,
                         const obs::ProvenanceStore *ProvSnapshot = nullptr);
  WorkerContext(const WorkerContext &) = delete;
  WorkerContext &operator=(const WorkerContext &) = delete;

  /// The overlay session a task runs its constructions in.
  Session &session() { return Work; }
  const Session &base() const { return BaseS; }

  /// Returns the context to its just-constructed state so the next task
  /// can reuse it.  Everything a task could observe is cleared — overlay
  /// factories (so term/tree/output ids restart where a fresh overlay's
  /// would), solver caches and the Z3 translation memo, guard-cache
  /// memos and the minterm trie, the program cache with its Vm pool,
  /// construction stats, solver counters, the slow-query shard, and the
  /// provenance Fired shard — because the reuse contract is observational
  /// freshness: a task computes exactly what it would in a new context
  /// (same counters, same byte-identical products), no matter which
  /// thread runs it or what ran before.  Only the Z3 *context*, once some
  /// task has reached Z3, and isSat's Z3 solver (empty between queries)
  /// survive, which are the per-task construction constants pooling
  /// exists to avoid.  Only valid for contexts without a trace buffer
  /// (the runner never pools when tracing, because buffered events are
  /// per-task state).
  void reset();

  /// Merges this context's commutative state into the base session:
  /// construction stats, solver counters, slow-query entries, and rule
  /// coverage.  Call at most once, at task end; the caller serializes
  /// (ParallelRunner holds its merge mutex).
  void mergeInto(Session &Base);

  /// Replays this context's buffered trace events into \p BaseTrace's
  /// sink with their original timestamps, rewritten onto thread
  /// lane \p Lane (lane 1 is the base session's own thread; the runner
  /// passes 2 + task index).  Distinct lanes keep per-lane timestamps
  /// monotone even though tasks overlapped in real time.  Called at the
  /// join point in task-index order; no-op when the base tracer was
  /// inactive at construction (nothing was buffered).
  void replayTraceInto(obs::Tracer &BaseTrace, double Lane);

private:
  Session &BaseS;
  Session Work;
  /// The snapshot this context's provenance shard was seeded from (null
  /// when seeded from the live base store); reset() re-seeds from it, for
  /// the same reason the constructor used it — the live store is written
  /// by sibling merges while a pooled context resets on a worker thread.
  const obs::ProvenanceStore *ProvSnapshot = nullptr;
  /// Owned by Work's tracer; non-null iff the base tracer was active.
  obs::BufferTraceSink *Buffer = nullptr;
};

/// A small thread pool running independent tasks over fresh WorkerContexts.
class ParallelRunner {
public:
  /// Freezes \p Base (if not already frozen), materializes its engine,
  /// and snapshots its provenance tables — all on the constructing
  /// thread, before any worker exists — so worker threads only ever read
  /// immutable state.  \p Threads = 0 selects hardwareThreads().
  explicit ParallelRunner(Session &Base, unsigned Threads = 0);

  unsigned threads() const { return NumThreads; }
  Session &base() { return BaseS; }

  /// Runs \p Fn(TaskIndex, Worker) for every TaskIndex in [0, NumTasks),
  /// each on a fresh WorkerContext, across the pool.  Merges every
  /// worker's commutative state at task end and replays trace buffers at
  /// the join in task-index order.  If tasks threw, re-throws the
  /// lowest-indexed task's exception after the join.
  ///
  /// With \p RetainWorkers the per-task contexts are kept alive and
  /// returned (indexed by task), for results — witness trees, explained
  /// derivations — that point into worker-owned factories; otherwise the
  /// returned vector is empty and contexts die at the join.
  ///
  /// Context economy: when contexts need not outlive their task (neither
  /// RetainWorkers nor an active trace), each pool thread builds one
  /// context lazily on its first claimed task and reuses it (reset
  /// between tasks) for the rest — at most min(threads, tasks) contexts
  /// per run, never one per task, so a pooled thread builds at most one
  /// Z3 context, on its first task that reaches Z3, and keeps it warm.
  /// A run whose tasks never reach Z3 builds none.  When contexts are
  /// retained, each task still gets a fresh one, so results that point
  /// into worker factories (and replayed trace buffers) stay
  /// byte-identical across -j values, and a context is still only
  /// constructed by a thread that actually claimed a task.
  std::vector<std::unique_ptr<WorkerContext>>
  run(size_t NumTasks, const std::function<void(size_t, WorkerContext &)> &Fn,
      bool RetainWorkers = false);

  /// Number of WorkerContexts constructed by the last run() — at most
  /// min(threads(), tasks) when pooling, exactly the task count when
  /// contexts are retained.  Exposed so tests can pin the context
  /// economy; run() itself asserts the pooled bound.
  size_t contextsBuilt() const { return ContextsBuilt; }

private:
  Session &BaseS;
  unsigned NumThreads;
  size_t ContextsBuilt = 0;
  /// Immutable copy of the base provenance tables, taken in the
  /// constructor.  Worker contexts seed from this rather than from the
  /// live base store, whose Fired counters are concurrently written by
  /// task-end merges.
  obs::ProvenanceStore ProvSnapshot;
};

} // namespace fast

#endif // FAST_TRANSDUCERS_PARALLEL_H
