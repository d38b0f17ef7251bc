//===- transducers/Parallel.cpp - Worker contexts & parallel driver -------===//

#include "transducers/Parallel.h"

#include <atomic>
#include <cassert>
#include <exception>
#include <mutex>
#include <thread>

using namespace fast;

unsigned fast::hardwareThreads() {
  unsigned N = std::thread::hardware_concurrency();
  return N == 0 ? 1 : N;
}

WorkerContext::WorkerContext(Session &Base,
                             const obs::ProvenanceStore *ProvSnapshot)
    : BaseS(Base), Work(Session::OverlayTag{}, Base),
      ProvSnapshot(ProvSnapshot) {
  assert(Base.frozen() && "WorkerContext requires a frozen base session");
  engine::SessionEngine &BaseEngine = Base.engine();
  engine::SessionEngine &WorkEngine = Work.engine();

  // Budgets apply per construction, so a copy (not a share) is right.
  WorkEngine.Limits = BaseEngine.Limits;

  // Same anchor/rule id space as the base, own Fired shard.  Seed from
  // the runner's main-thread snapshot when given: this constructor runs
  // on a worker thread, and the base store's Fired counters are being
  // written by sibling tasks' merges.
  WorkEngine.Prov.adoptSharedFrom(ProvSnapshot ? *ProvSnapshot
                                               : BaseEngine.Prov);

  // Slow-query admission uses the base's capacity so the merged worst-K
  // set matches what a sequential run would have retained.
  WorkEngine.Trace.slowQueries().setCapacity(
      BaseEngine.Trace.slowQueries().capacity());

  // Share the base timebase unconditionally: buffered trace events must
  // be directly comparable with the base's at the join point.
  WorkEngine.Trace.alignEpochTo(BaseEngine.Trace);

  // Trace events are order-sensitive: buffer them on the base timebase
  // for replay into the base's sink at the join point.  Without a sink
  // nothing buffers and the worker tracer stays inactive (one branch per
  // hook).
  if (BaseEngine.Trace.active()) {
    auto Sink = std::make_unique<obs::BufferTraceSink>();
    Buffer = Sink.get();
    WorkEngine.Trace.setSink(std::move(Sink));
  }
}

void WorkerContext::reset() {
  assert(!Buffer && "pooled reuse requires an untraced context");
  engine::SessionEngine &WorkEngine = Work.engine();
  // Restore *observational* freshness: the next task must compute exactly
  // what it would in a brand-new context — same query counts, same cache
  // hits, same term ids, same constructed automata — no matter which
  // thread runs it or what ran before.  Only the Z3 context, once a task
  // has built it, and isSat's Z3 solver (the ~ms per-task constants
  // pooling exists to kill) survive; that solver is empty between
  // queries.
  //
  // Order matters: the solver's translation memo, the guard cache's
  // memos/trie and the program cache (keys hash guard and output
  // pointers; pooled Vms bind the overlay tree factory) are keyed by
  // overlay pointers, so they are dropped before resetOverlay() frees or
  // recycles them.
  Work.Solv.resetForReuse();
  WorkEngine.Guards.clearMemos();
  Work.VmCache.reset();
  Work.Terms.resetOverlay();
  Work.Trees.resetOverlay();
  Work.Outputs.resetOverlay();
  WorkEngine.Stats.reset();
  Work.Solv.resetStats();
  WorkEngine.Trace.slowQueries().clear();
  // Re-seed the provenance shard (same tables, Fired counts zeroed), so a
  // previous task's firings — merged or discarded — never leak into the
  // next task's coverage merge.  From the snapshot, never the live store:
  // reset() runs on a worker thread while sibling merges write Fired.
  WorkEngine.Prov.adoptSharedFrom(ProvSnapshot ? *ProvSnapshot
                                               : BaseS.engine().Prov);
}

void WorkerContext::mergeInto(Session &Base) {
  Base.stats().mergeFrom(Work.stats());
  Base.Solv.mergeStatsFrom(Work.Solv);
  Base.tracer().slowQueries().mergeFrom(Work.tracer().slowQueries());
  Base.provenance().mergeCoverageFrom(Work.provenance());
}

void WorkerContext::replayTraceInto(obs::Tracer &BaseTrace, double Lane) {
  if (!Buffer)
    return;
  for (const obs::BufferTraceSink::BufferedEvent &E : Buffer->events())
    BaseTrace.emitForeign(
        {E.Phase, E.Name, E.Category, E.TsUs, E.DurUs, E.Attrs, Lane});
}

ParallelRunner::ParallelRunner(Session &Base, unsigned Threads)
    : BaseS(Base), NumThreads(Threads == 0 ? hardwareThreads() : Threads) {
  // Materialize the engine before any worker thread exists — worker
  // contexts read it, and SessionEngine::of installs on first use.
  Base.engine();
  if (!Base.frozen())
    Base.freeze();
  // Snapshot the provenance tables while still single-threaded: worker
  // contexts constructed mid-run must not read the live base store,
  // whose Fired counters finishing tasks write under the merge mutex.
  ProvSnapshot.adoptSharedFrom(Base.engine().Prov);
}

std::vector<std::unique_ptr<WorkerContext>>
ParallelRunner::run(size_t NumTasks,
                    const std::function<void(size_t, WorkerContext &)> &Fn,
                    bool RetainWorkers) {
  // Contexts must outlive their task whenever per-task state is replayed
  // at the join point in task order: retained results and trace buffers.
  const bool KeepContexts = RetainWorkers || BaseS.engine().Trace.active();
  std::vector<std::unique_ptr<WorkerContext>> Retained(
      KeepContexts ? NumTasks : 0);
  std::vector<std::exception_ptr> Errors(NumTasks);
  std::atomic<size_t> Next{0};
  std::atomic<size_t> Built{0};
  std::mutex MergeMutex;

  auto RunTasks = [&] {
    // Contexts are built lazily, inside the claim loop: a pool thread
    // that never claims a task never constructs one.
    std::unique_ptr<WorkerContext> Pooled;
    for (size_t Task = Next.fetch_add(1); Task < NumTasks;
         Task = Next.fetch_add(1)) {
      std::unique_ptr<WorkerContext> Worker;
      if (KeepContexts) {
        // A fresh context per *task* (not per thread) keeps retained
        // results and replayed trace buffers independent of scheduling:
        // -j 1 and -j N stay byte-identical.
        Worker = std::make_unique<WorkerContext>(BaseS, &ProvSnapshot);
        Built.fetch_add(1, std::memory_order_relaxed);
      } else if (!Pooled) {
        Pooled = std::make_unique<WorkerContext>(BaseS, &ProvSnapshot);
        Built.fetch_add(1, std::memory_order_relaxed);
      }
      WorkerContext &Ctx = Worker ? *Worker : *Pooled;
      try {
        Fn(Task, Ctx);
        std::lock_guard<std::mutex> Lock(MergeMutex);
        Ctx.mergeInto(BaseS);
      } catch (...) {
        Errors[Task] = std::current_exception();
      }
      if (KeepContexts)
        Retained[Task] = std::move(Worker);
      else
        // Whether the task merged or threw, strip its per-task state so
        // nothing leaks into the next task this thread claims.
        Pooled->reset();
    }
  };

  unsigned Pool = static_cast<unsigned>(
      std::min<size_t>(NumThreads, NumTasks == 0 ? 1 : NumTasks));
  if (Pool <= 1) {
    RunTasks();
  } else {
    std::vector<std::thread> Threads;
    Threads.reserve(Pool);
    for (unsigned I = 0; I < Pool; ++I)
      Threads.emplace_back(RunTasks);
    for (std::thread &T : Threads)
      T.join();
  }

  ContextsBuilt = Built.load(std::memory_order_relaxed);
  assert(ContextsBuilt <= NumTasks &&
         "a context was constructed for a never-claimed task");
  assert((KeepContexts || ContextsBuilt <= Pool) &&
         "pooled run built more contexts than pool threads");

  // Join point: replay order-sensitive trace buffers in task order onto
  // lane 2 + task, so the merged trace's (lane, phase, name) sequence is
  // identical across schedules.  A task that threw had its whole scratch
  // state discarded (mergeInto never ran), so its buffer is skipped too —
  // the event stream never shows spans whose counters were not merged.
  obs::Tracer &BaseTrace = BaseS.tracer();
  if (BaseTrace.active())
    for (size_t Task = 0; Task < Retained.size(); ++Task)
      if (Retained[Task] && !Errors[Task])
        Retained[Task]->replayTraceInto(BaseTrace,
                                        /*Lane=*/2 + static_cast<double>(Task));

  for (size_t Task = 0; Task < NumTasks; ++Task)
    if (Errors[Task])
      std::rethrow_exception(Errors[Task]);

  if (!RetainWorkers)
    Retained.clear();
  return Retained;
}
