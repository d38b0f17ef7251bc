//===- engine/MetricsBridge.cpp - Session stats -> metric families --------===//
//
// Part of the fast-transducers project (see support/Hashing.h).
//
//===----------------------------------------------------------------------===//

#include "engine/MetricsBridge.h"

#include "engine/Engine.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <utility>

using namespace fast;
using namespace fast::engine;
using obs::MetricsSnapshot;

void fast::engine::collectSessionMetrics(const SessionEngine &Eng,
                                         MetricsSnapshot &Snap) {
  // --- fast_engine_*: one sample per construction, in the registry's name
  // order, so exposition is deterministic.  The slots lock serializes this
  // iteration against slot creation on the session thread — the periodic
  // metrics flusher calls this from its own thread mid-run; the counters
  // themselves are relaxed cells and need no lock.
  auto SlotsLock = Eng.Stats.slotsLock();
  for (const auto &[Name, C] : Eng.Stats.constructions())
    Snap.addFields("fast_engine_", C, {{"construction", Name}});

  // --- The solver, the VM (zeros when it never ran, so every snapshot has
  // a stable family set) and the Fast driver's program counters.
  Snap.addFields("fast_solver_", Eng.Solv.stats());
  Snap.addFields("fast_vm_", Eng.Stats.vm());
  Snap.addFields("fast_", Eng.Stats.program());
}

//===----------------------------------------------------------------------===//
// MetricsFileFlusher
//===----------------------------------------------------------------------===//

bool MetricsFileFlusher::flushOnce(const SessionEngine &Eng,
                                   const std::string &Path) {
  MetricsSnapshot Snap;
  collectSessionMetrics(Eng, Snap);
  bool Json = Path.size() > 5 &&
              Path.compare(Path.size() - 5, 5, ".json") == 0;
  std::string Tmp = Path + ".tmp";
  {
    std::ofstream Out(Tmp, std::ios::trunc);
    if (!Out)
      return false;
    Out << (Json ? Snap.json() : Snap.prometheus());
    Out.flush();
    if (!Out)
      return false;
  }
  // rename(2) is atomic within a filesystem: readers (and metrics_check
  // after a forced abort) only ever observe a complete document.
  return ::rename(Tmp.c_str(), Path.c_str()) == 0;
}

void MetricsFileFlusher::start(const SessionEngine &Eng, std::string ToPath,
                               unsigned Interval) {
  stop();
  Engine = &Eng;
  Path = std::move(ToPath);
  IntervalMs = Interval == 0 ? 1000 : Interval;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Stop = false;
    Flushes = 0;
  }
  flushOnce(Eng, Path); // a file exists from the very first tick
  {
    std::lock_guard<std::mutex> Lock(Mu);
    ++Flushes;
  }
  Thread = std::thread([this] {
    std::unique_lock<std::mutex> Lock(Mu);
    while (!Cv.wait_for(Lock, std::chrono::milliseconds(IntervalMs),
                        [this] { return Stop; })) {
      Lock.unlock();
      flushOnce(*Engine, Path);
      Lock.lock();
      ++Flushes;
    }
  });
}

void MetricsFileFlusher::stop() {
  if (!Thread.joinable())
    return;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Stop = true;
  }
  Cv.notify_all();
  Thread.join();
  flushOnce(*Engine, Path); // final state survives the thread
}

uint64_t MetricsFileFlusher::flushCount() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Flushes;
}
