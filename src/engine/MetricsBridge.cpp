//===- engine/MetricsBridge.cpp - Session stats -> metric families --------===//
//
// Part of the fast-transducers project (see support/Hashing.h).
//
//===----------------------------------------------------------------------===//

#include "engine/MetricsBridge.h"

#include "engine/Engine.h"

#include <cstdio>
#include <fstream>

using namespace fast;
using namespace fast::engine;
using obs::MetricsSnapshot;

void fast::engine::collectSessionMetrics(const SessionEngine &Eng,
                                         MetricsSnapshot &Snap) {
  // --- fast_engine_*: one sample per construction, in the registry's name
  // order, so exposition is deterministic.  Callers collect on the session
  // thread while no worker runs (workers merge under the runner's mutex
  // and are joined first); the slots lock keeps the iteration safe against
  // slot creation all the same.
  auto SlotsLock = Eng.Stats.slotsLock();
  for (const auto &[Name, C] : Eng.Stats.constructions())
    Snap.addFields("fast_engine_", C, {{"construction", Name}});

  // --- The solver, the VM (zeros when it never ran, so every snapshot has
  // a stable family set) and the Fast driver's program counters.
  Snap.addFields("fast_solver_", Eng.Solv.stats());
  Snap.addFields("fast_vm_", Eng.Stats.vm());
  Snap.addFields("fast_", Eng.Stats.program());
}

bool fast::engine::writeMetricsFile(const SessionEngine &Eng,
                                    const std::string &Path) {
  MetricsSnapshot Snap;
  collectSessionMetrics(Eng, Snap);
  std::string Tmp = Path + ".tmp";
  {
    std::ofstream Out(Tmp, std::ios::trunc);
    if (!Out)
      return false;
    Out << Snap.json();
    Out.flush();
    if (!Out)
      return false;
  }
  // rename(2) is atomic within a filesystem: a reader only ever observes a
  // complete document.
  return ::rename(Tmp.c_str(), Path.c_str()) == 0;
}
