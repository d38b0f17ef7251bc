//===- obs/SlowQueryLog.cpp - Worst-K solver query capture ----------------===//

#include "obs/SlowQueryLog.h"

#include <iomanip>
#include <sstream>

using namespace fast::obs;

std::string SlowQueryLog::report() const {
  if (Entries.empty())
    return "";
  std::ostringstream Out;
  Out << "slowest solver queries:\n";
  for (const Entry &E : sorted()) {
    Out << "  " << std::fixed << std::setprecision(1) << std::setw(10) << E.Us
        << " us  " << std::left << std::setw(9) << E.Kind << std::right
        << "  [" << (E.Construction.empty() ? "-" : E.Construction) << "]  ";
    // Keep one query per line; long guards are truncated, the trace file
    // carries the full text.
    constexpr size_t MaxLen = 200;
    if (E.Query.size() > MaxLen)
      Out << E.Query.substr(0, MaxLen) << "...";
    else
      Out << E.Query;
    Out << "\n";
  }
  return Out.str();
}
